"""Exact fusion by enumerating possible worlds.

A possible world is an ordered sequence of values already committed as
truths; the probability of a value is the weighted sum, over all worlds
not containing it, of its conditional probability of being the next truth.
The conditionals depend only on the *set* already selected, so the sum
runs as a dynamic program over subsets: the candidates are numbered in
token order, a subset is a bitmask, and the mass of a subset is the
summed probability of every selection order that reaches it.  One item
costs O(2^m * m * S) for m candidates and S sources, so the candidate
count is capped (`DEFAULT_CANDIDATE_CAP`); serves as the oracle for the
quadratic approximation.

`exact_fuse_dataset` enumerates every item of a `ClaimIndex` in one pass,
which is what `iterate` uses: each source's log-likelihood cells depend
only on its quality and on how many values it provides, so the pass
fills them once per (source, provided count) and every item shares them.
`exact_fuse` is that pass on a one-item index.
"""

from __future__ import annotations

import math
from operator import getitem
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import DegenerateEvidenceError, InstanceTooLargeError
from .index import ClaimIndex
from .likelihood import (
    LOG_ZERO,
    category_counts,
    category_log_probs,
    category_probs,
    counts_likelihood,
    source_likelihood,
)
from .model import (
    BOTTOM,
    ClaimSet,
    FusionDiagnostics,
    FusionResult,
    PriorConfig,
    SourceQuality,
    VoteCountFixture,
    beta_at,
    prior_slot_count,
    quality_of,
    sort_values,
)

DEFAULT_CANDIDATE_CAP = 12

# Worlds whose cumulative probability falls below this contribute nothing
# at the supported tolerances; skipping them bounds work.
PRUNE_THRESHOLD = 1e-12


def _normalise(log_weights: Sequence[float], item_id: Any) -> List[float]:
    """Bayes normalisation of log-domain weights, shifted by their maximum
    so that no exponential underflows to an all-zero distribution."""
    top = max(log_weights)
    if top == LOG_ZERO:
        raise DegenerateEvidenceError(
            f"degenerate evidence on item {item_id!r}: all likelihoods are zero")
    total = sum(math.exp(lw - top) for lw in log_weights)
    return [math.exp(lw - top) / total for lw in log_weights]


def _prior_logs(m: int, prior: PriorConfig, n_selected: int) -> Tuple[float, float]:
    """Log prior of one particular unselected value among `m` candidates,
    and of BOTTOM, being the next truth after `n_selected` values;
    LOG_ZERO where the prior is 0."""
    i = n_selected + 1
    beta = beta_at(prior, i)
    v_prior = (1.0 - beta) / prior_slot_count(prior, m, i) if n_selected < m else 0.0
    return (math.log(v_prior) if v_prior > 0 else LOG_ZERO,
            math.log(beta) if beta > 0 else LOG_ZERO)


def conditional_distribution(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                             prior: PriorConfig, selected: Sequence[Any]) -> Dict[Any, float]:
    """Bayes-normalized probabilities, over the unselected candidates plus
    BOTTOM, of being the next truth after `selected`.  Evaluates every
    source's likelihood on the hypothesized sets themselves; `exact_fuse`
    reaches the same numbers from category counts."""
    source_probs = {s: category_probs(quality_of(qualities, s), prior.n)
                    for s in claims.per_source}
    selected_seq = tuple(frozenset(selected))
    remaining = sorted(claims.candidates - frozenset(selected), key=str)
    log_v_prior, log_beta = _prior_logs(len(claims.candidates), prior, len(selected))

    def joint_ll(candidate) -> float:
        total = 0.0
        for source, provided in claims.per_source.items():
            ll = source_likelihood(provided, selected_seq, candidate, source_probs[source])
            if ll == LOG_ZERO:
                return LOG_ZERO
            total += ll
        return total

    log_weights = ([joint_ll(v) + log_v_prior for v in remaining]
                   + [joint_ll(BOTTOM) + log_beta])
    return dict(zip(remaining + [BOTTOM], _normalise(log_weights, claims.item_id)))


def conditional_prob(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                     prior: PriorConfig, selected: Sequence[Any], candidate) -> float:
    """Probability of `candidate` (a value or BOTTOM) being the next truth
    given the already-selected sequence."""
    if candidate is not BOTTOM and candidate in set(selected):
        raise ValueError(f"candidate {candidate!r} already selected")
    dist = conditional_distribution(claims, qualities, prior, selected)
    return dist[candidate]


def _enumerate(m: int, cond_of: Callable[[int, List[int]], Sequence[float]],
               prune: float) -> List[float]:
    """Sum over all selection sequences of m candidates as a DP over
    subsets.  `cond_of(mask, remaining)` gives the conditional probability
    of each candidate in `remaining` (the indices not in `mask`, ascending)
    being the next truth; the rest of its mass is BOTTOM, which ends the
    world and contributes nothing.  Masks are visited in increasing order,
    so every subset comes after all of its predecessors.  A non-empty
    subset whose mass is not above `prune` is not expanded; the mass sums
    every order reaching it, so this prunes no more than a walk over the
    orders themselves.  The empty selection is evaluated even without
    candidates, so evidence that rules out stopping at once still raises."""
    full = (1 << m) - 1
    totals = [0.0] * m
    mass = [0.0] * (1 << m)
    mass[0] = 1.0
    for mask in range(max(full, 1)):
        world_p = mass[mask]
        if mask and world_p <= prune:
            continue
        remaining = [v for v in range(m) if not mask >> v & 1]
        expand = len(remaining) > 1
        for v, p in zip(remaining, cond_of(mask, remaining)):
            branch = world_p * p
            totals[v] += branch
            if expand:
                mass[mask | 1 << v] += branch
    # rounding can carry a sum of probabilities one unit past 1
    return [min(max(t, 0.0), 1.0) for t in totals]


class _SourceCells(dict):
    """A source's log-likelihood depends on the hypothesis only through the
    selected count k, the count c of selected values the source provides,
    and whether the candidate is a value it provides, one it does not, or
    BOTTOM.  Maps (k, c) to those three log-likelihoods (None where no
    provided value is left to be the candidate), each computed on first
    use: pruned enumeration reaches only a few (k, c) pairs.  Nothing in
    a cell depends on the item, so `exact_fuse_dataset` keeps one table
    per (source, provided count) for a whole pass."""

    def __init__(self, log_probs: Sequence[float], n_provided: int):
        super().__init__()
        self.log_probs = log_probs
        self.n_provided = n_provided

    def __missing__(self, key):
        k, c = key
        p, log_probs = self.n_provided, self.log_probs
        cell = self[key] = (
            counts_likelihood(category_counts(k + 1, p, c + 1), log_probs, False)
            if c < p else None,
            counts_likelihood(category_counts(k + 1, p, c), log_probs, False),
            counts_likelihood(category_counts(k, p, c), log_probs, True))
        return cell


def _select(probabilities: Dict[Any, float]):
    return sort_values({v: p for v, p in probabilities.items() if p > 0.5})


def exact_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
               prior: PriorConfig, max_candidates: int = DEFAULT_CANDIDATE_CAP,
               prune: float = PRUNE_THRESHOLD) -> FusionResult:
    """Exact per-value truth probabilities by full possible-world
    enumeration; values with probability above 0.5 are selected.  This is
    `exact_fuse_dataset` on a one-item index."""
    index = ClaimIndex({claims.item_id: claims})
    return exact_fuse_dataset(index, qualities, prior, max_candidates=max_candidates,
                              prune=prune)[claims.item_id]


def exact_fuse_dataset(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                       prior: PriorConfig, active: Optional[Iterable[Any]] = None,
                       max_candidates: int = DEFAULT_CANDIDATE_CAP,
                       prune: float = PRUNE_THRESHOLD) -> Dict[Any, FusionResult]:
    """`exact_fuse` on every item of the index, with only the `active`
    sources (all if None) contributing.

    Every item's candidate count is checked against the cap before any
    item is enumerated.  Each source's category log-probabilities are
    taken once, its cells are shared by every item where it provides the
    same number of values, and the priors are taken once per candidate
    count.  An item's provided bitmasks come straight from the index
    arrays, skipping the inactive sources."""
    counts = index.cand_count.tolist()
    for m in counts:
        if m > max_candidates:
            raise InstanceTooLargeError(
                f"instance too large for exact enumeration ({m} candidates "
                f"> cap {max_candidates}); use the approximation")
    on = index.source_mask(active).tolist()
    log_probs = [category_log_probs(category_probs(quality_of(qualities, s), prior.n))
                 if is_on else None for s, is_on in zip(index.sources, on)]
    tables: Dict[Tuple[int, int], _SourceCells] = {}
    priors: Dict[int, List[Tuple[float, float]]] = {}

    cand_start, pair_start = index.cand_start.tolist(), index.pair_start.tolist()
    pair_source, pair_size = index.pair_source.tolist(), index.pair_size.tolist()
    # each claim's candidate as a bit position within its item
    claim_bit = (index.claim_cand
                 - index.cand_start[index.pair_item[index.claim_pair]]).tolist()
    results: Dict[Any, FusionResult] = {}
    k = 0  # the first claim of the next pair
    for d, m in enumerate(counts):
        c0 = cand_start[d]
        sources = []
        for p in range(pair_start[d], pair_start[d + 1]):
            j, size = pair_source[p], pair_size[p]
            if on[j]:
                provided_mask = 0
                for bit in claim_bit[k:k + size]:
                    provided_mask |= 1 << bit
                table = tables.get((j, size))
                if table is None:
                    table = tables[j, size] = _SourceCells(log_probs[j], size)
                sources.append((provided_mask, table))
            k += size
        if m not in priors:
            priors[m] = [_prior_logs(m, prior, i) for i in range(m + 1)]
        results[index.items[d]] = _fuse_item(index.item_ids[d], index.tokens[c0:c0 + m],
                                             sources, priors[m], prune)
    return results


def _fuse_item(item_id: Any, values: List[Any], sources: List[Tuple[int, _SourceCells]],
               priors: List[Tuple[float, float]], prune: float) -> FusionResult:
    """The subset DP of one item: `values` in token order, each source as
    the bitmask of the values it provides and its cell table, and
    `_prior_logs` at every selected count."""
    m = len(values)
    # where a candidate's log-likelihood sits in a source's cell: 0 if the
    # source provides it, 1 if not
    kinds = [[0 if provided_mask >> v & 1 else 1 for provided_mask, _ in sources]
             for v in range(m)]

    def cond_of(mask: int, remaining: List[int]) -> List[float]:
        k = m - len(remaining)
        cells = [table[k, (mask & provided_mask).bit_count()]
                 for provided_mask, table in sources]
        lls = [sum(map(getitem, cells, kinds[v])) for v in remaining]
        ll_bot = sum(cell[2] for cell in cells)
        log_v_prior, log_beta = priors[k]
        log_weights = [ll + log_v_prior for ll in lls] + [ll_bot + log_beta]
        return _normalise(log_weights, item_id)

    totals = _enumerate(m, cond_of, prune)
    probabilities = dict(zip(values, totals))
    return FusionResult(
        item_id=item_id,
        probabilities=probabilities,
        selected_truths=_select(probabilities),
        diagnostics=FusionDiagnostics(method="hybrid-exact"),
    )


def exact_fuse_from_votes(fixture: VoteCountFixture, item_id: Any = None,
                          prune: float = PRUNE_THRESHOLD) -> FusionResult:
    """Exact enumeration with conditionals taken from injected vote
    counts: p(v | selected) = L(v) / (sum of unselected L + stop vote)."""
    values = sorted(fixture.votes, key=str)
    votes = [fixture.votes[v] for v in values]

    def cond_of(mask: int, remaining: List[int]) -> List[float]:
        bot = fixture.bot_at(len(values) - len(remaining) + 1)
        denom = sum(votes[v] for v in remaining) + bot
        if denom <= 0:
            raise DegenerateEvidenceError("degenerate votes: zero denominator")
        return [votes[v] / denom for v in remaining]

    probabilities = dict(zip(values, _enumerate(len(values), cond_of, prune)))
    return FusionResult(
        item_id=item_id,
        probabilities=probabilities,
        selected_truths=_select(probabilities),
        diagnostics=FusionDiagnostics(method="hybrid-exact-votes"),
    )
