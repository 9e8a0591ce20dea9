"""Exact fusion by enumerating possible worlds.

A possible world is an ordered sequence of values already committed as
truths; the probability of a value is the weighted sum, over all worlds
not containing it, of its conditional probability of being the next truth.
The conditionals depend only on the *set* already selected, so the sum
runs as a dynamic program over subsets: the candidates are numbered in
token order, a subset is a bitmask, and the mass of a subset is the
summed probability of every selection order that reaches it.  One item
costs O(2^m * m * S) for m candidates and S sources, so the candidate
count is capped at `CANDIDATE_CAP`, and a subset of mass at most
`PRUNE_THRESHOLD` is not expanded; both are module constants, which no
call overrides.  Serves as the oracle for the quadratic approximation.

Subsets of one size do not depend on each other, so `_enumerate` runs
the DP in layers: layer k holds every live (item, subset of k values)
state of many items as flat arrays, and expands them all with a few
array operations.  `exact_fuse_round` runs it over every item of a
`ClaimIndex`, which is what `iterate` uses: each source's log-likelihood
cells depend only on its quality and on how many values it provides, so
the pass computes them once per (source, provided count), into one
array sized by the pass, and every item reads from it.  It returns an
`index.FusionRound`, the probabilities as one array, and builds the
selection or the result objects only when its `selected()` or
`results()` is called.  `exact_fuse` is
that pass on a one-item index, and `exact_fuse_from_votes` runs the same
layers on injected vote counts.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateEvidenceError, InstanceTooLargeError
from .index import ClaimIndex, FusionRound, above_half_results, blocks, empty_round, fuse_one
from .likelihood import LOG_ZERO, category_log_probs, category_probs, joint_likelihood
# unused, but bench/tracing.py wraps `exact.source_likelihood` by name
from .likelihood import source_likelihood  # noqa: F401
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
    sort_values,
)

# the most candidates an item may have; larger items raise
# InstanceTooLargeError
CANDIDATE_CAP = 12

# Worlds whose cumulative probability falls below this contribute nothing
# at the supported tolerances; skipping them bounds work.
PRUNE_THRESHOLD = 1e-12

# (row, column) cells of one block of items in the layered DP, the size
# of its largest arrays (see `index.blocks`).  Each item counts its widest
# layer unpruned, so a block's memory stays bounded however little
# pruning removes; an item wider than this gets a block of its own.
BLOCK_CELLS = 1 << 15

_LOWEST = float(np.finfo(float).min)

# the number of set bits of every mask of CANDIDATE_CAP bits
_BIT_COUNTS = sum(np.arange(1 << CANDIDATE_CAP) >> bit & 1 for bit in range(CANDIDATE_CAP))


def _degenerate(item_id: Any) -> DegenerateEvidenceError:
    return DegenerateEvidenceError(
        f"degenerate evidence on item {item_id!r}: all likelihoods are zero")


def _normalise(log_weights: Sequence[float], item_id: Any) -> List[float]:
    """Bayes normalisation of log-domain weights, shifted by their maximum
    so that no exponential underflows to an all-zero distribution."""
    top = max(log_weights)
    if top == LOG_ZERO:
        raise _degenerate(item_id)
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
    BOTTOM, of being the next truth after `selected`, each weighted by
    `joint_likelihood` on the hypothesized set itself plus its log prior;
    `exact_fuse` reaches the same numbers from category counts."""
    remaining = sorted(claims.candidates - frozenset(selected), key=str)
    log_v_prior, log_beta = _prior_logs(len(claims.candidates), prior, len(selected))
    log_weights = [joint_likelihood(claims, qualities, selected, v, prior.n)
                   + (log_beta if v is BOTTOM else log_v_prior)
                   for v in remaining + [BOTTOM]]
    return dict(zip(remaining + [BOTTOM], _normalise(log_weights, claims.item_id)))


def conditional_prob(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                     prior: PriorConfig, selected: Sequence[Any], candidate) -> float:
    """Probability of `candidate` (a value or BOTTOM) being the next truth
    given the already-selected sequence."""
    if candidate is not BOTTOM and candidate in set(selected):
        raise ValueError(f"candidate {candidate!r} already selected")
    dist = conditional_distribution(claims, qualities, prior, selected)
    return dist[candidate]


# cond(k, item, mask, row_state, row_item, row_bit) -> row weights; see
# `_enumerate`
Conditional = Callable[..., np.ndarray]


def _enumerate(cand_count: np.ndarray, cond: Conditional) -> Tuple[np.ndarray, Optional[int]]:
    """Sum over all selection sequences of every item's candidates as a
    DP over subsets, one layer of subsets of one size at a time.

    Item d has m = `cand_count[d]` candidates, bits 0 to m - 1 of a mask;
    bit m stands for BOTTOM.  A state is one (item, subset) with its mass;
    layer k holds the states of k selected values as the arrays `item`,
    `mask` and `mass`, sorted by item, then by mask.  A row is one
    (state, outcome): `row_state`, `row_item` and `row_bit`, state by
    state, the unselected candidates ascending and then BOTTOM.
    `cond(k, item, mask, row_state, row_item, row_bit)` gives each row's
    weight; a state's conditional probability of each outcome being the
    next truth is its weight over their sum, and a state whose weights sum
    to 0 has degenerate evidence.  BOTTOM ends the world and contributes
    nothing.  A non-empty state whose mass is not above PRUNE_THRESHOLD
    is not expanded; the mass sums every order reaching it, so this prunes no
    more than a walk over the orders themselves.  The empty selection is
    evaluated even without candidates, so evidence that rules out
    stopping at once is still found.

    Every sum runs state by state, in row order, so an item's arithmetic
    does not depend on the other items of the call.  Returns the totals
    of every item's candidates, item after item, clamped to [0,1], and
    the first item with a degenerate state (None if none)."""
    m = cand_count
    n = len(m)
    slots = np.arange(int(m.max(initial=0)) + 1)
    outcome = slots <= m[:, None]
    # a total per outcome of each item, BOTTOM's last, and a slot per
    # (item, mask) for the children of a layer
    total_at = np.cumsum(m + 1) - (m + 1)
    totals = np.zeros(int(np.sum(m + 1)))
    child_at = np.cumsum(1 << m) - (1 << m)
    child_item = np.repeat(np.arange(n), 1 << m)
    failed = np.zeros(n, dtype=bool)
    item = np.arange(n)
    mask = np.zeros(n, dtype=np.int64)
    mass = np.ones(n)
    k = 0
    while item.size:
        # the outcomes of each state: its unselected candidates and BOTTOM
        row_state, row_bit = np.nonzero((~mask[:, None] >> slots) & outcome[item])
        row_item = item[row_state]
        weight = cond(k, item, mask, row_state, row_item, row_bit)
        total = np.bincount(row_state, weights=weight, minlength=len(item))
        live = total > 0
        if not live.all():
            failed[item[~live]] = True
            ok = ~failed[row_item]
            row_state, row_item, row_bit, weight = (
                row_state[ok], row_item[ok], row_bit[ok], weight[ok])
        branch = mass[row_state] * (weight / total[row_state])
        np.add.at(totals, total_at[row_item] + row_bit, branch)
        # a child's mass sums its parents in ascending order
        m_row = m[row_item]
        grow = (row_bit < m_row) & (m_row > k + 1)
        child = (child_at[row_item] + (mask[row_state] | 1 << row_bit))[grow]
        reached = np.zeros(len(child_item), dtype=bool)
        reached[child] = True
        keys = np.flatnonzero(reached)
        mass = np.bincount(child, weights=branch[grow], minlength=len(reached))[keys]
        keep = mass > PRUNE_THRESHOLD
        keys, mass = keys[keep], mass[keep]
        item = child_item[keys]
        mask = keys - child_at[item]
        k += 1
    # rounding can carry a sum of probabilities one unit past 1
    totals = np.clip(np.delete(totals, total_at + m), 0.0, 1.0)
    first = np.flatnonzero(failed)
    return totals, (int(first[0]) if first.size else None)


def exact_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
               prior: PriorConfig) -> FusionResult:
    """Exact per-value truth probabilities by full possible-world
    enumeration; values with probability above 0.5 are selected.  This is
    `exact_fuse_round` on a one-item index."""
    return fuse_one(exact_fuse_round, claims, qualities, prior)


def exact_fuse_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                     prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """`exact_fuse` on every item of the index, with only the `active`
    sources (all if None) contributing, as one round.

    Every item's candidate count is checked against CANDIDATE_CAP before any
    item is enumerated.  Each source's category log-probabilities are
    taken once, and `_cells` computes one array of every cell the pass
    can read: a table per (source, provided count) among the active
    pairs, which every item where the source provides that many values
    reads, and the priors by candidate count.  The provided bitmasks of
    the active (item, source) pairs come straight from the index arrays.
    Items run through `_enumerate` in blocks whose widest layers, unpruned
    and padded to the block's most active pairs plus the prior, stay
    within BLOCK_CELLS (row, column) cells, and a `DegenerateEvidenceError`
    names the first such item in index order."""
    counts = index.cand_count
    for m in counts.tolist():
        if m > CANDIDATE_CAP:
            raise InstanceTooLargeError(
                f"instance too large for exact enumeration ({m} candidates "
                f"> cap {CANDIDATE_CAP}); use the approximation")
    if not len(index):
        return empty_round()
    log_probs = index.source_terms(
        qualities, active, lambda q: category_log_probs(category_probs(q, prior.n)), (0.0,) * 5)

    # the active pairs, item by item and in source order within an item,
    # each with the values it provides as a bitmask over its item's
    # candidates, its column among them, and its table of cells
    claim_bit = index.claim_cand - index.cand_start[index.pair_item[index.claim_pair]]
    provided = np.add.reduceat(np.left_shift(1, claim_bit, dtype=np.int64),
                               np.cumsum(index.pair_size) - index.pair_size)
    pairs = np.flatnonzero(index.source_mask(active)[index.pair_source])
    pair_item, provided = index.pair_item[pairs], provided[pairs]
    n_pairs = np.bincount(pair_item, minlength=len(index))
    pair_at = np.concatenate(([0], np.cumsum(n_pairs)))
    column = np.arange(len(pairs)) - pair_at[pair_item]
    # one table per (source, provided count) present, after the padding
    sizes = int(counts.max()) + 1
    table_key = index.pair_source[pairs] * sizes + index.pair_size[pairs]
    present = np.zeros(len(index.sources) * sizes, dtype=bool)
    present[table_key] = True
    table_of = np.cumsum(present)[table_key]
    keys = np.flatnonzero(present)
    cells = _cells(log_probs[keys // sizes], keys % sizes, prior, sizes - 1)
    prior_table = counts + len(keys) + 1

    totals = np.empty(index.cand_start[-1])
    cand_start = index.cand_start.tolist()
    widest = {m: max(math.comb(m, k) * (m - k + 1) for k in range(m + 1))
              for m in set(counts.tolist())}
    for lo, hi in blocks([widest[m] for m in counts.tolist()], (n_pairs + 1).tolist(),
                         BLOCK_CELLS):
        a, b = pair_at[lo], pair_at[hi]
        cond = _likelihood_conditional(counts[lo:hi], pair_item[a:b] - lo, column[a:b],
                                       provided[a:b], table_of[a:b], prior_table[lo:hi], cells)
        block, bad = _enumerate(counts[lo:hi], cond)
        if bad is not None:
            raise _degenerate(index.item_ids[lo + bad])
        totals[cand_start[lo]:cand_start[hi]] = block
    return FusionRound(totals, partial(above_half_results, index, "hybrid-exact", totals),
                       partial(np.greater, totals, 0.5))


def _cells(log_probs: np.ndarray, n_provided: np.ndarray, prior: PriorConfig,
           widest: int) -> np.ndarray:
    """Every log-likelihood cell a pass can read, indexed by (table, k,
    kind, c): k selected values, c of them provided by the table's source,
    and the kind of candidate, 0 for a value the source provides, 1 for
    one it does not, 2 for BOTTOM.  k runs below `widest`, the most
    candidates of an item, and c up to the largest of `n_provided`.

    Table 0 is the padding, all zeros.  Table t + 1 holds a source with
    `category_log_probs` row t of `log_probs` that provides `n_provided[t]`
    values: each cell is `counts_likelihood(category_counts(...))`, taken
    term by term in its order, so that every cell a state can read is the
    same float.  Where `counts_likelihood` skips a zero count, the cell
    adds 0.0, which leaves the sum as it is even at probability 0.  The
    last `widest + 1` tables hold, for items of 0 to `widest` candidates,
    the `_prior_logs` of an unselected value (kinds 0 and 1) and of BOTTOM
    at c = 0.  Cells with c > k or c past the provided count are never
    read; their counts can be negative, and only positive counts are
    multiplied, so they raise no floating-point warning."""
    kind = np.arange(3)[:, None]
    # the hypothesized truths and the provided ones among them, by (k, kind, c)
    truths = np.arange(widest)[:, None, None] + (kind < 2)
    consistent = np.arange(int(n_provided.max(initial=0)) + 1) + (kind == 0)
    cells = np.zeros((len(log_probs) + widest + 2, widest, 3, consistent.shape[1]))
    for p in set(n_provided.tolist()):
        tables = np.flatnonzero(n_provided == p)
        log_p = log_probs[tables].T[:, :, None, None, None]
        shown = np.minimum(truths, p)
        # `category_counts(truths, p, consistent)`, category by category
        counts = (consistent, shown - consistent, p - shown, truths - shown)
        ll = np.zeros((len(tables),) + cells.shape[1:])
        for count, category_log_p in zip(counts, log_p):
            ll += np.multiply(count, category_log_p, out=np.zeros(ll.shape), where=count > 0)
        # a BOTTOM that leaves no provided value extra adds log p_no_extra
        np.add(ll, log_p[4], out=ll, where=(kind == 2) & (truths >= p))
        cells[tables + 1] = ll
    priors = np.array([[_prior_logs(m, prior, k) for k in range(widest)]
                       for m in range(widest + 1)])
    cells[-widest - 1:, :, :, 0] = priors[:, :, [0, 0, 1]]
    return cells


def _likelihood_conditional(cand_count: np.ndarray, pair_item: np.ndarray,
                            column: np.ndarray, provided: np.ndarray, table_of: np.ndarray,
                            prior_table: np.ndarray, cells: np.ndarray) -> Conditional:
    """The row weights of a block of items for `_enumerate`: each row's
    log-likelihood plus log prior, exponentiated after a shift by its
    state's largest, so that no state underflows to all zeros.

    Each item's active pairs become columns in source order, padded with
    columns that read table 0 of `cells` (see `_cells`), and its prior is
    the last column.  A row reads one cell per column, at the column's
    table, the layer's k, the row's kind and the state's count c of the
    column's provided values; its log weight adds them column after
    column, which is the order `_normalise` sums in, and padding adds
    exact zeros.  Arrays run column-major, so that each column is
    contiguous."""
    n, bits = len(cand_count), int(cand_count.max())
    width = int(column.max(initial=-1)) + 2
    prov = np.zeros((width, n), dtype=np.int64)
    prov[column, pair_item] = provided
    tab = np.zeros((width, n), dtype=np.intp)
    tab[column, pair_item] = table_of
    tab[-1] = prior_table
    # which of a cell's log-likelihoods a row reads: 0 if the source
    # provides the candidate, 1 if not, 2 for BOTTOM
    kind = 1 - ((prov[:, :, None] >> np.arange(bits + 1)) & 1)
    kind[:, np.arange(n), cand_count] = 2
    # flat offsets into `cells`
    _, n_k, n_kind, n_c = cells.shape
    log_lik = cells.ravel()
    tab *= n_k * n_kind * n_c
    kind *= n_c

    def cond(k, item, mask, row_state, row_item, row_bit):
        key = tab[:, item] + _BIT_COUNTS[mask & prov[:, item]]
        key += k * n_kind * n_c
        at = key[:, row_state]
        at += kind[:, row_item, row_bit]
        row_cells = log_lik[at]
        log_w = row_cells[0].copy()
        for column_cells in row_cells[1:]:
            log_w += column_cells
        # from the lowest finite float, so a state whose log weights are
        # all -inf gets weights 0, not NaN
        top = np.full(len(item), _LOWEST)
        np.maximum.at(top, row_state, log_w)
        return np.exp(log_w - top[row_state])

    return cond


def exact_fuse_from_votes(fixture: VoteCountFixture) -> FusionResult:
    """Exact enumeration with conditionals taken from injected vote
    counts: p(v | selected) = L(v) / (sum of unselected L + stop vote)."""
    values = sorted(fixture.votes, key=str)
    # each candidate's vote, then BOTTOM's: the stop vote of the step
    weights = np.array([fixture.votes[v] for v in values] + [0.0])

    def cond(k, item, mask, row_state, row_item, row_bit):
        weights[-1] = fixture.bot_at(k + 1)
        return weights[row_bit]

    totals, bad = _enumerate(np.array([len(values)]), cond)
    if bad is not None:
        raise DegenerateEvidenceError("degenerate votes: zero denominator")
    probabilities = dict(zip(values, totals.tolist()))
    return FusionResult(
        item_id=None,
        probabilities=probabilities,
        selected_truths=sort_values({v: p for v, p in probabilities.items() if p > 0.5}),
        diagnostics=FusionDiagnostics(method="hybrid-exact-votes"),
    )
