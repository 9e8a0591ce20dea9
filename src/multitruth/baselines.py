"""Comparison fusion methods: majority vote, accuracy-weighted single
truth, independent per-value precision/recall odds, and the two-step
count-then-pick baseline.

Each method fuses one item (`majority_vote`, `accu_fuse`, `precrec_fuse`,
`twostep_fuse`) and, as `majority_round`, `accu_round`, `precrec_round`
and `twostep_round`, every item of a `ClaimIndex` at once, which is what
`iterate` uses.  A round takes each sum, product and maximum over the
index arrays in the order the per-item function takes it, and its logs
and exponentials with `math`, so both give the same floats; it returns
an `index.FusionRound` whose `results()` builds the result objects
through `index.item_results`.  `twostep_round` decides each item's truth
count with `twostep_fuse`'s own rule (`_twostep_k`).
"""

from __future__ import annotations

import logging
import math
from functools import partial
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .index import ClaimIndex, FusionRound, above_half_results, item_results
from .model import (
    ClaimSet,
    FusionDiagnostics,
    FusionResult,
    PriorConfig,
    SourceQuality,
    clamp,
    quality_of,
    sort_values,
)

log = logging.getLogger(__name__)

def _tie_note(ties: List[Any]) -> str:
    return f"tie among {ties}; selected {ties[0]!r} lexicographically"


def majority_vote(claims: ClaimSet) -> FusionResult:
    """Single truth = the value with the most providers; the reported
    per-value numbers are provider counts scaled by the winner's count
    (diagnostic only, not calibrated; all 1 when no source is active)."""
    counts = dict.fromkeys(sorted(claims.candidates, key=str), 0)
    for values in claims.per_source.values():
        for v in values:
            counts[v] += 1
    top = max(counts.values())
    winners = sorted((v for v, c in counts.items() if c == top), key=str)
    diag = FusionDiagnostics(method="majority")
    if not claims.per_source:
        diag.notes.append(f"no active source provided item {claims.item_id!r}")
    if len(winners) > 1:
        diag.notes.append(_tie_note(winners))
        log.debug("majority tie on item %r: %s", claims.item_id, winners)
    return FusionResult(
        item_id=claims.item_id,
        probabilities={v: c / top if top else 1.0 for v, c in counts.items()},
        selected_truths=[winners[0]],
        diagnostics=diag,
    )


def _log_accuracy_term(quality: SourceQuality, n: int) -> float:
    """A source's log n*A/(1-A), from its clamped accuracy."""
    a = clamp(quality.accuracy)
    return math.log(n * a / (1.0 - a))


def _accuracy_votes(claims: ClaimSet, qualities: Mapping[Any, SourceQuality], n: int):
    """Each value's vote: the sum of log n*A/(1-A) over its providers, in
    source order, exponentiated after a shift by the largest, so that no
    number of sources overflows it."""
    log_votes = dict.fromkeys(sorted(claims.candidates, key=str), 0.0)
    for s in sorted(claims.per_source, key=str):
        term = _log_accuracy_term(quality_of(qualities, s), n)
        for v in claims.per_source[s]:
            log_votes[v] += term
    top = max(log_votes.values())
    return {v: math.exp(lv - top) for v, lv in log_votes.items()}


def _accu(claims: ClaimSet, qualities: Mapping[Any, SourceQuality], n: int):
    """accu's probabilities, the accuracy votes normalised over all
    provided values, and the values ranked by them (`sort_values`)."""
    votes = _accuracy_votes(claims, qualities, n)
    total = math.fsum(votes.values())
    probabilities = {v: l / total for v, l in votes.items()}
    return probabilities, sort_values(probabilities)


def accu_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality], n: int) -> FusionResult:
    """Single-truth fusion: normalize accuracy vote counts over all
    provided values; exactly one truth is selected."""
    probabilities, ranked = _accu(claims, qualities, n)
    diag = FusionDiagnostics(method="accu")
    top_p = probabilities[ranked[0]]
    ties = [v for v in ranked if probabilities[v] == top_p]
    if len(ties) > 1:
        diag.notes.append(_tie_note(ties))
    return FusionResult(item_id=claims.item_id, probabilities=probabilities,
                        selected_truths=[ranked[0]], diagnostics=diag)


def _odds_factors(quality: SourceQuality) -> Tuple[float, float]:
    """The odds factors of a value the source provides, R/Q, and of one it
    leaves out, (1-R)/(1-Q)."""
    r, q = clamp(quality.recall), clamp(quality.false_positive_rate)
    return r / q, (1.0 - r) / (1.0 - q)


def precrec_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                 prior: PriorConfig) -> FusionResult:
    """Independent per-value decision from posterior odds: providers
    contribute R/Q, item sources that abstain contribute (1-R)/(1-Q),
    multiplied in source order; a value is true when its probability
    clears 0.5."""
    terms = []
    for s in sorted(claims.per_source, key=str):
        terms.append((claims.per_source[s],) + _odds_factors(quality_of(qualities, s)))
    prior_odds = prior.alpha / (1.0 - prior.alpha)
    probabilities = {}
    for v in sorted(claims.candidates, key=str):
        odds = prior_odds
        for values, provided, abstained in terms:
            odds *= provided if v in values else abstained
        # past the float range, the odds overflow to inf and inf/inf is nan
        probabilities[v] = 1.0 if odds == math.inf else odds / (1.0 + odds)
    selected = sort_values({v: p for v, p in probabilities.items() if p > 0.5})
    return FusionResult(item_id=claims.item_id, probabilities=probabilities,
                        selected_truths=selected,
                        diagnostics=FusionDiagnostics(method="precrec"))


def twostep_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                 prior: PriorConfig) -> FusionResult:
    """Decide the number of truths k by single-truth fusion, in log-odds, over
    the per-source value counts, then select the k values ranked highest by
    single-truth fusion over the real values."""
    n_card = max(map(len, claims.per_source.values()), default=0)
    logs: Dict[int, List[float]] = {}
    for s, values in claims.per_source.items():
        logs.setdefault(len(values), []).append(
            _log_accuracy_term(quality_of(qualities, s), n_card))
    k, notes = _twostep_k(claims.item_id, logs)
    probabilities, ranked = _accu(claims, qualities, prior.n)
    return FusionResult(item_id=claims.item_id, probabilities=probabilities,
                        selected_truths=ranked[:k],
                        diagnostics=FusionDiagnostics(method="twostep", notes=notes))


def _twostep_k(item_id: Any, logs: Mapping[int, List[float]]) -> Tuple[int, List[str]]:
    """`twostep_fuse`'s truth count and notes, from the log terms of an
    item's sources keyed by the number of values each provides: the
    smallest count of the largest sum, or one truth if no source
    provides the item."""
    if not logs:
        return 1, [f"no active source provided item {item_id!r}; k=1"]
    # fsum rounds once, so counts backed by equal accuracies tie in any source order
    votes = {c: math.fsum(terms) for c, terms in logs.items()}
    top = max(votes.values())
    tied = sorted(c for c, vote in votes.items() if vote == top)
    if len(tied) > 1:
        return tied[0], [f"truth-count tie among {tied}; selected smallest k={tied[0]}"]
    return tied[0], []


# Dataset rounds.  A pair or claim of a source outside `active` gets the
# neutral term (a log term of 0, an odds factor of 1), which leaves every
# sum and product it enters exactly as if it were skipped.  Selections
# and notes are only worked out when `results()` is called.

def _tie_notes(index: ClaimIndex, probabilities: np.ndarray,
               ranked: np.ndarray) -> Dict[int, str]:
    """The tie note of every item whose top probability more than one
    candidate shares, by item number; those candidates lead its ranking."""
    top = probabilities[ranked[index.cand_start[:-1]]]
    ties = np.bincount(index.cand_item, weights=probabilities == top[index.cand_item],
                       minlength=len(index))
    starts = index.cand_start.tolist()
    return {d: _tie_note([index.tokens[g] for g in ranked[starts[d]:starts[d] + int(t)].tolist()])
            for d, t in enumerate(ties.tolist()) if t > 1}


def _single_truth_results(index: ClaimIndex, method: str, probabilities: np.ndarray,
                          notes: Dict[int, List[str]]) -> Dict[Any, FusionResult]:
    """`item_results` with each item's first-ranked candidate selected, and
    a tie note after `notes` where its top probability is shared."""
    ranked = index.ranking(probabilities)
    notes = {d: list(n) for d, n in notes.items()}
    for d, note in _tie_notes(index, probabilities, ranked).items():
        notes.setdefault(d, []).append(note)
    return item_results(index, method, probabilities, ranked, [1] * len(index), notes)


def majority_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                   prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """`majority_vote` on every item of the index, with only the `active`
    sources (all if None) counted, as one round; reads no quality."""
    if not len(index):
        return FusionRound(np.zeros(0), dict)
    active_pairs = index.source_mask(active)[index.pair_source]
    counts = np.bincount(index.claim_cand[active_pairs[index.claim_pair]],
                         minlength=len(index.tokens))
    top = np.maximum.reduceat(counts, index.cand_start[:-1])[index.cand_item]
    probabilities = np.where(top > 0, counts / np.maximum(top, 1), 1.0)
    no_source = np.bincount(index.pair_item, weights=active_pairs, minlength=len(index)) == 0
    notes = {d: [f"no active source provided item {index.item_ids[d]!r}"]
             for d in np.flatnonzero(no_source).tolist()}
    return FusionRound(probabilities, partial(_single_truth_results, index, "majority",
                                              probabilities, notes))


def _accu_probabilities(index: ClaimIndex, qualities: Mapping[Any, SourceQuality], n: int,
                        active: Optional[Iterable[Any]]) -> np.ndarray:
    """`_accu`'s probabilities of every item, in candidate order.  The log
    votes are sums over the claims, in source order within a candidate."""
    term = index.source_terms(qualities, active, partial(_log_accuracy_term, n=n), 0.0)
    log_votes = np.bincount(index.claim_cand, weights=term[index.pair_source][index.claim_pair],
                            minlength=len(index.tokens))
    top = np.maximum.reduceat(log_votes, index.cand_start[:-1])
    votes = list(map(math.exp, (log_votes - top[index.cand_item]).tolist()))
    bounds = index.cand_start.tolist()
    totals = np.array([math.fsum(votes[a:b]) for a, b in zip(bounds, bounds[1:])])
    return np.array(votes) / totals[index.cand_item]


def accu_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
               prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """`accu_fuse` (at `prior.n`) on every item of the index, with only the
    `active` sources (all if None) contributing, as one round."""
    if not len(index):
        return FusionRound(np.zeros(0), dict)
    probabilities = _accu_probabilities(index, qualities, prior.n, active)
    return FusionRound(probabilities, partial(_single_truth_results, index, "accu",
                                              probabilities, {}))


def precrec_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                  prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """`precrec_fuse` on every item of the index, with only the `active`
    sources (all if None) contributing, as one round.

    Each candidate's odds are multiplied pair by pair in source order, one
    array step per pair rank.  The candidates are laid out by their item's
    number of pairs, most first, so that those whose item has a pair at
    rank j are a prefix, and step j touches only them: it multiplies each
    by the abstained factor of that pair, or by the provided one where a
    claim of the pair names the candidate."""
    factors = index.source_terms(qualities, active, _odds_factors, (1.0, 1.0))[index.pair_source]
    n_pairs = np.diff(index.pair_start)[index.cand_item]
    order = np.argsort(-n_pairs, kind="stable")
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    # live[j]: the number of candidates whose item has more than j pairs
    live = np.cumsum(np.bincount(n_pairs)[::-1])[-2::-1].tolist()
    first = index.pair_start[index.cand_item[order]]
    # the claims by their pair's rank in its item
    claim_rank = (np.arange(len(index.pair_item))
                  - index.pair_start[index.pair_item])[index.claim_pair]
    by_rank = np.argsort(claim_rank)
    rank_start = np.concatenate(([0], np.cumsum(np.bincount(claim_rank, minlength=len(live)))))
    claim_at = at[index.claim_cand[by_rank]]
    claim_factor = factors[index.claim_pair[by_rank], 0]
    odds = np.full(len(order), prior.alpha / (1.0 - prior.alpha))
    # odds past the float range overflow to inf, as the per-item product does
    with np.errstate(over="ignore"):
        for j, n in enumerate(live):
            step = factors[first[:n] + j, 1]
            a, b = rank_start[j], rank_start[j + 1]
            step[claim_at[a:b]] = claim_factor[a:b]
            odds[:n] *= step
    odds = odds[at]
    # past the float range, the odds overflow to inf and inf/inf is nan
    with np.errstate(invalid="ignore"):
        probabilities = odds / (1.0 + odds)
    probabilities[odds == np.inf] = 1.0
    return FusionRound(probabilities, partial(above_half_results, index, "precrec",
                                              probabilities))


def twostep_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                  prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """`twostep_fuse` on every item of the index, with only the `active`
    sources (all if None) contributing, as one round: accu's probabilities,
    with each item's truth count decided when the results are built."""
    if not len(index):
        return FusionRound(np.zeros(0), dict)
    probabilities = _accu_probabilities(index, qualities, prior.n, active)
    return FusionRound(probabilities, partial(_twostep_results, index, qualities, active,
                                              probabilities))


def _twostep_results(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                     active: Optional[Iterable[Any]],
                     probabilities: np.ndarray) -> Dict[Any, FusionResult]:
    """`item_results` with each item's truth count decided by `_twostep_k`
    over the log terms of its active pairs, as `twostep_fuse` does."""
    on = index.source_mask(active)[index.pair_source].tolist()
    sources, sizes = index.pair_source.tolist(), index.pair_size.tolist()
    bounds = index.pair_start.tolist()
    terms: Dict[int, List[float]] = {}  # every source's log term, by n_card
    k, notes = [], {}
    for d, (a, b) in enumerate(zip(bounds, bounds[1:])):
        pairs = [(sizes[p], sources[p]) for p in range(a, b) if on[p]]
        logs: Dict[int, List[float]] = {}
        if pairs:
            n_card = max(pairs)[0]
            if n_card not in terms:
                terms[n_card] = index.source_terms(
                    qualities, active, partial(_log_accuracy_term, n=n_card), 0.0).tolist()
            for c, s in pairs:
                logs.setdefault(c, []).append(terms[n_card][s])
        k_d, notes[d] = _twostep_k(index.item_ids[d], logs)
        k.append(k_d)
    return item_results(index, "twostep", probabilities, index.ranking(probabilities), k, notes)
