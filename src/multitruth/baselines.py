"""Comparison fusion methods: majority vote, accuracy-weighted single
truth, independent per-value precision/recall odds, and the two-step
count-then-pick baseline.

Each method is one dataset round -- `majority_round`, `accu_round`,
`precrec_round` and `twostep_round` -- which fuses every item of a
`ClaimIndex` at once, as `iterate` uses it, and returns an
`index.FusionRound` whose `selected()` and `results()` build the
selection and the result objects, the latter through
`index.item_results`.  The per-item functions (`majority_vote`,
`accu_fuse`, `precrec_fuse`, `twostep_fuse`) are that round on a
one-item index (`index.fuse_one`), not a second body.  A round takes
each sum over the claims in source order, its logs and exponentials
with `math` and each item's normalising sum with `math.fsum`, so an
item's floats do not depend on the other items of its round.
`twostep_round` decides each item's truth count (`_twostep_k`) when its
selection or its results are first built.
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .index import (ClaimIndex, FusionRound, above_half_results, empty_round, fuse_one,
                    item_results, ranked_selection)
from .model import ClaimSet, FusionResult, PriorConfig, SourceQuality, clamp


def majority_vote(claims: ClaimSet) -> FusionResult:
    """Single truth = the value with the most providers; the reported
    per-value numbers are provider counts scaled by the winner's count
    (diagnostic only, not calibrated; all 1 when no source is active).
    `majority_round` on one item; it reads no quality and no prior."""
    return fuse_one(majority_round, claims, {}, PriorConfig())


def accu_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality], n: int) -> FusionResult:
    """Single-truth fusion: normalize accuracy vote counts over all
    provided values; exactly one truth is selected.  `accu_round` on one
    item, at false-domain size `n` (an integer of at least 1)."""
    return fuse_one(accu_round, claims, qualities, PriorConfig(n=n))


def precrec_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                 prior: PriorConfig) -> FusionResult:
    """Independent per-value decision from posterior odds: providers
    contribute R/Q, item sources that abstain contribute (1-R)/(1-Q),
    multiplied in source order; a value is true when its probability
    clears 0.5.  `precrec_round` on one item."""
    return fuse_one(precrec_round, claims, qualities, prior)


def twostep_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                 prior: PriorConfig) -> FusionResult:
    """Decide the number of truths k by single-truth fusion, in log-odds, over
    the per-source value counts, then select the k values ranked highest by
    single-truth fusion over the real values.  `twostep_round` on one item."""
    return fuse_one(twostep_round, claims, qualities, prior)


def _tie_note(ties: List[Any]) -> str:
    return f"tie among {ties}; selected {ties[0]!r} lexicographically"


def _log_accuracy_term(quality: SourceQuality, n: int) -> float:
    """A source's log n*A/(1-A), from its clamped accuracy."""
    a = clamp(quality.accuracy)
    return math.log(n * a / (1.0 - a))


def _odds_factors(quality: SourceQuality) -> Tuple[float, float]:
    """The odds factors of a value the source provides, R/Q, and of one it
    leaves out, (1-R)/(1-Q)."""
    r, q = clamp(quality.recall), clamp(quality.false_positive_rate)
    return r / q, (1.0 - r) / (1.0 - q)


def _twostep_k(item_id: Any, logs: Mapping[int, List[float]]) -> Tuple[int, List[str]]:
    """twostep's truth count and notes, from the log terms of an
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
# and notes are only worked out when `selected()` or `results()` is
# called.

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


def _single_truth_round(index: ClaimIndex, method: str, probabilities: np.ndarray,
                        notes: Dict[int, List[str]]) -> FusionRound:
    """The round that selects each item's first-ranked candidate."""
    return FusionRound(
        probabilities, partial(_single_truth_results, index, method, probabilities, notes),
        lambda: ranked_selection(index, index.ranking(probabilities), np.ones(len(index), int)))


def majority_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                   prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """Majority vote on every item of the index, with only the `active`
    sources (all if None) counted, as one round; reads no quality and no
    prior."""
    if not len(index):
        return empty_round()
    active_pairs = index.source_mask(active)[index.pair_source]
    counts = np.bincount(index.claim_cand[active_pairs[index.claim_pair]],
                         minlength=len(index.tokens))
    top = np.maximum.reduceat(counts, index.cand_start[:-1])[index.cand_item]
    probabilities = np.where(top > 0, counts / np.maximum(top, 1), 1.0)
    no_source = np.bincount(index.pair_item, weights=active_pairs, minlength=len(index)) == 0
    notes = {d: [f"no active source provided item {index.item_ids[d]!r}"]
             for d in np.flatnonzero(no_source).tolist()}
    return _single_truth_round(index, "majority", probabilities, notes)


def _accu_probabilities(index: ClaimIndex, qualities: Mapping[Any, SourceQuality], n: int,
                        active: Optional[Iterable[Any]]) -> np.ndarray:
    """accu's probabilities of every item, in candidate order: each
    value's accuracy vote, exponentiated after a shift by its item's
    largest so that no number of sources overflows it, over the item's
    `math.fsum` of them.  The log votes are sums over the claims, in
    source order within a candidate."""
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
    """accu (at `prior.n`) on every item of the index, with only the
    `active` sources (all if None) contributing, as one round: the
    first-ranked value of each item is its one truth."""
    if not len(index):
        return empty_round()
    probabilities = _accu_probabilities(index, qualities, prior.n, active)
    return _single_truth_round(index, "accu", probabilities, {})


def precrec_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                  prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """precrec on every item of the index, with only the `active` sources
    (all if None) contributing, as one round.

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
    # odds past the float range overflow to inf
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
    return FusionRound(probabilities, partial(above_half_results, index, "precrec", probabilities),
                       partial(np.greater, probabilities, 0.5))


def twostep_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                  prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """twostep on every item of the index, with only the `active` sources
    (all if None) contributing, as one round: accu's probabilities, with
    each item's truth count decided once, when the selection or the
    results are first built."""
    if not len(index):
        return empty_round()
    probabilities = _accu_probabilities(index, qualities, prior.n, active)
    counts = cache(partial(_twostep_counts, index, qualities, active))
    ranking = partial(index.ranking, probabilities)
    return FusionRound(
        probabilities,
        lambda: item_results(index, "twostep", probabilities, ranking(), *counts()),
        lambda: ranked_selection(index, ranking(), counts()[0]))


def _twostep_counts(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                    active: Optional[Iterable[Any]]) -> Tuple[List[int], Dict[int, List[str]]]:
    """Each item's truth count and notes, decided by `_twostep_k` over the
    log terms of its active pairs at the item's largest count."""
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
    return k, notes
