"""Comparison fusion methods: majority vote, accuracy-weighted single
truth, independent per-value precision/recall odds, and the two-step
count-then-pick baseline.

Each method fuses one item (`majority_vote`, `accu_fuse`, `precrec_fuse`,
`twostep_fuse`) and, as `majority_round`, `accu_round`, `precrec_round`
and `twostep_round`, every item of a `ClaimIndex` at once, which is what
`iterate` uses.  A round takes each sum, product and maximum over the
index arrays in the order the per-item function takes it, and its logs
and exponentials with `math`, so both give the same floats; it returns
an `index.FusionRound` whose `results()` builds the result objects.
"""

from __future__ import annotations

import logging
import math
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

import numpy as np

from .index import ClaimIndex, FusionRound, blocks
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

# Cells (pairs x candidates) of one block of `precrec_round`: bounds the
# memory of its padded factor matrix.
BLOCK_CELLS = 1 << 14


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


def _provided_odds(quality: SourceQuality) -> float:
    """R/Q: the odds factor of a value the source provides."""
    return clamp(quality.recall) / clamp(quality.false_positive_rate)


def _abstained_odds(quality: SourceQuality) -> float:
    """(1-R)/(1-Q): the odds factor of a value the source leaves out."""
    return (1.0 - clamp(quality.recall)) / (1.0 - clamp(quality.false_positive_rate))


def precrec_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                 prior: PriorConfig) -> FusionResult:
    """Independent per-value decision from posterior odds: providers
    contribute R/Q, item sources that abstain contribute (1-R)/(1-Q),
    multiplied in source order; a value is true when its probability
    clears 0.5."""
    terms = []
    for s in sorted(claims.per_source, key=str):
        q = quality_of(qualities, s)
        terms.append((claims.per_source[s], _provided_odds(q), _abstained_odds(q)))
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
    diag = FusionDiagnostics(method="twostep")
    if not claims.per_source:
        k = 1
        diag.notes.append(f"no active source provided item {claims.item_id!r}; k=1")
    else:
        n_card = max(len(vs) for vs in claims.per_source.values())
        logs: Dict[int, list] = {}
        for s, values in claims.per_source.items():
            logs.setdefault(len(values), []).append(
                _log_accuracy_term(quality_of(qualities, s), n_card))
        # fsum rounds once, so counts backed by equal accuracies tie in any source order
        top = max(map(math.fsum, logs.values()))
        tied = sorted(c for c, terms in logs.items() if math.fsum(terms) == top)
        k = tied[0]
        if len(tied) > 1:
            diag.notes.append(f"truth-count tie among {tied}; selected smallest k={k}")
    probabilities, ranked = _accu(claims, qualities, prior.n)
    return FusionResult(item_id=claims.item_id, probabilities=probabilities,
                        selected_truths=ranked[:k], diagnostics=diag)


# Dataset rounds.  A pair or claim of a source outside `active` gets the
# neutral term (a log term of 0, an odds factor of 1), which leaves every
# sum and product it enters exactly as if it were skipped.  Selections
# and notes are only worked out when `results()` is called.

def _source_terms(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                  active: Optional[Iterable[Any]], term: Callable[[SourceQuality], float],
                  neutral: float) -> np.ndarray:
    """`term` of every source of the index, in its source order; a source
    outside `active` (every source is active when it is None) needs no
    quality and gets `neutral`."""
    mask = index.source_mask(active)
    return np.array([term(quality_of(qualities, s)) if on else neutral
                     for s, on in zip(index.sources, mask)], dtype=float)


def _ranking(index: ClaimIndex, probabilities: np.ndarray) -> np.ndarray:
    """Each item's candidates by decreasing probability, then token
    (`sort_values`), item after item."""
    return np.lexsort((-probabilities, index.cand_item))


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


def _no_source_items(index: ClaimIndex, active_pairs: np.ndarray) -> List[int]:
    """Numbers of the items that no active source provides."""
    return np.flatnonzero(np.bincount(index.pair_item, weights=active_pairs,
                                      minlength=len(index)) == 0).tolist()


def _results(index: ClaimIndex, method: str, probabilities: np.ndarray, ranked: np.ndarray,
             n_selected: List[int], notes: Mapping[int, List[str]]) -> Dict[Any, FusionResult]:
    """Every item's `FusionResult`: its probabilities in candidate order,
    the first `n_selected[d]` of its candidates in `ranked` order as its
    truths, and `notes[d]` (none if absent) as its notes."""
    tokens, probs = index.tokens, probabilities.tolist()
    ranked_tokens = [tokens[g] for g in ranked.tolist()]
    bounds = index.cand_start.tolist()
    results: Dict[Any, FusionResult] = {}
    for d, (a, b, k) in enumerate(zip(bounds, bounds[1:], n_selected)):
        results[index.items[d]] = FusionResult(
            item_id=index.item_ids[d],
            probabilities=dict(zip(tokens[a:b], probs[a:b])),
            selected_truths=ranked_tokens[a:a + min(k, b - a)],
            diagnostics=FusionDiagnostics(method=method, notes=list(notes.get(d, ()))),
        )
    return results


def _single_truth_results(index: ClaimIndex, method: str, probabilities: np.ndarray,
                          notes: Dict[int, List[str]]) -> Dict[Any, FusionResult]:
    """`_results` with each item's first-ranked candidate selected, and a
    tie note after `notes` where its top probability is shared."""
    ranked = _ranking(index, probabilities)
    notes = {d: list(n) for d, n in notes.items()}
    for d, note in _tie_notes(index, probabilities, ranked).items():
        notes.setdefault(d, []).append(note)
    return _results(index, method, probabilities, ranked, [1] * len(index), notes)


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
    notes = {d: [f"no active source provided item {index.item_ids[d]!r}"]
             for d in _no_source_items(index, active_pairs)}
    return FusionRound(probabilities, partial(_single_truth_results, index, "majority",
                                              probabilities, notes))


def _accu_probabilities(index: ClaimIndex, qualities: Mapping[Any, SourceQuality], n: int,
                        active: Optional[Iterable[Any]]) -> np.ndarray:
    """`_accu`'s probabilities of every item, in candidate order.  The log
    votes are sums over the claims, in source order within a candidate."""
    term = _source_terms(index, qualities, active, partial(_log_accuracy_term, n=n), 0.0)
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
    array step per pair rank over many items at once, in blocks of at most
    BLOCK_CELLS (pairs x candidates) cells."""
    if not len(index):
        return FusionRound(np.zeros(0), dict)
    pair_factors = np.stack([
        _source_terms(index, qualities, active, _provided_odds, 1.0),
        _source_terms(index, qualities, active, _abstained_odds, 1.0)], axis=1)[index.pair_source]
    prior_odds = prior.alpha / (1.0 - prior.alpha)
    n_pairs = np.diff(index.pair_start)
    odds = np.concatenate([
        _precrec_block(index, lo, hi, pair_factors, n_pairs, prior_odds)
        for lo, hi in blocks(n_pairs.tolist(), index.cand_count.tolist(), BLOCK_CELLS)])
    # past the float range, the odds overflow to inf and inf/inf is nan
    with np.errstate(invalid="ignore"):
        probabilities = odds / (1.0 + odds)
    probabilities[odds == np.inf] = 1.0
    return FusionRound(probabilities, partial(_precrec_results, index, probabilities))


def _precrec_block(index: ClaimIndex, lo: int, hi: int, pair_factors: np.ndarray,
                   n_pairs: np.ndarray, prior_odds: float) -> np.ndarray:
    """The odds of the candidates of items lo..hi-1, in candidate order,
    from a padded matrix of each pair's factor on each of its item's
    candidates: R/Q where the source provides it, (1-R)/(1-Q) where not."""
    c0, c1 = index.cand_start[lo], index.cand_start[hi]
    p0, p1 = index.pair_start[lo], index.pair_start[hi]
    k0, k1 = index.claim_start[lo], index.claim_start[hi]
    width = int(index.cand_count[lo:hi].max())
    factor = np.repeat(pair_factors[p0:p1, 1:], width, axis=1)
    pair = index.claim_pair[k0:k1]
    factor[pair - p0, index.claim_cand[k0:k1] - index.cand_start[index.pair_item[pair]]] = \
        pair_factors[pair, 0]

    first, count = index.pair_start[lo:hi] - p0, n_pairs[lo:hi]
    odds = np.full((hi - lo, width), prior_odds)
    # odds past the float range overflow to inf, as the per-item product does
    with np.errstate(over="ignore"):
        for j in range(int(count.max())):
            live = np.flatnonzero(count > j)
            odds[live] *= factor[first[live] + j]
    item = index.cand_item[c0:c1]
    return odds[item - lo, np.arange(c0, c1) - index.cand_start[item]]


def _precrec_results(index: ClaimIndex, probabilities: np.ndarray) -> Dict[Any, FusionResult]:
    """`_results` with the values that clear 0.5 selected; they lead each
    item's ranking."""
    n_selected = np.bincount(index.cand_item, weights=probabilities > 0.5, minlength=len(index))
    return _results(index, "precrec", probabilities, _ranking(index, probabilities),
                    n_selected.astype(int).tolist(), {})


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
    """`_results` with each item's truth count k decided as `twostep_fuse`
    does: exactly rounded sums of log terms over its active pairs, one sum
    per provided count, and the smallest count of the top sum."""
    active_pairs = index.source_mask(active)[index.pair_source]
    live = np.flatnonzero(active_pairs)
    # the active pairs by item, then provided count: each (item, count)
    # group is one run, and each item's largest count ends its runs
    live = live[np.lexsort((index.pair_size[live], index.pair_item[live]))]
    item, size = index.pair_item[live], index.pair_size[live]
    ends = np.flatnonzero(np.diff(item, append=-1))
    n_card = np.zeros(len(index), dtype=np.intp)
    n_card[item[ends]] = size[ends]
    cards = n_card[item].tolist()
    terms = {c: _source_terms(index, qualities, active, partial(_log_accuracy_term, n=c),
                              0.0).tolist()
             for c in set(cards)}
    logs = [terms[c][j] for c, j in zip(cards, index.pair_source[live].tolist())]
    starts = np.flatnonzero(np.diff(item, prepend=-1) | np.diff(size, prepend=-1))
    bounds = starts.tolist() + [len(logs)]
    votes = np.array([math.fsum(logs[a:b]) for a, b in zip(bounds, bounds[1:])])
    group_item, group_size = item[starts], size[starts]

    top = np.full(len(index), -np.inf)
    np.maximum.at(top, group_item, votes)
    tied = np.flatnonzero(votes == top[group_item])
    # each item's tied counts, smallest first, as its runs go by count
    tied_counts: Dict[int, List[int]] = {}
    for d, c in zip(group_item[tied].tolist(), group_size[tied].tolist()):
        tied_counts.setdefault(d, []).append(c)
    k = [1] * len(index)
    notes = {d: [f"no active source provided item {index.item_ids[d]!r}; k=1"]
             for d in _no_source_items(index, active_pairs)}
    for d, counts in tied_counts.items():
        k[d] = counts[0]
        if len(counts) > 1:
            notes[d] = [f"truth-count tie among {counts}; selected smallest k={counts[0]}"]
    return _results(index, "twostep", probabilities, _ranking(index, probabilities), k, notes)
