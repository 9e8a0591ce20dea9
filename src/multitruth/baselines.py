"""Comparison fusion methods: majority vote, accuracy-weighted single
truth, independent per-value precision/recall odds, and the two-step
count-then-pick baseline.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Dict, Mapping

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
        diag.notes.append(f"tie among {winners}; selected {winners[0]!r} lexicographically")
        log.debug("majority tie on item %r: %s", claims.item_id, winners)
    return FusionResult(
        item_id=claims.item_id,
        probabilities={v: c / top if top else 1.0 for v, c in counts.items()},
        selected_truths=[winners[0]],
        diagnostics=diag,
    )


def _accuracy_votes(claims: ClaimSet, qualities: Mapping[Any, SourceQuality], n: int):
    """Each value's vote: the sum of log n*A/(1-A) over its providers, in
    source order, exponentiated after a shift by the largest, so that no
    number of sources overflows it."""
    log_votes = dict.fromkeys(sorted(claims.candidates, key=str), 0.0)
    for s in sorted(claims.per_source, key=str):
        a = clamp(quality_of(qualities, s).accuracy)
        term = math.log(n * a / (1.0 - a))
        for v in claims.per_source[s]:
            log_votes[v] += term
    top = max(log_votes.values())
    return {v: math.exp(lv - top) for v, lv in log_votes.items()}


def accu_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality], n: int) -> FusionResult:
    """Single-truth fusion: normalize accuracy vote counts over all
    provided values; exactly one truth is selected."""
    votes = _accuracy_votes(claims, qualities, n)
    total = math.fsum(votes.values())
    probabilities = {v: l / total for v, l in votes.items()}
    ranked = sort_values(probabilities)
    diag = FusionDiagnostics(method="accu")
    top_p = probabilities[ranked[0]]
    ties = [v for v in ranked if probabilities[v] == top_p]
    if len(ties) > 1:
        diag.notes.append(f"tie among {ties}; selected {ranked[0]!r} lexicographically")
    return FusionResult(item_id=claims.item_id, probabilities=probabilities,
                        selected_truths=[ranked[0]], diagnostics=diag)


def precrec_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                 prior: PriorConfig) -> FusionResult:
    """Independent per-value decision from posterior odds: providers
    contribute R/Q, item sources that abstain contribute (1-R)/(1-Q);
    a value is true when its probability clears 0.5."""
    terms = []
    for s, values in claims.per_source.items():
        q = quality_of(qualities, s)
        r, fp = clamp(q.recall), clamp(q.false_positive_rate)
        terms.append((values, r / fp, (1.0 - r) / (1.0 - fp)))
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
            a = clamp(quality_of(qualities, s).accuracy)
            logs.setdefault(len(values), []).append(math.log(n_card * a / (1.0 - a)))
        # fsum rounds once, so counts backed by equal accuracies tie in any source order
        top = max(map(math.fsum, logs.values()))
        tied = sorted(c for c, terms in logs.items() if math.fsum(terms) == top)
        k = tied[0]
        if len(tied) > 1:
            diag.notes.append(f"truth-count tie among {tied}; selected smallest k={k}")
    value_result = accu_fuse(claims, qualities, prior.n)
    ranked = sort_values(value_result.probabilities)
    return FusionResult(item_id=claims.item_id,
                        probabilities=value_result.probabilities,
                        selected_truths=ranked[:k], diagnostics=diag)
