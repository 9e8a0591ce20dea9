"""Inverse probabilities of the observations given a hypothesized truth set.

Each source's provided values are partitioned, against the hypothesized
truths, into consistent / inconsistent / extra / missing categories; the
per-source likelihood is the product of the category probabilities.  All
accumulation happens in log domain: products of many small category
probabilities underflow double precision for realistic source counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence, Tuple, Union

from .model import BOTTOM, ClaimSet, SourceQuality, _Bottom, quality_of

Candidate = Union[Any, _Bottom]

LOG_ZERO = float("-inf")


class CategoryCounts(NamedTuple):
    consistent: int
    inconsistent: int
    extra: int
    missing: int


@dataclass(frozen=True)
class CategoryProbs:
    """Closed-form category probabilities for one source.

    p_consistent = R*A       (correct slot, true value)
    p_inconsistent = R*(1-A)/n  (correct slot, a particular false value)
    p_extra = Q/n            (phantom slot, a particular false value)
    p_missing = 1-R          (missed slot)
    p_no_extra = 1-Q         (credit for not inventing a slot)
    """

    p_consistent: float
    p_inconsistent: float
    p_extra: float
    p_missing: float
    p_no_extra: float


def category_probs(quality: SourceQuality, n: int) -> CategoryProbs:
    if n < 1:
        raise ValueError("false-domain size n must be >= 1")
    a, r, q = quality.accuracy, quality.recall, quality.false_positive_rate
    return CategoryProbs(
        p_consistent=r * a,
        p_inconsistent=r * (1.0 - a) / n,
        p_extra=q / n,
        p_missing=1.0 - r,
        p_no_extra=1.0 - q,
    )


def category_counts(n_truths: int, n_provided: int, n_consistent: int) -> CategoryCounts:
    """Partition of a source's `n_provided` values against `n_truths`
    hypothesized truths, `n_consistent` of which the source provides.  A
    source provides extra values or misses truth slots, never both."""
    if n_truths < n_provided:
        return CategoryCounts(n_consistent, n_truths - n_consistent, n_provided - n_truths, 0)
    return CategoryCounts(n_consistent, n_provided - n_consistent, 0, n_truths - n_provided)


def partition_counts(provided: Iterable[Any], selected: Sequence[Any],
                     candidate: Candidate) -> CategoryCounts:
    """Partition one source's provided values against the hypothesized
    truth set: `selected` plus `candidate`, or `selected` alone when the
    candidate is BOTTOM."""
    provided = frozenset(provided)
    truths = set(selected)
    if candidate is not BOTTOM:
        if candidate in truths:
            raise ValueError(f"candidate {candidate!r} already selected")
        truths.add(candidate)
    return category_counts(len(truths), len(provided), len(truths & provided))


def category_log_probs(probs: CategoryProbs) -> Tuple[float, ...]:
    """Logs of (p_consistent, p_inconsistent, p_extra, p_missing,
    p_no_extra), LOG_ZERO for a zero probability.  The first four follow
    the field order of `CategoryCounts`, which `counts_likelihood` zips
    them with."""
    return tuple(math.log(p) if p > 0.0 else LOG_ZERO
                 for p in (probs.p_consistent, probs.p_inconsistent, probs.p_extra,
                           probs.p_missing, probs.p_no_extra))


def counts_likelihood(counts: CategoryCounts, log_probs: Sequence[float], stop: bool) -> float:
    """Log-likelihood of one source's observations from its category counts
    and `category_log_probs`.  A category with count 0 contributes nothing,
    even at probability 0.  When the hypothesis stops (the candidate is
    BOTTOM) and the source did not overshoot the truth count, the source is
    additionally credited for not providing extra values."""
    ll = 0.0
    for count, log_p in zip(counts, log_probs):
        if count:
            ll += count * log_p
    if stop and counts.extra == 0:
        ll += log_probs[4]
    return ll


def source_likelihood(provided: Iterable[Any], selected: Sequence[Any],
                      candidate: Candidate, probs: CategoryProbs) -> float:
    """Log-likelihood of one source's observations given the hypothesized
    truth set `selected` plus `candidate` (see `counts_likelihood`)."""
    counts = partition_counts(provided, selected, candidate)
    return counts_likelihood(counts, category_log_probs(probs), candidate is BOTTOM)


def joint_likelihood(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                     selected: Sequence[Any], candidate: Candidate, n: int) -> float:
    """Log-likelihood of all observations on one item, assuming source
    independence."""
    probs = {source: category_probs(quality_of(qualities, source), n)
             for source in claims.per_source}
    total = 0.0
    for source, provided in claims.per_source.items():
        ll = source_likelihood(provided, selected, candidate, probs[source])
        if ll == LOG_ZERO:
            return LOG_ZERO
        total += ll
    return total
