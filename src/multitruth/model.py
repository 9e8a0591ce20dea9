"""Core domain types and prior machinery shared by all fusion methods.

Values are opaque tokens compared by exact equality; string values are
whitespace-trimmed and NFC-normalized on ingestion.  No fuzzy matching.
"""

from __future__ import annotations

import logging
import math
import numbers
import unicodedata
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

from .errors import UnknownSourceError

log = logging.getLogger(__name__)

# Cap on beta so the odds factor beta/(1-beta) stays finite past the
# truth-count distribution's support.
BETA_CAP = 1.0 - 1e-9

# Engines and baselines read each quality field clamped into
# [QUALITY_CLAMP, 1 - QUALITY_CLAMP]: their formulas have poles at 0 and 1.
QUALITY_CLAMP = 1e-6


class _Bottom:
    """Sentinel for the decision "there is no more truth"."""

    __slots__ = ()

    def __repr__(self):
        return "<bottom>"


BOTTOM = _Bottom()


def normalize_value(value: Any) -> Any:
    """Canonicalize a value token: trim and NFC-normalize strings, pass
    everything else through unchanged."""
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value.strip())
    return value


class Claim(NamedTuple):
    """A single (source, item, value) assertion."""

    source_id: Any
    item_id: Any
    value: Any


@dataclass(frozen=True)
class ClaimSet:
    """All observations on one data item.

    `per_source` maps each source to the set of values it provides, and
    is the only form of the item's evidence; `candidates` is the union of
    those sets, and never empty.
    """

    item_id: Any
    per_source: Mapping[Any, frozenset]
    candidates: frozenset

    def __post_init__(self):
        if not self.candidates:
            raise ValueError(f"item {self.item_id!r} has no candidate value")

    @classmethod
    def from_claims(cls, item_id: Any, per_source: Mapping[Any, Iterable]) -> "ClaimSet":
        psi: Dict[Any, frozenset] = {}
        for source, values in per_source.items():
            vs = frozenset(normalize_value(v) for v in values)
            if not vs:
                raise ValueError(f"source {source!r} provides no value for item {item_id!r}")
            psi[source] = vs
        return cls(item_id=item_id, per_source=psi, candidates=frozenset().union(*psi.values()))

    def restrict(self, active_sources: Iterable[Any]) -> "ClaimSet":
        """View of this item with only `active_sources` contributing
        observations.  The candidate universe is kept intact, so values
        provided solely by excluded sources remain candidates (with no
        provider).  Returns this item itself when every one of its sources
        is active."""
        active = (active_sources if isinstance(active_sources, (set, frozenset))
                  else set(active_sources))
        if active.issuperset(self.per_source):
            return self
        psi = {s: vs for s, vs in self.per_source.items() if s in active}
        return ClaimSet(item_id=self.item_id, per_source=psi, candidates=self.candidates)


def __getattr__(name: str) -> Any:
    # `claims_by_item` lives in `index`, which imports this module, so it
    # is looked up there when read from here
    if name == "claims_by_item":
        from .index import claims_by_item
        return claims_by_item
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SourceQuality:
    """The (A, R, Q, P) quadruple describing one source.

    `accuracy` is the chance a value filled into a real truth slot is
    correct; `precision`/`recall` describe how well the source predicts
    slot existence; `false_positive_rate` is the chance of providing a
    value when no slot exists.
    """

    accuracy: float
    recall: float
    false_positive_rate: float
    precision: float = 1.0

    def __post_init__(self):
        for name in ("accuracy", "recall", "false_positive_rate", "precision"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {x}")

    def clamped(self) -> "SourceQuality":
        """Copy with every field passed through `clamp`."""
        return SourceQuality(clamp(self.accuracy), clamp(self.recall),
                             clamp(self.false_positive_rate), clamp(self.precision))


def quality_of(qualities: Mapping[Any, SourceQuality], source: Any) -> SourceQuality:
    """The quality entry of `source`; `UnknownSourceError` if it has none."""
    try:
        return qualities[source]
    except KeyError:
        raise UnknownSourceError(f"unknown source {source!r}: no quality entry") from None


def clamp(x: float) -> float:
    """A quality field pushed into [QUALITY_CLAMP, 1 - QUALITY_CLAMP]."""
    return min(max(x, QUALITY_CLAMP), 1.0 - QUALITY_CLAMP)


def derive_q(precision: float, recall: float, alpha: float) -> float:
    """False-positive rate implied by (precision, recall) and the a-priori
    slot probability alpha: alpha/(1-alpha) * (1-P)/P * R, clamped to [0,1].
    """
    if precision == 0:
        raise ValueError("undefined false-positive rate: precision is zero")
    q = alpha / (1.0 - alpha) * (1.0 - precision) / precision * recall
    if q > 1.0:
        log.warning("false-positive rate %.4g clamped to 1.0 (P=%.3g R=%.3g alpha=%.3g)",
                    q, precision, recall, alpha)
        q = 1.0
    return q


def _uniform_truth_dist(k_max: int = 5) -> Dict[int, float]:
    return {k: 1.0 / k_max for k in range(1, k_max + 1)}


@dataclass(frozen=True)
class PriorConfig:
    """Priors of the fusion model: the false-domain size n, the a-priori
    slot probability alpha, the distribution of the number of truths per
    item (which induces the per-step stop probabilities), and how the
    non-stop mass is split over the unselected values (`prior_mode`, read
    by `prior_slot_count`)."""

    n: int = 10
    alpha: float = 0.25
    truth_count_dist: Mapping[int, float] = field(default_factory=_uniform_truth_dist)
    prior_mode: str = "literal"

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"false-domain size n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("false-domain size n must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0,1)")
        if not self.truth_count_dist:
            raise ValueError("empty truth-count distribution")
        total = 0.0
        for k, p in self.truth_count_dist.items():
            if int(k) != k or k < 1:
                raise ValueError(f"truth-count support must be positive integers, got {k!r}")
            if p < 0:
                raise ValueError("negative truth-count probability")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"truth-count probabilities sum to {total}, expected 1")
        if self.prior_mode not in ("literal", "example-compatible"):
            raise ValueError(f"invalid prior_mode {self.prior_mode!r}")


def beta_at(prior: PriorConfig, i: int) -> float:
    """A-priori probability that fewer than i truths exist, i.e. the stop
    probability when looking for the i-th truth.  Capped just below 1 so
    downstream odds stay finite."""
    if i < 1:
        raise ValueError("step index must be >= 1")
    b = sum(p for k, p in prior.truth_count_dist.items() if k < i)
    return min(b, BETA_CAP)


def prior_slot_count(prior: PriorConfig, candidate_count: int, i: int) -> int:
    """Number of slots the non-stop prior mass is split over at step i.

    "literal" counts the values not yet selected; "example-compatible"
    keeps one extra slot, reproducing the worked arithmetic the priors
    were calibrated against.  The two modes barely move the posterior
    because the stop term is the only asymmetric one.  An array of
    candidate counts gives an array of slot counts.
    """
    extra = 1 if prior.prior_mode == "example-compatible" else 0
    return candidate_count - i + 1 + extra


@dataclass
class StepTrace:
    """One step of the quadratic approximation loop."""

    step: int
    bot_vote: float
    increments: Dict[Any, float]
    terminated: bool = False


@dataclass
class FusionDiagnostics:
    method: str
    bot_votes: List[float] = field(default_factory=list)
    termination_step: Optional[int] = None
    steps: Optional[List[StepTrace]] = None
    notes: List[str] = field(default_factory=list)


@dataclass
class FusionResult:
    """Outcome of fusing one item: a per-value truth probability, the
    selected truth set, and method diagnostics."""

    item_id: Any
    probabilities: Dict[Any, float]
    selected_truths: List[Any]
    diagnostics: FusionDiagnostics


@dataclass(frozen=True)
class GoldStandard:
    """Known true values per item, for evaluation."""

    truths: Mapping[Any, set]

    def __post_init__(self):
        for item, values in self.truths.items():
            if not values:
                raise ValueError(f"empty gold value set for item {item!r}")


@dataclass(frozen=True)
class VoteCountFixture:
    """Injectable vote counts: per-value L(v) and the per-step vote of
    "no more truth".  Lets the engines run on hand-constructed instances
    whose conditionals are specified directly."""

    votes: Mapping[Any, float]
    bot_votes: Sequence[float]

    def __post_init__(self):
        if not self.bot_votes:
            raise ValueError("need at least one stop vote")
        for v, l in self.votes.items():
            if not l > 0:
                raise ValueError(f"vote count for {v!r} must be positive")
            if not math.isfinite(l):
                raise ValueError(f"vote count for {v!r} must be finite")
        for l in self.bot_votes:
            if l < 0:
                raise ValueError("stop votes must be non-negative")
            if not math.isfinite(l):
                raise ValueError("stop votes must be finite")

    def bot_at(self, i: int) -> float:
        """Stop vote at step i (1-based); steps past the given sequence
        reuse its last entry."""
        return self.bot_votes[min(i, len(self.bot_votes)) - 1]


def sort_values(votes: Mapping[Any, float]) -> List[Any]:
    """Values in decreasing vote order; ties broken by token for
    determinism."""
    return sorted(votes, key=lambda v: (-votes[v], str(v)))
