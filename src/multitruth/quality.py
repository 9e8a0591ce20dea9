"""Source-quality estimation from probabilistic fusion output, and the
alternating fusion / quality-update loop.

Precision and recall compare the *number* of values a source provides
against the probabilistic truth mass of each item; accuracy compares the
probabilities of the source's own values against its precision.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .index import ClaimIndex, FusionRound, RoundResults
from .model import ClaimSet, FusionResult, PriorConfig, SourceQuality, derive_q

log = logging.getLogger(__name__)

# A backend fuses one item.  It may also offer a dataset-level entry,
# `fuse_dataset(index, qualities, prior, active)`, returning an
# `index.FusionRound` of every item at once; `iterate` then calls that
# instead.
FusionBackend = Callable[[ClaimSet, Mapping[Any, SourceQuality], PriorConfig], FusionResult]

# `iterate` stops once no quality field moves more than this in a round
TOLERANCE = 1e-4


def source_metrics(index: ClaimIndex, probabilities: np.ndarray,
                   accuracy_mode: str = "per-item") -> Tuple[List[float], List[float], List[float]]:
    """Precision, recall and accuracy of every source of the index, in its
    source order, from one pass over the pairs and claims.

    `probabilities` holds every candidate's probability in the index's
    candidate order: a round's array, or `index.candidate_probabilities`
    of a dict of results.  An item's truth mass is the exactly rounded sum
    of its probabilities, and every other sum runs in index order, so the
    estimates do not depend on the order of any dict or set.  Accuracy is
    nan where it is undefined: a covered item with no truth mass
    ("per-item"), or zero precision ("literal").
    """
    if accuracy_mode not in ("per-item", "literal"):
        raise ValueError(f"unknown accuracy mode {accuracy_mode!r}")
    # one item's floats at a time: a list of every candidate's float
    # raised the peak memory of a `fuse_hybrid` benchmark run
    bounds = index.cand_start.tolist()
    mass = np.array([math.fsum(probabilities[a:b].tolist())
                     for a, b in zip(bounds, bounds[1:])], dtype=float)
    value_mass = np.bincount(index.claim_pair, weights=probabilities[index.claim_cand],
                             minlength=len(index.pair_item))

    n_sources = len(index.sources)
    per_source = lambda x: np.bincount(index.pair_source, weights=x, minlength=n_sources)
    n_pairs = per_source(None)
    size = index.pair_size.astype(float)
    mass = mass[index.pair_item]
    precision = np.minimum(mass / size, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        recall = np.where(mass > 0, np.minimum(size / mass, 1.0), 1.0)
        if accuracy_mode == "per-item":
            accuracy = per_source(np.minimum(value_mass / size / precision, 1.0)) / n_pairs
            accuracy[per_source(precision <= 0) > 0] = np.nan
        precision = per_source(precision) / n_pairs
        if accuracy_mode == "literal":
            accuracy = np.minimum(per_source(value_mass) / per_source(size) / precision, 1.0)
            accuracy[precision <= 0] = np.nan
    return precision.tolist(), (per_source(recall) / n_pairs).tolist(), accuracy.tolist()


def _source_metric(source: Any, dataset: Mapping[Any, ClaimSet],
                   results: Mapping[Any, FusionResult], which: int,
                   mode: str = "per-item") -> float:
    # a result may give probability to values no source provides; they
    # join the candidates, so each item's truth mass keeps them
    index = ClaimIndex({d: replace(cs, candidates=cs.candidates.union(results[d].probabilities))
                        for d, cs in dataset.items()})
    if source not in index.sources:
        raise ValueError(f"source {source!r} provides no item")
    probabilities = index.candidate_probabilities(results)
    value = source_metrics(index, probabilities, mode)[which][index.sources.index(source)]
    if math.isnan(value):
        raise ValueError(f"accuracy undefined for zero-precision source {source!r}")
    return value


def update_precision(source: Any, dataset: Mapping[Any, ClaimSet],
                     results: Mapping[Any, FusionResult]) -> float:
    """Average, over the items the source covers, of (item truth mass /
    number of provided values), capped at 1."""
    return _source_metric(source, dataset, results, 0)


def update_recall(source: Any, dataset: Mapping[Any, ClaimSet],
                  results: Mapping[Any, FusionResult]) -> float:
    """Average, over covered items, of (number of provided values / item
    truth mass), capped at 1.  Items with no truth mass count as recall 1:
    the source cannot miss truths that do not exist."""
    return _source_metric(source, dataset, results, 1)


def update_accuracy(source: Any, dataset: Mapping[Any, ClaimSet],
                    results: Mapping[Any, FusionResult],
                    mode: str = "per-item") -> float:
    """Average probability of the source's values, discounted by its
    precision so only values for real truth slots count.

    "per-item" divides by the item-level precision before averaging;
    "literal" divides the global value average by the global precision.
    """
    return _source_metric(source, dataset, results, 2, mode)


def is_good_source(quality: SourceQuality, n: int) -> bool:
    """A source is worth listening to when raising its accuracy raises the
    probability of its values, providing more values argues against
    stopping, and providing fewer argues for stopping."""
    a, r, q = quality.accuracy, quality.recall, quality.false_positive_rate
    if not a > 1.0 / (n + 1):
        return False
    if not q < (r - r * a) / (1.0 - r * a):
        return False
    if not r > q / (1.0 - a + a * q):
        return False
    return True


@dataclass(frozen=True)
class IterationConfig:
    init_quality: SourceQuality = SourceQuality(
        accuracy=0.8, recall=0.8, false_positive_rate=0.2, precision=0.8)
    max_iterations: int = 5
    accuracy_mode: str = "per-item"
    # Precision, recall, and the false-positive rate are estimated from an
    # item's probabilistic truth mass.  Backends that normalize each item's
    # probabilities to a single truth pin that mass to 1, so the estimates
    # carry no information; turn this off to keep the initial values and
    # re-estimate accuracy only.
    update_slot_metrics: bool = True

    def __post_init__(self):
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations,
                                                                   numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.accuracy_mode not in ("per-item", "literal"):
            raise ValueError(f"invalid accuracy_mode {self.accuracy_mode!r}")


@dataclass
class IterationRecord:
    iteration: int
    source: Any
    precision: float
    recall: float
    accuracy: float
    false_positive_rate: float
    good: bool


def _fuse_all(index: ClaimIndex, qualities: Mapping[Any, SourceQuality], prior: PriorConfig,
              fusion: FusionBackend, active: Optional[set]) -> FusionRound:
    """One fusion round of every item: the backend's dataset pass if it
    has one, otherwise its per-item calls on the index's `ClaimSet` views,
    whose probabilities are read back in the index's candidate order."""
    fuse_dataset = getattr(fusion, "fuse_dataset", None)
    if fuse_dataset is not None:
        return fuse_dataset(index, qualities, prior, active)
    results = {item: fusion(claims if active is None else claims.restrict(active),
                            qualities, prior)
               for item, claims in index.items()}
    return FusionRound(index.candidate_probabilities(results), lambda: results)


def iterate(dataset: Mapping[Any, ClaimSet], prior: PriorConfig,
            fusion: FusionBackend, config: IterationConfig = IterationConfig(),
            ) -> Tuple[RoundResults, Dict[Any, SourceQuality], List[IterationRecord]]:
    """Alternate fusing every item with the current qualities and
    re-estimating every source's quality from the fused probabilities.

    Sources failing the good-source test are excluded from the next
    fusion round (their values stay candidates) but are re-tested every
    iteration.  Stops at `max_iterations` or when no quality moves more
    than TOLERANCE.  With max_iterations=0 this is a single fusion
    pass at the initial qualities.  Both halves of the loop run on one
    `ClaimIndex` of the dataset: the dataset itself when it is one (as
    `group_columns`, `claims_by_item` and `io.load_claims` give it), else
    one laid out here.  A fusion round hands the quality update one array
    of candidate probabilities.  Each round clamps every quality once and
    fuses on the clamped copies; the qualities returned are unclamped.  A
    source whose accuracy is undefined in a round (see `source_metrics`)
    keeps its previous accuracy, with a warning.

    The results are the last round, as an `index.RoundResults`: a
    read-only mapping from item to `FusionResult` that reads like the dict
    of the round's `results()`.  It builds every result object on the
    first read of an item, in one call, and none before, and then keeps
    only them; until then `io.write_probabilities` writes it from the
    round's arrays without one.  A plain callable's round holds the
    results its calls made.
    """
    if not dataset:
        raise ValueError("empty dataset")
    index = dataset if isinstance(dataset, ClaimIndex) else ClaimIndex(dataset)
    sources = index.sources
    qualities: Dict[Any, SourceQuality] = {s: config.init_quality for s in sources}
    clamped = dict.fromkeys(sources, config.init_quality.clamped())
    records: List[IterationRecord] = []

    fused = _fuse_all(index, clamped, prior, fusion, None)
    for it in range(1, config.max_iterations + 1):
        new_qualities: Dict[Any, SourceQuality] = {}
        clamped = {}
        delta = 0.0
        good_sources = set()
        precisions, recalls, accuracies = source_metrics(index, fused.probabilities,
                                                         config.accuracy_mode)
        for s, p, r, a in zip(sources, precisions, recalls, accuracies):
            old = qualities[s]
            if math.isnan(a):
                log.warning("accuracy of source %r undefined at iteration %d; keeping %g",
                            s, it, old.accuracy)
                a = old.accuracy
            if config.update_slot_metrics:
                q = derive_q(max(p, 1e-12), r, prior.alpha)
            else:
                p, r, q = old.precision, old.recall, old.false_positive_rate
            nq = SourceQuality(accuracy=a, recall=r, false_positive_rate=q, precision=p)
            delta = max(delta, abs(p - old.precision), abs(r - old.recall),
                        abs(a - old.accuracy), abs(q - old.false_positive_rate))
            clamped[s] = nq.clamped()
            good = is_good_source(clamped[s], prior.n)
            records.append(IterationRecord(iteration=it, source=s, precision=p,
                                           recall=r, accuracy=a,
                                           false_positive_rate=q, good=good))
            if good:
                good_sources.add(s)
            new_qualities[s] = nq
        qualities = new_qualities
        del fused  # only the next round is needed from here
        if not good_sources:
            log.warning("no source passes the good-source test at iteration %d; "
                        "fusing with all sources", it)
        fused = _fuse_all(index, clamped, prior, fusion, good_sources or None)
        if delta < TOLERANCE:
            log.debug("quality iteration converged at step %d (delta %.2g)", it, delta)
            break
    return RoundResults(index, fused), qualities, records
