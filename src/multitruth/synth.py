"""Synthetic benchmark: data generation with known ground truth,
observation-level evaluation metrics, and the multi-method comparison
harness.
"""

from __future__ import annotations

import logging
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from statistics import NormalDist
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .methods import fusion_backend, method_iteration_config
from .index import group_columns
from .model import Claim, GoldStandard, PriorConfig
from .quality import IterationConfig, iterate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generative process.  Per-item truth counts follow a
    rounded, clipped Gaussian; all sources share the configured accuracy
    and recall; the extra ratio fixes how many spurious values a source
    adds on top of its covered truth slots."""

    num_sources: int = 10
    num_items: int = 100
    false_domain_size: int = 100
    truth_count_mean: float = 6.0
    truth_count_std: float = 1.0
    truth_count_min: int = 1
    truth_count_max: int = 10
    source_accuracy: float = 0.7
    source_recall: float = 0.7
    extra_ratio: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        # a field with an int default takes an integer, one with a float
        # default any real number; a bool is neither
        for f in fields(self):
            x = getattr(self, f.name)
            kind, what = ((numbers.Integral, "an integer") if isinstance(f.default, int)
                          else (numbers.Real, "a number"))
            if isinstance(x, bool) or not isinstance(x, kind):
                raise ValueError(f"{f.name} must be {what}, got {x!r}")
        for name in ("source_accuracy", "source_recall"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        for name in ("truth_count_mean", "truth_count_std", "extra_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("truth_count_std", "extra_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("num_sources", "num_items", "false_domain_size", "truth_count_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.truth_count_min > self.truth_count_max:
            raise ValueError("truth_count_min must be <= truth_count_max")
        # the most distinct false values `generate` can draw for one source
        # on one item: every truth slot covered and filled falsely, plus
        # the extras
        slots = self.truth_count_max
        if self.truth_count_std == 0:
            slots = _truth_count(self, self.truth_count_mean)
        covered = slots if self.source_recall > 0 else 0
        most = (covered if self.source_accuracy < 1 else 0) + _round_half_up(
            self.extra_ratio * covered)
        if self.false_domain_size < most:
            raise ValueError(f"false_domain_size must be >= {most}, the most distinct false "
                             f"values one source can give on one item, got "
                             f"{self.false_domain_size}")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _truth_count(config: SynthConfig, x: float) -> int:
    """`x` rounded half up and clipped to the configured truth counts."""
    return min(max(_round_half_up(x), config.truth_count_min), config.truth_count_max)


def truth_count_distribution(config: SynthConfig) -> Dict[int, float]:
    """Discrete distribution induced by rounding and clipping the
    Gaussian truth count; feeds the fusion prior.  At standard deviation
    0 it is a point mass at the clipped, rounded mean, the count
    `generate` then draws for every item."""
    lo, hi = config.truth_count_min, config.truth_count_max
    if config.truth_count_std == 0:
        count = _truth_count(config, config.truth_count_mean)
        return {k: float(k == count) for k in range(lo, hi + 1)}
    nd = NormalDist(config.truth_count_mean, config.truth_count_std)
    dist = {}
    for k in range(lo, hi + 1):
        left = -math.inf if k == lo else k - 0.5
        right = math.inf if k == hi else k + 0.5
        dist[k] = (1.0 if right == math.inf else nd.cdf(right)) - (
            0.0 if left == -math.inf else nd.cdf(left))
    total = sum(dist.values())
    return {k: p / total for k, p in dist.items()}


def _draw_false(rng, used: set, domain_size: int) -> str:
    if len(used) >= domain_size:
        raise ValueError("false domain too small for the requested distinct values")
    while True:
        j = int(rng.integers(domain_size))
        if j not in used:
            used.add(j)
            return f"f{j:03d}"


def _draw(config: SynthConfig) -> Tuple[Tuple[List[str], List[str], List[str]], GoldStandard]:
    """The claims `generate` draws, as (source, item, value) columns, and
    the gold standard.

    A source draws the cover of an item's `k` truth slots as one array of
    `k` doubles, the ones `k` scalar draws would give, since nothing else
    is drawn between them; the accuracy and false-value draws that follow
    interleave, and stay scalar."""
    rng = np.random.default_rng(config.rng_seed)
    recall, accuracy = config.source_recall, config.source_accuracy
    domain = config.false_domain_size
    names = [f"s{sdx:02d}" for sdx in range(config.num_sources)]
    sources: List[str] = []
    items: List[str] = []
    values: List[str] = []
    gold: Dict[Any, set] = {}
    for idx in range(config.num_items):
        item = f"i{idx:04d}"
        k = _truth_count(config, rng.normal(config.truth_count_mean, config.truth_count_std))
        truths = [f"{item}_t{j}" for j in range(k)]
        gold[item] = set(truths)
        first = len(values)
        for source in names:
            before = len(values)
            covered = [t for t, u in zip(truths, rng.random(k).tolist()) if u < recall]
            used_false: set = set()
            for t in covered:
                values.append(t if rng.random() < accuracy
                              else _draw_false(rng, used_false, domain))
            for _ in range(_round_half_up(config.extra_ratio * len(covered))):
                values.append(_draw_false(rng, used_false, domain))
            sources += [source] * (len(values) - before)
        items += [item] * (len(values) - first)
    return (sources, items, values), GoldStandard(truths=gold)


def generate(config: SynthConfig) -> Tuple[List[Claim], GoldStandard]:
    """Draw one synthetic dataset.  Fully deterministic given the seed.

    Per item: draw a truth count and truth set; each source covers every
    truth slot independently with the configured recall, fills a covered
    slot correctly with the configured accuracy (else with a random false
    value, distinct within that source's claims for the item), and adds
    round(extra_ratio * covered) distinct false values.
    """
    columns, gold = _draw(config)
    return list(map(Claim, *columns)), gold


def evaluate(predicted: Mapping[Any, Iterable[Any]],
             gold: GoldStandard) -> Tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 pooled over all (item, value)
    observations."""
    unknown = set(predicted) - set(gold.truths)
    if unknown:
        raise ValueError(f"predicted items missing from the gold standard: {sorted(unknown)[:5]}")
    tp = 0
    n_pred = 0
    n_gold = sum(len(vs) for vs in gold.truths.values())
    for item, values in predicted.items():
        values = set(values)
        n_pred += len(values)
        tp += len(values & gold.truths[item])
    if n_pred == 0:
        log.warning("empty prediction set; precision defined as 1")
        precision = 1.0
    else:
        precision = tp / n_pred
    recall = tp / n_gold if n_gold else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


@dataclass
class ComparisonRow:
    method: str
    grid_param: str
    grid_value: Any
    precision: float
    recall: float
    f1: float
    n_reps: int


def _default_prior(config: SynthConfig) -> PriorConfig:
    # fusion runs with the standard small false domain regardless of the
    # generator's domain size
    return PriorConfig(n=10, alpha=0.25,
                       truth_count_dist=truth_count_distribution(config))


def _run_rep(config: SynthConfig, methods: Sequence[str],
             rep: int) -> Dict[str, Tuple[float, float, float]]:
    """Every method's scores on the dataset of repetition `rep`.  Its
    columns (`_draw`) are grouped into one `ClaimIndex` (`group_columns`),
    which every method fuses, and each method is scored from its last
    round's selection (`RoundResults.selections`), so no `Claim` and no
    `FusionResult` is built."""
    cfg = replace(config, rng_seed=config.rng_seed + rep)
    columns, gold = _draw(cfg)
    dataset = group_columns(*columns)
    prior = _default_prior(cfg)
    scores = {}
    for name in methods:
        results, _, _ = iterate(dataset, prior, fusion_backend(name),
                                method_iteration_config(name, IterationConfig()))
        scores[name] = evaluate(results.selections(), gold)
    return scores


def compare(methods: Sequence[str], config: SynthConfig,
            sweep: Optional[Mapping[str, Sequence[Any]]] = None, *,
            repetitions: int, threads: int = 1) -> List[ComparisonRow]:
    """Run every method over `repetitions` generated datasets (optionally
    at each point of a parameter sweep) and report mean metrics.

    Repetitions run with independent derived seeds, so results do not
    depend on the thread count.  A repetition draws its claims as columns,
    groups them into one `ClaimIndex` that every method fuses, and scores
    each method from its round's selection (see `_run_rep`).  One thread
    is the default: most of the time goes to Python code that holds the
    interpreter lock (drawing the data, the fusion rounds' Python loops)
    and to numpy calls on arrays too small to release it for long, so more
    threads only add switching.  `repetitions` and `threads` are integers
    of at least 1.
    """
    if not methods:
        raise ValueError("need at least one method")
    for name, x in (("repetitions", repetitions), ("threads", threads)):
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {x!r}")
        if x < 1:
            raise ValueError(f"{name} must be >= 1, got {x}")
    for name in methods:
        fusion_backend(name)  # fail fast on unknown names
    points: List[Tuple[str, Any]] = [("", None)]
    if sweep:
        points = [(param, value) for param, values in sweep.items() for value in values]
    rows: List[ComparisonRow] = []
    for param, value in points:
        cfg = config if value is None else replace(config, **{param: value})
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(
                lambda r: _run_rep(cfg, methods, r), range(repetitions)))
        for name in methods:
            triples = [scores[name] for scores in per_rep]
            means = [sum(t[j] for t in triples) / len(triples) for j in range(3)]
            rows.append(ComparisonRow(method=name, grid_param=param,
                                      grid_value=value, precision=means[0],
                                      recall=means[1], f1=means[2], n_reps=repetitions))
    return rows
