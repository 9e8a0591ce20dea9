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
from .model import Claim, GoldStandard, PriorConfig, claims_by_item
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
            slots = min(max(_round_half_up(self.truth_count_mean), self.truth_count_min), slots)
        covered = slots if self.source_recall > 0 else 0
        most = (covered if self.source_accuracy < 1 else 0) + _round_half_up(
            self.extra_ratio * covered)
        if self.false_domain_size < most:
            raise ValueError(f"false_domain_size must be >= {most}, the most distinct false "
                             f"values one source can give on one item, got "
                             f"{self.false_domain_size}")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def truth_count_distribution(config: SynthConfig) -> Dict[int, float]:
    """Discrete distribution induced by rounding and clipping the
    Gaussian truth count; feeds the fusion prior.  At standard deviation
    0 it is a point mass at the clipped, rounded mean, the count
    `generate` then draws for every item."""
    lo, hi = config.truth_count_min, config.truth_count_max
    if config.truth_count_std == 0:
        count = min(max(_round_half_up(config.truth_count_mean), lo), hi)
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


def generate(config: SynthConfig) -> Tuple[List[Claim], GoldStandard]:
    """Draw one synthetic dataset.  Fully deterministic given the seed.

    Per item: draw a truth count and truth set; each source covers every
    truth slot independently with the configured recall, fills a covered
    slot correctly with the configured accuracy (else with a random false
    value, distinct within that source's claims for the item), and adds
    round(extra_ratio * covered) distinct false values.
    """
    rng = np.random.default_rng(config.rng_seed)
    claims: List[Claim] = []
    gold: Dict[Any, set] = {}
    for idx in range(config.num_items):
        item = f"i{idx:04d}"
        k = min(max(_round_half_up(rng.normal(config.truth_count_mean,
                                              config.truth_count_std)),
                    config.truth_count_min), config.truth_count_max)
        truths = [f"{item}_t{j}" for j in range(k)]
        gold[item] = set(truths)
        for sdx in range(config.num_sources):
            source = f"s{sdx:02d}"
            covered = [t for t in truths if rng.random() < config.source_recall]
            used_false: set = set()
            values: List[str] = []
            for t in covered:
                if rng.random() < config.source_accuracy:
                    values.append(t)
                else:
                    values.append(_draw_false(rng, used_false, config.false_domain_size))
            n_extra = _round_half_up(config.extra_ratio * len(covered))
            for _ in range(n_extra):
                values.append(_draw_false(rng, used_false, config.false_domain_size))
            claims.extend(Claim(source, item, v) for v in values)
    return claims, GoldStandard(truths=gold)


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
    cfg = replace(config, rng_seed=config.rng_seed + rep)
    claims, gold = generate(cfg)
    dataset = claims_by_item(claims)
    prior = _default_prior(cfg)
    scores = {}
    for name in methods:
        results, _, _ = iterate(dataset, prior, fusion_backend(name),
                                method_iteration_config(name, IterationConfig()))
        predicted = {item: r.selected_truths for item, r in results.items()}
        scores[name] = evaluate(predicted, gold)
    return scores


def compare(methods: Sequence[str], config: SynthConfig,
            sweep: Optional[Mapping[str, Sequence[Any]]] = None, *,
            repetitions: int, threads: int = 1) -> List[ComparisonRow]:
    """Run every method over `repetitions` generated datasets (optionally
    at each point of a parameter sweep) and report mean metrics.

    Repetitions run with independent derived seeds, so results do not
    depend on the thread count.  One thread is the default: most of the
    time goes to Python code that holds the interpreter lock (generating
    the data, building each `ClaimIndex`) and to numpy calls on arrays
    too small to release it for long, so more threads only add switching.
    """
    if not methods:
        raise ValueError("need at least one method")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
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
