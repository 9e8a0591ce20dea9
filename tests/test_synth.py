"""Synthetic benchmark: generator determinism and statistics, metrics
oracle, and the comparison harness."""

import math
from dataclasses import replace
from statistics import NormalDist
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from multitruth import (
    Claim,
    GoldStandard,
    IterationConfig,
    PriorConfig,
    SynthConfig,
    claims_by_item,
    compare,
    evaluate,
    generate,
    iterate,
    synth,
    truth_count_distribution,
)
from multitruth.cli import _SWEEPS
from multitruth.methods import fusion_backend, method_iteration_config
from multitruth.synth import _default_prior, _draw_false, _round_half_up, _truth_count

from test_index import BENCH_SETTINGS

# the methods the benchmark's `compare` workload runs
BENCH_METHODS = ["hybrid", "precrec", "twostep", "accu", "majority"]


def reference_generate(config: SynthConfig) -> Tuple[List[Claim], GoldStandard]:
    """`generate` one scalar draw at a time, one `Claim` per value: the
    reference the column generator is checked against."""
    rng = np.random.default_rng(config.rng_seed)
    claims: List[Claim] = []
    gold: Dict[Any, set] = {}
    for idx in range(config.num_items):
        item = f"i{idx:04d}"
        k = _truth_count(config, rng.normal(config.truth_count_mean, config.truth_count_std))
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


def reference_run_rep(config: SynthConfig, methods, rep: int):
    """`synth._run_rep` on claim rows and result objects: the reference
    draws `Claim`s, groups them with `claims_by_item` and scores each
    method from its `FusionResult`s."""
    cfg = replace(config, rng_seed=config.rng_seed + rep)
    claims, gold = reference_generate(cfg)
    dataset = claims_by_item(claims)
    prior = _default_prior(cfg)
    scores = {}
    for name in methods:
        results, _, _ = iterate(dataset, prior, fusion_backend(name),
                                method_iteration_config(name, IterationConfig()))
        scores[name] = evaluate({item: r.selected_truths for item, r in results.items()}, gold)
    return scores


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(source_accuracy=1.5)
        with pytest.raises(ValueError):
            SynthConfig(extra_ratio=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(false_domain_size=0)

    @pytest.mark.parametrize("field, value", [
        ("num_items", None), ("num_sources", 2.5), ("false_domain_size", "10"),
        ("truth_count_min", True), ("truth_count_max", 10.0), ("rng_seed", None),
        ("truth_count_mean", None), ("truth_count_std", "1"), ("source_accuracy", [0.5]),
        ("source_recall", False), ("extra_ratio", {}),
    ])
    def test_field_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"truth_count_mean": math.nan}, "truth_count_mean must be finite"),
        ({"truth_count_mean": math.inf}, "truth_count_mean must be finite"),
        ({"truth_count_std": -math.inf}, "truth_count_std must be finite"),
        ({"extra_ratio": math.nan}, "extra_ratio must be finite"),
        ({"truth_count_std": -1.0}, "truth_count_std must be >= 0"),
        ({"num_sources": 0}, "num_sources must be >= 1"),
        ({"num_items": -3}, "num_items must be >= 1"),
        ({"truth_count_min": 0}, "truth_count_min must be >= 1"),
        ({"truth_count_min": 5, "truth_count_max": 2},
         "truth_count_min must be <= truth_count_max"),
        ({"false_domain_size": 11}, "false_domain_size must be >= 12"),
    ])
    def test_ranges(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**fields)

    def test_smallest_valid_ranges(self):
        cfg = SynthConfig(num_sources=1, num_items=1, truth_count_min=2, truth_count_max=2)
        claims, gold = generate(cfg)
        assert [len(vs) for vs in gold.truths.values()] == [2]
        assert {c.source_id for c in claims} <= {"s00"}

    def test_false_domain_holds_one_source_on_one_item(self):
        # 3 truth slots, all covered and filled falsely, plus round(1.5)
        # extras: 5 distinct false values
        fields = dict(num_items=5, truth_count_mean=3, truth_count_std=0.0, truth_count_max=3,
                      source_accuracy=0.0, source_recall=1.0, extra_ratio=0.5)
        with pytest.raises(ValueError, match=r"^false_domain_size must be >= 5, .*got 4$"):
            SynthConfig(**fields, false_domain_size=4)
        claims, _ = generate(SynthConfig(**fields, false_domain_size=5))
        assert len({c.value for c in claims if c.value.startswith("f")}) == 5
        # no false value is drawn without a wrong fill or an extra
        generate(SynthConfig(num_items=5, source_accuracy=1.0, extra_ratio=0.0,
                             false_domain_size=1))
        generate(SynthConfig(num_items=5, source_recall=0.0, false_domain_size=1))

    def test_integers_in_float_fields(self):
        # the canned sweeps pass truth_count_mean 2, 4, ...
        cfg = SynthConfig(num_items=3, truth_count_mean=2, source_accuracy=1, extra_ratio=0)
        assert len(generate(cfg)[1].truths) == 3


class TestRounding:
    def test_half_up(self):
        assert _round_half_up(2.5) == 3
        assert _round_half_up(2.4) == 2
        assert _round_half_up(-0.5) == 0


class TestTruthCountDistribution:
    def test_matches_gaussian_oracle(self):
        cfg = SynthConfig(truth_count_mean=6.0, truth_count_std=1.0)
        dist = truth_count_distribution(cfg)
        nd = NormalDist(6.0, 1.0)
        assert sum(dist.values()) == pytest.approx(1.0)
        # interior point: the probability of rounding to 6
        assert dist[6] == pytest.approx(nd.cdf(6.5) - nd.cdf(5.5), rel=1e-9)
        # endpoint folds the whole upper tail
        assert dist[10] == pytest.approx(1.0 - nd.cdf(9.5), rel=1e-9)

    def test_feeds_prior(self):
        dist = truth_count_distribution(SynthConfig())
        PriorConfig(n=10, alpha=0.25, truth_count_dist=dist)  # must validate

    @pytest.mark.parametrize("mean", [0.2, 2.5, 4.49, 6.0, 14.0])
    def test_point_mass_at_zero_std(self, mean):
        # the normal CDF is undefined at sigma 0; generate then gives every
        # item the clipped, rounded mean
        cfg = SynthConfig(num_items=20, truth_count_mean=mean, truth_count_std=0.0)
        dist = truth_count_distribution(cfg)
        counts = {len(truths) for truths in generate(cfg)[1].truths.values()}
        assert len(counts) == 1
        assert dist == {k: float(k in counts) for k in range(1, 11)}
        PriorConfig(n=10, alpha=0.25, truth_count_dist=dist)  # must validate


class TestGenerate:
    def test_deterministic(self):
        c1, g1 = generate(SynthConfig(rng_seed=5))
        c2, g2 = generate(SynthConfig(rng_seed=5))
        assert c1 == c2
        assert g1.truths == g2.truths

    def test_seed_changes_data(self):
        c1, _ = generate(SynthConfig(rng_seed=5))
        c2, _ = generate(SynthConfig(rng_seed=6))
        assert c1 != c2

    def test_shape_and_namespaces(self):
        cfg = SynthConfig(num_sources=4, num_items=20, rng_seed=1)
        claims, gold = generate(cfg)
        assert len(gold.truths) == 20
        for item, truths in gold.truths.items():
            assert 1 <= len(truths) <= 10
            assert all(t.startswith(item) for t in truths)
        sources = {c.source_id for c in claims}
        assert sources <= {f"s{j:02d}" for j in range(4)}
        # false values live in a distinct namespace
        for c in claims:
            assert c.value.startswith(("i", "f"))

    def test_expected_volume(self):
        cfg = SynthConfig(rng_seed=2)
        claims, gold = generate(cfg)
        n_truth_slots = sum(len(v) for v in gold.truths.values())
        # each source covers a slot w.p. 0.7 and adds ~20% extras
        expected = cfg.num_sources * n_truth_slots * 0.7 * 1.2
        assert abs(len(claims) - expected) / expected < 0.1

    def test_full_accuracy_and_recall(self):
        cfg = SynthConfig(source_accuracy=1.0, source_recall=1.0, extra_ratio=0.0,
                          num_items=10, rng_seed=3)
        claims, gold = generate(cfg)
        by_item_source = {}
        for c in claims:
            by_item_source.setdefault((c.item_id, c.source_id), set()).add(c.value)
        for (item, _), values in by_item_source.items():
            assert values == gold.truths[item]


# the generator settings `generate` must draw as the reference does: the
# benchmark's, the ends of every canned sweep, and the edges of the ranges
SAME_DRAWS = (
    [dict(fields, rng_seed=seed) for fields in BENCH_SETTINGS.values() for seed in (1, 7)]
    + [{param: values[j]} for grid in _SWEEPS.values() for param, values in grid.items()
       for j in (0, -1)]
    + [dict(source_recall=0.0), dict(source_recall=1.0), dict(source_accuracy=0.0),
       dict(source_accuracy=1.0), dict(truth_count_std=0.0), dict(extra_ratio=0.0),
       dict(false_domain_size=12), dict(false_domain_size=12, source_accuracy=0.0),
       dict(truth_count_mean=3, truth_count_std=0.0, truth_count_max=3, source_accuracy=0.0,
            source_recall=1.0, extra_ratio=0.5, false_domain_size=5)])


@pytest.mark.parametrize("fields", SAME_DRAWS)
def test_generate_draws_as_the_scalar_reference(fields):
    cfg = SynthConfig(**fields)
    claims, gold = generate(cfg)
    want_claims, want_gold = reference_generate(cfg)
    assert all(type(c) is Claim for c in claims)
    assert claims == want_claims
    assert gold.truths == want_gold.truths
    assert list(gold.truths) == list(want_gold.truths)


class TestEvaluate:
    def test_hand_computed_metrics(self):
        gold = GoldStandard(truths={"d1": {"a", "b"}, "d2": {"c"}})
        predicted = {"d1": {"a", "x"}, "d2": {"c"}}
        p, r, f1 = evaluate(predicted, gold)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_predictions(self, caplog):
        gold = GoldStandard(truths={"d1": {"a"}})
        with caplog.at_level("WARNING"):
            p, r, f1 = evaluate({}, gold)
        assert (p, r, f1) == (1.0, 0.0, 0.0)

    def test_unknown_item_rejected(self):
        gold = GoldStandard(truths={"d1": {"a"}})
        with pytest.raises(ValueError, match="missing from the gold"):
            evaluate({"d9": {"a"}}, gold)


class TestCompare:
    def test_rows_and_ordering(self):
        cfg = SynthConfig(num_items=15, rng_seed=0)
        rows = compare(["hybrid", "accu"], cfg, repetitions=2, threads=2)
        assert [r.method for r in rows] == ["hybrid", "accu"]
        for row in rows:
            assert row.n_reps == 2
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.f1 <= 1.0

    def test_sweep_grid(self):
        cfg = SynthConfig(num_items=10, rng_seed=0)
        rows = compare(["majority"], cfg, sweep={"source_recall": [0.5, 0.9]},
                       repetitions=1)
        assert [(r.grid_param, r.grid_value) for r in rows] == [
            ("source_recall", 0.5), ("source_recall", 0.9)]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            compare(["bogus"], SynthConfig(), repetitions=1)
        with pytest.raises(ValueError, match="at least one"):
            compare([], SynthConfig(), repetitions=1)

    def test_single_truth_methods_freeze_slot_metrics(self):
        base = IterationConfig()
        assert not method_iteration_config("accu", base).update_slot_metrics
        assert not method_iteration_config("majority", base).update_slot_metrics
        assert not method_iteration_config("twostep", base).update_slot_metrics
        assert method_iteration_config("hybrid", base).update_slot_metrics
        assert method_iteration_config("precrec", base).update_slot_metrics

    @pytest.mark.parametrize("field, value", [
        ("threads", 0), ("threads", -2), ("threads", True), ("threads", 1.5),
        ("repetitions", 0), ("repetitions", False), ("repetitions", 2.0),
    ])
    def test_counts_must_be_integers_of_at_least_one(self, field, value):
        kwargs = {"repetitions": 1, "threads": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            compare(["majority"], SynthConfig(num_items=2), **kwargs)

    def test_builds_no_result_object(self, built):
        rows = compare(BENCH_METHODS, SynthConfig(**BENCH_SETTINGS["compare_methods"],
                                                  rng_seed=1), repetitions=6, threads=2)
        assert len(rows) == 5 and built == []

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("methods, sweep, reps", [
        (BENCH_METHODS, None, 6),
        (["hybrid", "accu", "precrec", "twostep"], _SWEEPS["accuracy"], 2),
    ], ids=["bench", "sweep-accuracy"])
    def test_rows_equal_the_reference(self, monkeypatch, threads, methods, sweep, reps):
        cfg = SynthConfig(**BENCH_SETTINGS["compare_methods"], rng_seed=1)
        rows = compare(methods, cfg, sweep, repetitions=reps, threads=threads)
        monkeypatch.setattr(synth, "_run_rep", reference_run_rep)
        assert rows == compare(methods, cfg, sweep, repetitions=reps, threads=threads)
