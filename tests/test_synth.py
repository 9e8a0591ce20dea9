"""Synthetic benchmark: generator determinism and statistics, metrics
oracle, and the comparison harness."""

import math
from statistics import NormalDist

import pytest

from multitruth import (
    GoldStandard,
    IterationConfig,
    PriorConfig,
    SynthConfig,
    compare,
    evaluate,
    generate,
    truth_count_distribution,
)
from multitruth.methods import method_iteration_config
from multitruth.synth import _round_half_up


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
