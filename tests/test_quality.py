"""Source-quality re-estimation and the alternating fusion loop."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import multitruth

from multitruth import (
    ClaimSet,
    FusionResult,
    IterationConfig,
    PriorConfig,
    SourceQuality,
    is_good_source,
    iterate,
    update_accuracy,
    update_precision,
    update_recall,
)
from multitruth.index import ClaimIndex, claims_by_item
from multitruth.methods import fusion_backend
from multitruth.model import FusionDiagnostics, Claim
from multitruth.quality import source_metrics
from multitruth.synth import SynthConfig, generate, truth_count_distribution


def _result(item, probabilities):
    return FusionResult(item_id=item, probabilities=dict(probabilities),
                        selected_truths=[v for v, p in probabilities.items() if p > 0.5],
                        diagnostics=FusionDiagnostics(method="fixed"))


@pytest.fixture
def hard_truth_scenario():
    """Two items with fixed truth masses: the first needs three equipments
    (two candidates true, a third truth known but unprovided), the second
    exactly one.  s2 provides one true and one false value on the first
    item and the single truth on the second."""
    dataset = {
        "d1": ClaimSet.from_claims("d1", {
            "s1": {"helmet", "stick"},
            "s2": {"stick", "boots"},
            "s3": {"helmet", "skis"},
        }),
        "d2": ClaimSet.from_claims("d2", {
            "s1": {"neck guard"},
            "s2": {"board"},
            "s3": {"board"},
        }),
    }
    results = {
        "d1": _result("d1", {"helmet": 1.0, "stick": 1.0, "boots": 0.0,
                             "skis": 0.0, "pads": 1.0}),
        "d2": _result("d2", {"board": 1.0, "neck guard": 0.0}),
    }
    return dataset, results


class TestUpdates:
    def test_precision(self, hard_truth_scenario):
        dataset, results = hard_truth_scenario
        # d1: min(3/2, 1) = 1; d2: min(1/1, 1) = 1
        assert update_precision("s2", dataset, results) == pytest.approx(1.0)

    def test_recall(self, hard_truth_scenario):
        dataset, results = hard_truth_scenario
        # d1: min(2/3, 1); d2: min(1/1, 1)
        assert update_recall("s2", dataset, results) == pytest.approx((2 / 3 + 1) / 2)

    def test_accuracy_per_item(self, hard_truth_scenario):
        dataset, results = hard_truth_scenario
        # d1: avg value probability 0.5 over per-item precision 1 -> 0.5;
        # d2: 1/1 -> 1
        assert update_accuracy("s2", dataset, results) == pytest.approx(0.75)

    def test_accuracy_literal(self, hard_truth_scenario):
        dataset, results = hard_truth_scenario
        # global average (1+0+1)/3 over global precision 1
        assert update_accuracy("s2", dataset, results,
                               mode="literal") == pytest.approx(2 / 3)

    def test_unknown_mode(self, hard_truth_scenario):
        dataset, results = hard_truth_scenario
        with pytest.raises(ValueError, match="mode"):
            update_accuracy("s2", dataset, results, mode="bogus")

    def test_zero_mass_recall_defined(self):
        dataset = {"d": ClaimSet.from_claims("d", {"s": {"a"}})}
        results = {"d": _result("d", {"a": 0.0})}
        assert update_recall("s", dataset, results) == 1.0

    def test_source_without_items_rejected(self, hard_truth_scenario):
        dataset, results = hard_truth_scenario
        with pytest.raises(ValueError, match="no item"):
            update_precision("s9", dataset, results)


class TestGoodSource:
    def test_reasonable_source_is_good(self):
        q = SourceQuality(accuracy=0.8, recall=0.8, false_positive_rate=0.2,
                          precision=0.8)
        assert is_good_source(q, 10)

    def test_low_accuracy_is_bad(self):
        q = SourceQuality(accuracy=0.05, recall=0.8, false_positive_rate=0.2)
        assert not is_good_source(q, 10)

    def test_high_false_positive_rate_is_bad(self):
        q = SourceQuality(accuracy=0.8, recall=0.5, false_positive_rate=0.9)
        assert not is_good_source(q, 10)

    def test_low_recall_is_bad(self):
        q = SourceQuality(accuracy=0.5, recall=0.05, false_positive_rate=0.3)
        assert not is_good_source(q, 10)


@pytest.fixture
def small_dataset():
    claims = []
    # three reliable sources agreeing on two truths per item, one noisy
    # source adding junk
    for d in ("d1", "d2", "d3"):
        for s in ("s1", "s2", "s3"):
            claims.append(Claim(s, d, f"{d}-a"))
            claims.append(Claim(s, d, f"{d}-b"))
        claims.append(Claim("s4", d, f"{d}-junk"))
    return claims_by_item(claims)


class TestIterate:
    def _prior(self):
        return PriorConfig(n=10, alpha=0.25, truth_count_dist={1: 0.2, 2: 0.6, 3: 0.2})

    def test_finds_planted_truths(self, small_dataset):
        results, qualities, records = iterate(small_dataset, self._prior(),
                                              fusion_backend("hybrid"))
        for d in small_dataset:
            assert set(results[d].selected_truths) == {f"{d}-a", f"{d}-b"}
        assert qualities["s1"].accuracy > qualities["s4"].accuracy

    def test_zero_iterations_is_single_pass(self, small_dataset):
        cfg = IterationConfig(max_iterations=0)
        results, qualities, records = iterate(small_dataset, self._prior(),
                                              fusion_backend("hybrid"), cfg)
        assert records == []
        assert qualities["s1"] == cfg.init_quality

    def test_converges_and_stops_early(self, small_dataset):
        cfg = IterationConfig(max_iterations=50)
        _, _, records = iterate(small_dataset, self._prior(),
                                fusion_backend("hybrid"), cfg)
        assert max(r.iteration for r in records) < 50

    def test_slot_metric_freeze(self, small_dataset):
        cfg = IterationConfig(update_slot_metrics=False, max_iterations=2)
        _, qualities, records = iterate(small_dataset, self._prior(),
                                        fusion_backend("accu"), cfg)
        init = cfg.init_quality
        for q in qualities.values():
            assert q.precision == init.precision
            assert q.recall == init.recall
            assert q.false_positive_rate == init.false_positive_rate
        # accuracy still moves
        assert any(q.accuracy != init.accuracy for q in qualities.values())

    def test_bad_source_filtered_but_claims_remain(self, small_dataset):
        results, _, records = iterate(small_dataset, self._prior(),
                                      fusion_backend("hybrid"))
        last = max(r.iteration for r in records)
        flags = {r.source: r.good for r in records if r.iteration == last}
        assert flags["s1"] and not flags["s4"]
        # the junk value stays a candidate with a (low) probability
        assert f"d1-junk" in results["d1"].probabilities
        assert results["d1"].probabilities["d1-junk"] < 0.5

    def test_all_bad_falls_back_to_everyone(self, small_dataset, caplog):
        # an accuracy-only update cannot rescue sources whose frozen slot
        # metrics fail the good-source test
        bad = SourceQuality(accuracy=0.5, recall=0.05, false_positive_rate=0.9,
                            precision=0.5)
        cfg = IterationConfig(init_quality=bad, update_slot_metrics=False,
                              max_iterations=1)
        with caplog.at_level("WARNING"):
            results, _, _ = iterate(small_dataset, self._prior(),
                                    fusion_backend("accu"), cfg)
        assert "no source passes" in caplog.text
        assert len(results) == len(small_dataset)

    @pytest.mark.parametrize("num_sources", [100, 400])
    def test_many_sources_complete(self, num_sources, caplog):
        # precrec's odds overflow at 100 sources; at 400 its probabilities
        # for some items also underflow to 0, which leaves accuracy undefined
        # for the sources covering them: those keep their previous accuracy
        cfg = SynthConfig(num_sources=num_sources, num_items=20, rng_seed=1)
        dataset = claims_by_item(generate(cfg)[0])
        prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
        with caplog.at_level("WARNING"):
            results, qualities, _ = iterate(dataset, prior, fusion_backend("precrec"))
        assert len(results) == 20
        undefined = re.search(r"accuracy of source 's\d+' undefined at iteration \d", caplog.text)
        assert bool(undefined) == (num_sources == 400)
        assert all(0.0 <= q.accuracy <= 1.0 for q in qualities.values())
        assert all(0.0 <= p <= 1.0 for r in results.values() for p in r.probabilities.values())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iterate({}, self._prior(), fusion_backend("hybrid"))

    def test_invalid_accuracy_mode_rejected(self):
        with pytest.raises(ValueError, match="invalid accuracy_mode 'bogus'"):
            IterationConfig(accuracy_mode="bogus")


# The per-source scans the one-pass update replaced, kept as its reference.

def _scan(source, dataset, results, mode):
    items = [d for d, cs in dataset.items() if source in cs.per_source]
    mass = {d: sum(results[d].probabilities.values()) for d in items}
    size = {d: len(dataset[d].per_source[source]) for d in items}
    precision = sum(min(mass[d] / size[d], 1.0) for d in items) / len(items)
    recall = sum(1.0 if mass[d] <= 0 else min(size[d] / mass[d], 1.0)
                 for d in items) / len(items)
    if mode == "per-item":
        per_item = []
        for d in items:
            avg_p = sum(results[d].probabilities.get(v, 0.0)
                        for v in dataset[d].per_source[source]) / size[d]
            prec = min(mass[d] / size[d], 1.0)
            per_item.append(float("nan") if prec <= 0 else min(avg_p / prec, 1.0))
        accuracy = sum(per_item) / len(per_item)
    else:
        probs = [results[d].probabilities.get(v, 0.0)
                 for d in items for v in dataset[d].per_source[source]]
        accuracy = (float("nan") if precision <= 0
                    else min(sum(probs) / len(probs) / precision, 1.0))
    return precision, recall, accuracy


class TestSourceMetrics:
    def test_matches_per_source_scans(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            cfg = SynthConfig(num_items=int(rng.integers(3, 40)),
                              num_sources=int(rng.integers(1, 8)),
                              rng_seed=int(rng.integers(1 << 30)))
            dataset = claims_by_item(generate(cfg)[0])
            results = {}
            for d, cs in dataset.items():
                probs = {v: float(rng.uniform()) * (rng.random() > 0.2) for v in cs.candidates}
                if rng.random() < 0.05:
                    probs = dict.fromkeys(probs, 0.0)  # no truth mass
                results[d] = _result(d, probs)
            index = ClaimIndex(dataset)
            for mode in ("per-item", "literal"):
                got = source_metrics(index, index.candidate_probabilities(results), mode)
                for j, s in enumerate(index.sources):
                    want = _scan(s, dataset, results, mode)
                    for g, w in zip((got[0][j], got[1][j], got[2][j]), want):
                        assert g == pytest.approx(w, rel=1e-12, abs=1e-12, nan_ok=True)

    def test_zero_precision_accuracy_rejected(self):
        dataset = {"d": ClaimSet.from_claims("d", {"s": {"a"}})}
        results = {"d": _result("d", {"a": 0.0})}
        for mode in ("per-item", "literal"):
            with pytest.raises(ValueError, match="zero-precision"):
                update_accuracy("s", dataset, results, mode=mode)


HASH_SEED_SCRIPT = """
from multitruth import PriorConfig, claims_by_item, iterate
from multitruth.methods import fusion_backend
from multitruth.synth import SynthConfig, generate, truth_count_distribution

cfg = SynthConfig({config})
claims, _ = generate(cfg)
prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
results, qualities, _ = iterate(claims_by_item(claims), prior, fusion_backend({method!r}))
print(repr(results))
print(repr(qualities))
"""


def _iterate_under_hash_seeds(config, method):
    """The script's output under hash seeds 0 and 3."""
    src = str(Path(multitruth.__file__).resolve().parents[1])
    script = HASH_SEED_SCRIPT.format(config=config, method=method)
    outputs = []
    for hash_seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    return outputs


@pytest.mark.parametrize("method", ["hybrid", "accu", "majority", "precrec", "twostep"])
def test_iterate_independent_of_hash_seed(method):
    # set and frozenset iteration order follows the per-process hash seed;
    # a float sum taken in that order changes in the last digits, and a
    # dict built in that order changes its repr
    outputs = _iterate_under_hash_seeds("num_items=200, rng_seed=5", method)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("FusionResult(") == 200


def test_exact_iterate_independent_of_hash_seed():
    # items shaped like the exact engine's benchmark: at most 2 truths and
    # 4 false values, so at most 6 candidates
    outputs = _iterate_under_hash_seeds(
        "num_items=150, truth_count_max=2, false_domain_size=4, extra_ratio=0.6, "
        "source_accuracy=0.9, source_recall=0.9, rng_seed=1", "hybrid-exact")
    assert outputs[0] == outputs[1]
    assert outputs[0].count("FusionResult(") == 150


@pytest.mark.parametrize("method", ["hybrid", "hybrid-exact", "accu", "majority", "precrec",
                                    "twostep"])
def test_iterate_builds_each_result_once(monkeypatch, method):
    # a round hands the quality update an array; only the last round's
    # results become objects, which approx builds itself and every other
    # round through `index`, and only once an item is read
    builder = "multitruth.approx" if method == "hybrid" else "multitruth.index"
    built = []

    def counted(*args, **kwargs):
        built.append(kwargs["item_id"])
        return FusionResult(*args, **kwargs)

    monkeypatch.setattr(f"{builder}.FusionResult", counted)
    cfg = SynthConfig(num_items=40, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                      rng_seed=3)
    dataset = claims_by_item(generate(cfg)[0])
    prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
    results, _, records = iterate(dataset, prior, fusion_backend(method))
    assert max(r.iteration for r in records) > 1
    assert built == []
    item_ids = sorted(r.item_id for r in results.values())
    assert sorted(built) == item_ids
    assert len(built) == len(dataset)
