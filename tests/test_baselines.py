"""Comparison methods: majority vote, accuracy-weighted single truth,
independent per-value odds, and count-then-pick."""

import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import multitruth
from multitruth import (
    ClaimSet,
    IterationConfig,
    PriorConfig,
    SourceQuality,
    UnknownSourceError,
    accu_fuse,
    conditional_prob,
    fixture_from_qualities,
    iterate,
    majority_vote,
    precrec_fuse,
    twostep_fuse,
)
from multitruth import baselines
from multitruth.index import ClaimIndex
from multitruth.methods import FUSION_BACKENDS, fusion_backend, method_iteration_config
from multitruth.model import claims_by_item
from multitruth.synth import SynthConfig, generate, truth_count_distribution

from conftest import random_instance

Q6 = SourceQuality(accuracy=0.6, recall=0.5, false_positive_rate=0.1, precision=0.6)


class TestMajority:
    def test_winner_by_provider_count(self, hockey_claims):
        r = majority_vote(hockey_claims)
        # helmet and stick tie at 2 providers; lexicographic winner
        assert r.selected_truths == ["helmet"]
        assert r.probabilities["helmet"] == 1.0
        assert r.probabilities["boots"] == 0.5
        assert any("tie" in n for n in r.diagnostics.notes)

    def test_clear_winner(self):
        cs = ClaimSet.from_claims("d", {"s1": ["a"], "s2": ["a"], "s3": ["b"]})
        assert majority_vote(cs).selected_truths == ["a"]

    def test_empty_rejected(self):
        # ClaimSet refuses the item, so majority_vote never sees it
        with pytest.raises(ValueError):
            cs = ClaimSet(item_id="d", per_source={}, candidates=frozenset())
            majority_vote(cs)


class TestAccu:
    def test_running_example(self, hockey_claims):
        q = {s: SourceQuality(accuracy=0.6, recall=0.5, false_positive_rate=0.1)
             for s in hockey_claims.per_source}
        r = accu_fuse(hockey_claims, q, n=10)
        assert r.probabilities["helmet"] == pytest.approx(0.47, abs=0.005)
        assert r.probabilities["stick"] == pytest.approx(0.47, abs=0.005)
        assert r.probabilities["boots"] == pytest.approx(0.03, abs=0.005)
        assert r.probabilities["skis"] == pytest.approx(0.03, abs=0.005)
        assert sum(r.probabilities.values()) == pytest.approx(1.0)
        assert r.selected_truths == ["helmet"]

    def test_higher_accuracy_wins(self):
        cs = ClaimSet.from_claims("d", {"s1": ["a"], "s2": ["b"]})
        q = {"s1": SourceQuality(accuracy=0.9, recall=0.5, false_positive_rate=0.1),
             "s2": SourceQuality(accuracy=0.6, recall=0.5, false_positive_rate=0.1)}
        assert accu_fuse(cs, q, n=10).selected_truths == ["a"]

    def test_extreme_accuracy_clamped(self):
        cs = ClaimSet.from_claims("d", {"s1": ["a"]})
        q = {"s1": SourceQuality(accuracy=1.0, recall=0.5, false_positive_rate=0.1)}
        r = accu_fuse(cs, q, n=10)
        assert r.probabilities["a"] == pytest.approx(1.0)


class TestPrecRec:
    def _prior(self):
        return PriorConfig(n=10, alpha=0.25)

    def test_per_value_independence(self, hockey_claims):
        """The decision on one value ignores who provides the others."""
        q = {s: Q6 for s in hockey_claims.per_source}
        full = precrec_fuse(hockey_claims, q, self._prior())
        reduced = ClaimSet.from_claims("d", {
            "s1": {"helmet", "x1"}, "s2": {"x2", "x3"}, "s3": {"helmet", "x4"}})
        again = precrec_fuse(reduced, q, self._prior())
        assert again.probabilities["helmet"] == pytest.approx(
            full.probabilities["helmet"])

    def test_providers_raise_probability(self, hockey_claims):
        q = {s: Q6 for s in hockey_claims.per_source}
        r = precrec_fuse(hockey_claims, q, self._prior())
        assert r.probabilities["helmet"] > r.probabilities["boots"]

    def test_selection_threshold(self):
        cs = ClaimSet.from_claims("d", {"s1": ["a"], "s2": ["a"], "s3": ["a"]})
        q = {s: Q6 for s in cs.per_source}
        r = precrec_fuse(cs, q, self._prior())
        assert r.probabilities["a"] > 0.5
        assert r.selected_truths == ["a"]

    def test_probabilities_in_unit_interval(self, hockey_claims):
        q = {s: Q6 for s in hockey_claims.per_source}
        r = precrec_fuse(hockey_claims, q, self._prior())
        assert all(0.0 < p < 1.0 for p in r.probabilities.values())

    def test_many_agreeing_sources_stay_finite(self):
        # 400 odds factors of R/Q = 9 overflow the float range
        cs = ClaimSet.from_claims("d", {f"s{j:03d}": ["a"] for j in range(400)})
        q = SourceQuality(accuracy=0.9, recall=0.9, false_positive_rate=0.1, precision=0.9)
        r = precrec_fuse(cs, dict.fromkeys(cs.per_source, q), self._prior())
        assert r.probabilities == {"a": 1.0}
        assert r.selected_truths == ["a"]


class TestTwoStep:
    def _prior(self):
        return PriorConfig(n=10, alpha=0.25)

    def test_selects_k_top_values(self, hockey_claims):
        q = {s: SourceQuality(accuracy=0.7, recall=0.7, false_positive_rate=0.1)
             for s in hockey_claims.per_source}
        r = twostep_fuse(hockey_claims, q, self._prior())
        # every source provides 2 values, so k=2; the two double-provided
        # values rank highest
        assert r.selected_truths == ["helmet", "stick"]

    def test_smallest_k_on_tie(self):
        cs = ClaimSet.from_claims("d", {"s1": ["a"], "s2": ["a", "b"]})
        q = {s: SourceQuality(accuracy=0.7, recall=0.7, false_positive_rate=0.1)
             for s in cs.per_source}
        r = twostep_fuse(cs, q, self._prior())
        assert len(r.selected_truths) == 1
        assert any("tie" in n for n in r.diagnostics.notes)

    def test_unanimous_cardinality(self):
        cs = ClaimSet.from_claims("d", {"s1": ["a", "b", "c"], "s2": ["a", "b", "d"]})
        q = {s: SourceQuality(accuracy=0.7, recall=0.7, false_positive_rate=0.1)
             for s in cs.per_source}
        r = twostep_fuse(cs, q, self._prior())
        assert len(r.selected_truths) == 3
        assert set(r.selected_truths) >= {"a", "b"}

    def test_count_tie_does_not_depend_on_source_order(self):
        # both counts are backed by accuracies 0.3, 0.3 and 0.9 in another
        # source order; a product taken in source order missed the tie
        accuracies = {"s0": 0.3, "s1": 0.9, "s2": 0.3, "s3": 0.3, "s4": 0.3, "s5": 0.9}
        cs = ClaimSet.from_claims("d", {s: ["a"] if s < "s3" else ["a", "b"]
                                        for s in accuracies})
        q = {s: SourceQuality(accuracy=a, recall=0.7, false_positive_rate=0.1)
             for s, a in accuracies.items()}
        r = twostep_fuse(cs, q, self._prior())
        assert r.selected_truths == ["a"]
        assert r.diagnostics.notes == ["truth-count tie among [1, 2]; selected smallest k=1"]

    def test_count_vote_of_many_sources(self):
        # a linear count vote, 9 per source, overflowed and raised IndexError
        q = SourceQuality(accuracy=0.9, recall=0.9, false_positive_rate=0.1, precision=0.9)
        for psi, selected in (({f"s{j:03d}": ["a"] for j in range(400)}, ["a"]),
                              ({f"s{j:03d}": [f"v{j:03d}"] for j in range(600)}, ["v000"])):
            cs = ClaimSet.from_claims("d", psi)
            r = twostep_fuse(cs, dict.fromkeys(psi, q), self._prior())
            assert r.selected_truths == selected


def _no_source_dataset(lone_source):
    """20 items that two agreeing sources and a scattering third one
    provide, plus one item that `lone_source` alone provides."""
    psi = {f"d{i:02d}": {"s1": ["a"], "s2": ["a"], "s3": [f"x{i}", f"y{i}", f"z{i}"]}
           for i in range(20)}
    psi["lone"] = {lone_source: ["vb", "va"]}
    return {d: ClaimSet.from_claims(d, p) for d, p in psi.items()}


class TestNoActiveSource:
    """An item whose only sources are all filtered out keeps its
    candidates: every candidate ties and the first in token order is
    selected."""

    def test_single_truth_methods_tie_every_candidate(self):
        cs = ClaimSet.from_claims("d", {"s1": ["b", "a"], "s2": ["c"]}).restrict(set())
        q = {s: Q6 for s in ("s1", "s2")}
        prior = PriorConfig()
        majority = majority_vote(cs)
        assert majority.probabilities == {"a": 1.0, "b": 1.0, "c": 1.0}
        for r in (majority, accu_fuse(cs, q, prior.n), twostep_fuse(cs, q, prior)):
            assert r.selected_truths == ["a"]
        for r in (majority, twostep_fuse(cs, q, prior)):
            assert any("no active source" in n for n in r.diagnostics.notes)

    @pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
    @pytest.mark.parametrize("lone_source", ["s1", "s3"])
    @pytest.mark.parametrize("max_iterations", [3, 5])
    def test_iterate_fuses_every_item(self, method, lone_source, max_iterations):
        # s1 alone on `lone` broke majority (division by zero) and s3
        # alone broke twostep (max of no cardinality), once the good-source
        # test had filtered that source out
        dataset = _no_source_dataset(lone_source)
        results, _, _ = iterate(dataset, PriorConfig(), fusion_backend(method),
                                IterationConfig(max_iterations=max_iterations))
        assert set(results) == set(dataset)
        for item, r in results.items():
            assert set(r.probabilities) == dataset[item].candidates
            assert all(0.0 <= p <= 1.0 for p in r.probabilities.values())
            assert set(r.selected_truths) <= dataset[item].candidates
        if (method, lone_source) in (("majority", "s1"), ("twostep", "s3")):
            lone = results["lone"]
            assert lone.selected_truths == ["va"]
            assert any("no active source" in n for n in lone.diagnostics.notes)


_QUALITY_READERS = {
    **{name: FUSION_BACKENDS[name] for name in sorted(FUSION_BACKENDS) if name != "majority"},
    "fixture_from_qualities": fixture_from_qualities,
    "conditional_prob": lambda claims, qualities, prior:
        conditional_prob(claims, qualities, prior, [], "a"),
}


@pytest.mark.parametrize("engine", sorted(_QUALITY_READERS))
def test_source_without_quality_is_a_typed_error(engine):
    cs = ClaimSet.from_claims("d", {"s1": ["a"]})
    with pytest.raises(UnknownSourceError, match="'s1'"):
        _QUALITY_READERS[engine](cs, {}, PriorConfig())


# The per-(value, source) loops the baselines ran on an inverse index
# value -> providers, kept as the reference for the per-source rewrite.
# The index held frozensets, whose order follows the hash seed; here each
# value's providers come in the item's source order, and the precrec
# reference multiplies in sorted source order, as `precrec_fuse` does.
_CLAMP = 1e-6


def _providers(claims):
    return {v: [s for s, vs in claims.per_source.items() if v in vs]
            for v in claims.candidates}


def reference_majority(claims):
    providers = _providers(claims)
    counts = {v: len(providers[v]) for v in claims.candidates}
    top = max(counts.values())
    winners = sorted((v for v, c in counts.items() if c == top), key=str)
    notes = []
    if len(winners) > 1:
        notes.append(f"tie among {winners}; selected {winners[0]!r} lexicographically")
    return {v: c / top for v, c in counts.items()}, [winners[0]], notes


def reference_accuracy_votes(claims, qualities, n):
    providers = _providers(claims)
    votes = {}
    for v in claims.candidates:
        total = 1.0
        for s in providers.get(v, ()):
            a = min(max(qualities[s].accuracy, _CLAMP), 1.0 - _CLAMP)
            total *= n * a / (1.0 - a)
        votes[v] = total
    return votes


def reference_truth_counts(claims, qualities):
    """The counts whose exact product of n*A/(1-A) over the sources giving
    that many values is highest (n the largest count)."""
    n = max(len(vs) for vs in claims.per_source.values())
    votes = {}
    for s, values in claims.per_source.items():
        a = min(max(qualities[s].accuracy, _CLAMP), 1.0 - _CLAMP)
        votes[len(values)] = votes.get(len(values), 1) * Fraction(n * a / (1.0 - a))
    top = max(votes.values())
    return sorted(c for c, vote in votes.items() if vote == top)


def reference_precrec(claims, qualities, prior):
    providers = _providers(claims)
    alpha = prior.alpha
    probabilities = {}
    for v in claims.candidates:
        odds = alpha / (1.0 - alpha)
        for s in sorted(claims.per_source, key=str):
            q = qualities[s]
            r = min(max(q.recall, _CLAMP), 1.0 - _CLAMP)
            fp = min(max(q.false_positive_rate, _CLAMP), 1.0 - _CLAMP)
            if s in providers[v]:
                odds *= r / fp
            else:
                odds *= (1.0 - r) / (1.0 - fp)
        probabilities[v] = odds / (1.0 + odds)
    selected = sorted((v for v, p in probabilities.items() if p > 0.5),
                      key=lambda v: (-probabilities[v], str(v)))
    return probabilities, selected


def _differential_cases(count=400, seed=11):
    """Random items with their sources in shuffled order, some restricted
    to a subset of their sources, with some quality fields pushed to 0 or
    1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        claims, qualities, prior = random_instance(rng, max_values=8, max_sources=6)
        sources = list(claims.per_source.items())
        rng.shuffle(sources)
        claims = ClaimSet.from_claims(claims.item_id, dict(sources))
        for s in qualities:
            for field in ("accuracy", "recall", "false_positive_rate"):
                if rng.random() < 0.15:
                    qualities[s] = replace(qualities[s], **{field: float(rng.integers(2))})
        if rng.random() < 0.4:
            claims = claims.restrict({s for s in claims.per_source if rng.random() < 0.6})
        yield claims, qualities, prior


def test_majority_and_precrec_match_reference():
    for claims, qualities, prior in _differential_cases():
        r = precrec_fuse(claims, qualities, prior)
        assert (r.probabilities, r.selected_truths) == reference_precrec(claims, qualities, prior)
        assert list(r.probabilities) == sorted(claims.candidates, key=str)
        if claims.per_source:
            r = majority_vote(claims)
            assert (r.probabilities, r.selected_truths, r.diagnostics.notes) == \
                reference_majority(claims)


def test_accu_and_twostep_match_reference(monkeypatch):
    cases = list(_differential_cases())
    fused = []
    for votes in (baselines._accuracy_votes, reference_accuracy_votes):
        monkeypatch.setattr(baselines, "_accuracy_votes", votes)
        fused.append([(accu_fuse(claims, qualities, prior.n), twostep_fuse(claims, qualities, prior))
                      for claims, qualities, prior in cases])
    for new_pair, ref_pair in zip(*fused):
        for new, ref in zip(new_pair, ref_pair):
            assert new.probabilities.keys() == ref.probabilities.keys()
            for v, p in new.probabilities.items():
                assert math.isclose(p, ref.probabilities[v], rel_tol=1e-12, abs_tol=1e-12)
            assert new.selected_truths == ref.selected_truths
            assert new.diagnostics.notes == ref.diagnostics.notes


def test_twostep_truth_count_matches_reference():
    for claims, qualities, prior in _differential_cases():
        if not claims.per_source:
            continue
        tied = reference_truth_counts(claims, qualities)
        r = twostep_fuse(claims, qualities, prior)
        assert len(r.selected_truths) == min(tied[0], len(claims.candidates))
        assert any("truth-count tie" in n for n in r.diagnostics.notes) == (len(tied) > 1)


MANY_SOURCES_SCRIPT = """
import json
from multitruth import ClaimSet, PriorConfig, SourceQuality, accu_fuse, twostep_fuse

q = SourceQuality(accuracy=0.9, recall=0.9, false_positive_rate=0.1)
prior = PriorConfig()
for agreeing in (200, 1000):
    psi = {f"s{i:04d}": ["a"] for i in range(agreeing)}
    psi["dissent"] = ["b"]
    claims = ClaimSet.from_claims("d", psi)
    qualities = dict.fromkeys(psi, q)
    for r in (accu_fuse(claims, qualities, prior.n), twostep_fuse(claims, qualities, prior)):
        print(json.dumps([agreeing, r.diagnostics.method, r.probabilities, r.selected_truths]))
"""


def test_accu_and_twostep_finite_with_many_sources():
    # linear-domain vote products overflowed past about 160 agreeing
    # sources: 'a' got a NaN, and the selection followed the hash seed
    src = str(Path(multitruth.__file__).resolve().parents[1])
    for hash_seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", MANY_SOURCES_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        lines = done.stdout.splitlines()
        assert len(lines) == 4
        for line in lines:
            _, _, probabilities, selected = json.loads(line)
            assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probabilities.values())
            assert probabilities["a"] == 1.0, line
            assert selected == ["a"], line


# ---- dataset rounds ---------------------------------------------------

BASELINES = ("accu", "majority", "precrec", "twostep")


def _per_item(backend):
    """`backend` as a plain callable, which `iterate` calls item by item."""
    return lambda claims, qualities, prior: backend(claims, qualities, prior)


def _synth_dataset(cfg, junk=False):
    """A generated dataset, with a `junk` source giving a value of its own
    on every item if asked, and the prior it is fused with."""
    claims, _ = generate(cfg)
    if junk:
        claims += [("junk", item, "junk") for item in sorted({c.item_id for c in claims})]
    return claims_by_item(claims), PriorConfig(truth_count_dist=truth_count_distribution(cfg))


def _both_paths(method, dataset, prior, max_iterations=5):
    """`iterate` through the registered backend and through its per-item
    half; asserts their `repr`s are equal and returns the first."""
    backend = fusion_backend(method)
    config = method_iteration_config(method, IterationConfig(max_iterations=max_iterations))
    out = iterate(dataset, prior, backend, config)
    reference = iterate(dataset, prior, _per_item(backend), config)
    for item, result in out[0].items():  # short reprs, for a readable failure
        assert repr(result) == repr(reference[0][item])
    assert repr(out) == repr(reference)
    return out


@pytest.fixture(scope="module")
def hybrid_data_with_junk():
    return _synth_dataset(SynthConfig(num_items=1000, rng_seed=1), junk=True)


def _case_datasets(size=25):
    """`_differential_cases` as datasets of `size` items, each case's
    sources renamed after it so that every case keeps its own qualities;
    a case's restriction is kept as its item's candidates."""
    cases = list(_differential_cases())
    for lo in range(0, len(cases), size):
        dataset, qualities = {}, {}
        for i, (claims, case_qualities, _) in enumerate(cases[lo:lo + size], lo):
            dataset[f"item{i:03d}"] = ClaimSet(
                item_id=f"item{i:03d}", candidates=claims.candidates,
                per_source={f"c{i:03d}-{s}": vs for s, vs in claims.per_source.items()})
            qualities.update((f"c{i:03d}-{s}", q) for s, q in case_qualities.items())
        yield dataset, qualities, cases[lo][2]


class TestDatasetRounds:
    """Each baseline's dataset round gives the `repr` of its per-item
    function, item by item."""

    @pytest.mark.parametrize("method", BASELINES)
    def test_compare_data(self, method):
        for seed in range(1, 7):
            _both_paths(method, *_synth_dataset(SynthConfig(num_items=100, rng_seed=seed)))

    @pytest.mark.parametrize("method", BASELINES)
    def test_hybrid_data_with_a_junk_source(self, method, hybrid_data_with_junk):
        _, _, records = _both_paths(method, *hybrid_data_with_junk)
        # junk fails the good-source test, so later rounds pass `active`;
        # under majority its accuracy (about 0.15) stays above 1/(n+1)
        if method != "majority":
            assert any(r.source == "junk" and not r.good for r in records)

    @pytest.mark.parametrize("method", BASELINES)
    @pytest.mark.parametrize("lone_source", ["s1", "s3"])
    @pytest.mark.parametrize("max_iterations", [0, 3])
    def test_items_without_an_active_source(self, method, lone_source, max_iterations):
        _both_paths(method, _no_source_dataset(lone_source), PriorConfig(), max_iterations)

    @pytest.mark.parametrize("method", BASELINES)
    def test_no_quality_update(self, method):
        _both_paths(method, *_synth_dataset(SynthConfig(num_items=100, rng_seed=1)),
                    max_iterations=0)

    @pytest.mark.parametrize("method", BASELINES)
    def test_differential_cases(self, method):
        # shuffled sources, restricted items, and qualities of 0 or 1
        backend = fusion_backend(method)
        rng = random.Random(20)
        for dataset, qualities, prior in _case_datasets():
            _both_paths(method, dataset, prior)
            index = ClaimIndex(dataset)
            for active in (None, {s for s in index.sources if rng.random() < 0.7}):
                fused = backend.fuse_dataset(index, qualities, prior, active).results()
                per_item = {item: backend(dataset[item] if active is None
                                          else dataset[item].restrict(active), qualities, prior)
                            for item in index.items}
                assert repr(fused) == repr(per_item)

    @pytest.mark.parametrize("method", BASELINES)
    def test_inactive_source_needs_no_quality(self, method):
        cs = ClaimSet.from_claims("d", {"s1": ["a"], "s2": ["b"]})
        index = ClaimIndex({"d": cs})
        backend = fusion_backend(method)
        fused = backend.fuse_dataset(index, {"s1": Q6}, PriorConfig(), {"s1"}).results()
        assert repr(fused) == repr({"d": backend(cs.restrict({"s1"}), {"s1": Q6}, PriorConfig())})
        if method != "majority":
            with pytest.raises(UnknownSourceError, match="'s2'"):
                backend.fuse_dataset(index, {"s1": Q6}, PriorConfig())

    @pytest.mark.parametrize("method", BASELINES)
    def test_exact_ties(self, method):
        # a truth-count tie that only exactly rounded sums find (see
        # TestTwoStep), and a precrec probability of exactly 0.5, on an
        # item with no active source at alpha 0.5, which is not selected
        accuracies = {"s0": 0.3, "s1": 0.9, "s2": 0.3, "s3": 0.3, "s4": 0.3, "s5": 0.9}
        dataset = {"d": ClaimSet.from_claims("d", {s: ["a"] if s < "s3" else ["a", "b"]
                                                   for s in accuracies}),
                   "e": ClaimSet.from_claims("e", {"off": ["x", "y"]})}
        qualities = {s: SourceQuality(accuracy=a, recall=0.7, false_positive_rate=0.1)
                     for s, a in accuracies.items()}
        prior = PriorConfig(alpha=0.5)
        backend = fusion_backend(method)
        fused = backend.fuse_dataset(ClaimIndex(dataset), qualities, prior,
                                     set(accuracies)).results()
        assert repr(fused) == repr({item: backend(cs.restrict(accuracies), qualities, prior)
                                    for item, cs in dataset.items()})
        if method == "twostep":
            assert fused["d"].diagnostics.notes == [
                "truth-count tie among [1, 2]; selected smallest k=1"]
        if method == "precrec":
            assert fused["e"].probabilities == {"x": 0.5, "y": 0.5}
            assert fused["e"].selected_truths == []

    @pytest.mark.parametrize("method", BASELINES)
    def test_many_agreeing_sources_and_one_dissenter(self, method):
        # the odds of 'a' overflow in precrec; nothing may warn about it
        psi = {f"s{i:04d}": ["a"] for i in range(1000)}
        psi["dissent"] = ["b"]
        index = ClaimIndex({"d": ClaimSet.from_claims("d", psi)})
        q = SourceQuality(accuracy=0.9, recall=0.9, false_positive_rate=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = fusion_backend(method).fuse_dataset(index, dict.fromkeys(psi, q),
                                                        PriorConfig())
            result = fused.results()["d"]
        assert np.isfinite(fused.probabilities).all()
        assert result.selected_truths == ["a"]


@pytest.mark.parametrize("path", ["registered", "per-item"])
@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
def test_row_order_does_not_change_the_output(method, path):
    # precrec multiplied its odds in the order the sources first appeared
    # in the rows, which changed the last bit of some probabilities
    cfg = SynthConfig(num_items=200, rng_seed=3, truth_count_max=2, false_domain_size=4,
                      extra_ratio=0.6)
    claims, _ = generate(cfg)
    rows = list(claims)
    random.Random(0).shuffle(rows)
    prior = PriorConfig(truth_count_dist=truth_count_distribution(cfg))
    backend = fusion_backend(method)
    if path == "per-item":
        backend = _per_item(backend)
    config = method_iteration_config(method, IterationConfig())
    assert repr(iterate(claims_by_item(claims), prior, backend, config)) == \
        repr(iterate(claims_by_item(rows), prior, backend, config))
