"""Exact possible-world enumeration: conditionals, full fusion, and
invariances."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import multitruth
from multitruth import (
    BOTTOM,
    ClaimSet,
    DegenerateEvidenceError,
    InstanceTooLargeError,
    IterationConfig,
    PriorConfig,
    SourceQuality,
    UnknownSourceError,
    VoteCountFixture,
    conditional_prob,
    exact_fuse,
    exact_fuse_from_votes,
    iterate,
)
from multitruth.exact import PRUNE_THRESHOLD, conditional_distribution, exact_fuse_dataset
from multitruth.index import ClaimIndex
from multitruth.io import claims_by_item
from multitruth.methods import fusion_backend
from multitruth.synth import SynthConfig, generate

from conftest import random_instance


class TestConditionalDistribution:
    def test_sums_to_one(self, hockey_claims, hockey_qualities, hockey_prior):
        dist = conditional_distribution(hockey_claims, hockey_qualities,
                                        hockey_prior, ["helmet"])
        assert sum(dist.values()) == pytest.approx(1.0)
        assert set(dist) == {"stick", "boots", "skis", BOTTOM}

    def test_worked_conditional_both_modes(self, hockey_claims, hockey_qualities,
                                           hockey_prior):
        for mode in ("literal", "example-compatible"):
            p = conditional_prob(hockey_claims, hockey_qualities,
                                 replace(hockey_prior, prior_mode=mode), ["helmet"], "stick")
            assert p == pytest.approx(0.88, abs=0.01)

    def test_already_selected_rejected(self, hockey_claims, hockey_qualities,
                                       hockey_prior):
        with pytest.raises(ValueError, match="already selected"):
            conditional_prob(hockey_claims, hockey_qualities, hockey_prior,
                             ["helmet"], "helmet")

    def test_random_instances_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            claims, qualities, prior = random_instance(rng)
            dist = conditional_distribution(claims, qualities, prior, [])
            assert sum(dist.values()) == pytest.approx(1.0)
            assert all(p >= 0 for p in dist.values())

    def test_degenerate_evidence_raises(self):
        # recall 1 makes any missing value impossible for every candidate,
        # and a provided value makes BOTTOM at step 1 impossible too once
        # the source overshoots with probability... construct via Q=0 and
        # an extra value: extra has probability 0, so every hypothesis
        # conflicts with some observation.
        claims = ClaimSet.from_claims("d", {"s1": ["a", "b"], "s2": ["c"]})
        q = SourceQuality(accuracy=0.9, recall=1.0, false_positive_rate=0.0)
        prior = PriorConfig(truth_count_dist={1: 1.0})
        with pytest.raises(DegenerateEvidenceError):
            conditional_distribution(claims, {"s1": q, "s2": q}, prior, ["a", "b", "c"])


class TestExactFuse:
    def test_running_example(self, hockey_claims, hockey_qualities, hockey_prior):
        r = exact_fuse(hockey_claims, hockey_qualities, hockey_prior)
        assert r.probabilities["helmet"] == pytest.approx(r.probabilities["stick"], abs=1e-9)
        assert r.probabilities["boots"] == pytest.approx(r.probabilities["skis"], abs=1e-9)
        assert r.probabilities["helmet"] > 0.85
        assert r.probabilities["boots"] < 0.15
        assert r.selected_truths == ["helmet", "stick"]

    def test_candidate_cap(self, hockey_claims, hockey_qualities, hockey_prior):
        with pytest.raises(InstanceTooLargeError):
            exact_fuse(hockey_claims, hockey_qualities, hockey_prior, max_candidates=3)

    def test_unknown_source(self, hockey_claims, hockey_prior):
        q = SourceQuality(accuracy=0.6, recall=0.9, false_positive_rate=0.1)
        with pytest.raises(UnknownSourceError):
            exact_fuse(hockey_claims, {"s1": q}, hockey_prior)

    def test_probabilities_within_unit_interval(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            claims, qualities, prior = random_instance(rng)
            r = exact_fuse(claims, qualities, prior)
            for p in r.probabilities.values():
                assert -1e-12 <= p <= 1.0 + 1e-9

    def test_twelve_candidates_within_default_cap(self):
        rng = np.random.default_rng(12)
        values = [f"v{j:02d}" for j in range(12)]
        psi = {f"s{i}": set(rng.choice(values, size=3, replace=False)) for i in range(8)}
        psi["all"] = set(values)
        claims = ClaimSet.from_claims("wide", psi)
        q = SourceQuality(accuracy=0.8, recall=0.8, false_positive_rate=0.2)
        prior = PriorConfig(n=10, alpha=0.25, truth_count_dist={1: 0.2, 2: 0.5, 3: 0.3})
        r = exact_fuse(claims, {s: q for s in psi}, prior)
        assert set(r.probabilities) == set(values)
        assert all(0.0 <= p <= 1.0 for p in r.probabilities.values())

        psi["all"].add("one-too-many")
        with pytest.raises(InstanceTooLargeError):
            exact_fuse(ClaimSet.from_claims("wider", psi), {s: q for s in psi}, prior)

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        claims, qualities, prior = random_instance(rng, max_values=5)
        base = exact_fuse(claims, qualities, prior).probabilities
        for _ in range(5):
            per_source = {s: list(vs) for s, vs in claims.per_source.items()}
            items = list(per_source.items())
            rng.shuffle(items)
            for _, vs in items:
                rng.shuffle(vs)
            shuffled = ClaimSet.from_claims(claims.item_id, dict(items))
            again = exact_fuse(shuffled, qualities, prior).probabilities
            for v in base:
                assert again[v] == pytest.approx(base[v], abs=1e-12)


class TestExactBackend:
    """`hybrid-exact` fuses on the clamped qualities `iterate` hands it;
    `exact_fuse` is the unclamped oracle."""

    def test_fuses_where_a_false_positive_rate_reaches_zero(self):
        cfg = SynthConfig(num_sources=6, num_items=12, truth_count_max=2, false_domain_size=4,
                          extra_ratio=0.6, source_accuracy=0.9, source_recall=0.9, rng_seed=0)
        dataset = claims_by_item(generate(cfg)[0])
        prior = PriorConfig()
        backend = fusion_backend("hybrid-exact")
        # one round re-estimates every precision at 1, so every
        # false-positive rate at 0
        _, qualities, _ = iterate(dataset, prior, backend, IterationConfig(max_iterations=1))
        assert all(q.false_positive_rate == 0.0 for q in qualities.values())
        with pytest.raises(DegenerateEvidenceError):
            exact_fuse(dataset["i0000"], qualities, prior)

        results, _, _ = iterate(dataset, prior, backend)
        assert set(results) == set(dataset)
        for r in results.values():
            assert all(0.0 <= p <= 1.0 for p in r.probabilities.values())

    def test_unknown_source(self, hockey_claims, hockey_prior):
        q = SourceQuality(accuracy=0.6, recall=0.9, false_positive_rate=0.1)
        with pytest.raises(UnknownSourceError):
            fusion_backend("hybrid-exact")(hockey_claims, {"s1": q}, hockey_prior)


class TestExactFromVotes:
    def test_matches_quality_path(self, hockey_claims, hockey_qualities, hockey_prior):
        # the vote-injection engine and the quality engine disagree in
        # general (votes compress the likelihood structure), but a
        # single-value instance has identical conditionals
        claims = ClaimSet.from_claims("d", {"s1": ["a"], "s2": ["a"]})
        from multitruth import fixture_from_qualities
        fixture = fixture_from_qualities(claims, hockey_qualities, hockey_prior)
        r = exact_fuse_from_votes(fixture)
        votes = fixture.votes
        bot = fixture.bot_votes[0]
        assert r.probabilities["a"] == pytest.approx(votes["a"] / (votes["a"] + bot))

    def test_two_value_hand_computation(self):
        # L(a)=3, L(b)=1, stop vote 1 at every step:
        # p(a) = 3/5 + (1/5)*(3/4); p(b) = 1/5 + (3/5)*(1/2)
        fixture = VoteCountFixture(votes={"a": 3.0, "b": 1.0}, bot_votes=[1.0])
        r = exact_fuse_from_votes(fixture)
        assert r.probabilities["a"] == pytest.approx(3 / 5 + (1 / 5) * (3 / 4))
        assert r.probabilities["b"] == pytest.approx(1 / 5 + (3 / 5) * (1 / 2))
        assert r.selected_truths == ["a"]

    def test_zero_denominator_rejected(self):
        fixture = VoteCountFixture(votes={"a": 1.0}, bot_votes=[0.0])
        r = exact_fuse_from_votes(fixture)  # denominator 1.0, fine
        assert r.probabilities["a"] == pytest.approx(1.0)


def walk_enumerate(candidates, conds_for, prune):
    """Reference for the subset DP: a depth-first sum over every one of
    the m! selection sequences.  `conds_for` maps a frozenset of
    already-selected values to the conditional distribution over the
    remaining candidates plus BOTTOM."""
    totals = {v: 0.0 for v in candidates}
    all_values = frozenset(candidates)

    def walk(selected, world_p):
        cond = conds_for(selected)
        for v in all_values - selected:
            branch = world_p * cond[v]
            totals[v] += branch
            if branch > prune and len(selected) + 1 < len(all_values):
                walk(selected | {v}, branch)

    walk(frozenset(), 1.0)
    return totals


def walk_exact_fuse(claims, qualities, prior, prune):
    cache = {}

    def conds_for(selected):
        if selected not in cache:
            cache[selected] = conditional_distribution(claims, qualities, prior, selected)
        return cache[selected]

    return walk_enumerate(sorted(claims.candidates, key=str), conds_for, prune)


def walk_exact_from_votes(fixture, prune):
    values = sorted(fixture.votes, key=str)

    def conds_for(selected):
        remaining = [v for v in values if v not in selected]
        bot = fixture.bot_at(len(selected) + 1)
        denom = sum(fixture.votes[v] for v in remaining) + bot
        cond = {v: fixture.votes[v] / denom for v in remaining}
        cond[BOTTOM] = bot / denom
        return cond

    return walk_enumerate(values, conds_for, prune)


def _assert_agrees(result, reference):
    # the DP sums the selection orders in another order than the walk, so
    # the last digits differ; exactly tied values may also select in
    # another order
    assert set(result.probabilities) == set(reference)
    for v, p in reference.items():
        assert result.probabilities[v] == pytest.approx(p, abs=1e-9)
        assert 0.0 <= result.probabilities[v] <= 1.0
    assert set(result.selected_truths) == {v for v, p in reference.items() if p > 0.5}


class TestSubsetDPMatchesWalk:
    @pytest.mark.parametrize("prune", [PRUNE_THRESHOLD, 0.0])
    def test_quality_path(self, prune):
        rng = np.random.default_rng(77)
        degenerate = 0
        for i in range(300):
            claims, qualities, prior = random_instance(rng, max_values=7)
            # qualities at the 0/1 edges make some log-likelihoods -inf
            qualities = {
                s: SourceQuality(**{
                    name: float(rng.integers(0, 2)) if rng.random() < 0.15 else getattr(q, name)
                    for name in ("accuracy", "recall", "false_positive_rate", "precision")})
                for s, q in qualities.items()}
            mode = ("literal", "example-compatible")[i % 2]
            prior = replace(prior, prior_mode=mode)
            try:
                reference = walk_exact_fuse(claims, qualities, prior, prune)
            except DegenerateEvidenceError:
                degenerate += 1
                with pytest.raises(DegenerateEvidenceError):
                    exact_fuse(claims, qualities, prior, prune=prune)
                continue
            _assert_agrees(exact_fuse(claims, qualities, prior, prune=prune), reference)
        assert degenerate < 150

    @pytest.mark.parametrize("prune", [PRUNE_THRESHOLD, 0.0])
    def test_vote_path(self, prune):
        rng = np.random.default_rng(78)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            votes = {f"v{j}": float(rng.lognormal(0.0, 2.0)) for j in range(m)}
            bot_votes = [0.0 if rng.random() < 0.2 else float(rng.lognormal(0.0, 2.0))
                         for _ in range(int(rng.integers(1, m + 1)))]
            fixture = VoteCountFixture(votes=votes, bot_votes=bot_votes)
            _assert_agrees(exact_fuse_from_votes(fixture, prune=prune),
                           walk_exact_from_votes(fixture, prune))


def random_dataset(rng, n_items, max_values=6):
    """Items over one pool of sources that each provide one or two values
    per item, so several sources share a provided count while their
    qualities differ, and a random active subset of the sources (None
    for all of them)."""
    sources = [f"s{j}" for j in range(int(rng.integers(3, 8)))]
    dataset = {}
    for d in range(n_items):
        values = [f"v{j}" for j in range(int(rng.integers(1, max_values + 1)))]
        providers = rng.choice(sources, size=int(rng.integers(1, len(sources) + 1)),
                               replace=False)
        psi = {str(s): rng.choice(values, size=min(int(rng.integers(1, 3)), len(values)),
                                  replace=False) for s in providers}
        # every value keeps a provider
        unprovided = np.setdiff1d(values, np.concatenate(list(psi.values())))
        psi[str(providers[0])] = np.union1d(psi[str(providers[0])], unprovided)
        dataset[f"d{d:03d}"] = ClaimSet.from_claims(f"d{d:03d}", psi)
    qualities = {s: SourceQuality(accuracy=float(rng.uniform(0.3, 0.95)),
                                  recall=float(rng.uniform(0.3, 0.95)),
                                  false_positive_rate=float(rng.uniform(0.05, 0.7)))
                 for s in sources}
    active = (None if rng.random() < 0.25
              else set(rng.choice(sources, size=int(rng.integers(1, len(sources))),
                                  replace=False).tolist()))
    return dataset, qualities, active


class TestDatasetPass:
    """`exact_fuse_dataset` against the order walk on each item as
    `iterate`'s per-item path restricts it."""

    PRIOR = PriorConfig(n=10, alpha=0.25, truth_count_dist={1: 0.3, 2: 0.4, 3: 0.2, 4: 0.1})

    # unpruned, both sum the same worlds; with pruning the walk drops
    # single orders where the DP drops whole subsets, a few 1e-12 apart
    @pytest.mark.parametrize("prune, tolerance", [(0.0, 1e-12), (PRUNE_THRESHOLD, 1e-9)])
    def test_matches_walk_on_restricted_items(self, prune, tolerance):
        rng = np.random.default_rng(4051)
        checked = no_source = shared = 0
        for i in range(40):
            dataset, qualities, active = random_dataset(rng, n_items=12)
            prior = replace(self.PRIOR, prior_mode=("literal", "example-compatible")[i % 2])
            fused = exact_fuse_dataset(ClaimIndex(dataset), qualities, prior, active,
                                       prune=prune)
            assert list(fused) == sorted(dataset)
            for item, claims in dataset.items():
                restricted = claims if active is None else claims.restrict(active)
                reference = walk_exact_fuse(restricted, qualities, prior, prune)
                result = fused[item]
                assert result.item_id == item
                assert set(result.probabilities) == set(reference)
                for v, p in reference.items():
                    assert abs(result.probabilities[v] - p) <= tolerance
                assert set(result.selected_truths) == {v for v, p in reference.items()
                                                       if p > 0.5}
                sizes = [len(vs) for vs in restricted.per_source.values()]
                shared += len(sizes) > len(set(sizes))
                no_source += not restricted.per_source
                checked += 1
        assert checked == 480
        assert no_source >= 10 and shared >= 100

    def test_twelve_candidate_item(self):
        rng = np.random.default_rng(12)
        values = [f"v{j:02d}" for j in range(12)]
        psi = {f"s{i}": set(rng.choice(values, size=3, replace=False)) for i in range(8)}
        psi["all"] = set(values)
        wide = ClaimSet.from_claims("wide", psi)
        narrow = ClaimSet.from_claims("narrow", {"s0": ["v00"], "s1": ["v00", "v01"]})
        qualities = {s: SourceQuality(accuracy=0.6 + 0.03 * i, recall=0.8,
                                      false_positive_rate=0.2)
                     for i, s in enumerate(sorted(psi))}
        fused = exact_fuse_dataset(ClaimIndex({"wide": wide, "narrow": narrow}), qualities,
                                   self.PRIOR)
        _assert_agrees(fused["wide"], walk_exact_fuse(wide, qualities, self.PRIOR,
                                                      PRUNE_THRESHOLD))
        assert repr(fused["wide"]) == repr(exact_fuse(wide, qualities, self.PRIOR))
        assert repr(fused["narrow"]) == repr(exact_fuse(narrow, qualities, self.PRIOR))

    def test_cap_checked_before_any_item_is_fused(self):
        # the first item in index order has no hypothesis of non-zero
        # likelihood, so enumerating it would raise DegenerateEvidenceError
        q = SourceQuality(accuracy=0.9, recall=1.0, false_positive_rate=0.0)
        dataset = {
            "a": ClaimSet.from_claims("a", {"s1": ["x", "y"], "s2": ["z"]}),
            "b": ClaimSet.from_claims("b", {"s1": list("pqrst"), "s2": ["u"]}),
        }
        prior = PriorConfig(truth_count_dist={1: 1.0})
        index = ClaimIndex(dataset)
        with pytest.raises(DegenerateEvidenceError):
            exact_fuse_dataset(index, {"s1": q, "s2": q}, prior)
        with pytest.raises(InstanceTooLargeError, match=r"^instance too large for exact "
                           r"enumeration \(6 candidates > cap 5\); use the approximation$"):
            exact_fuse_dataset(index, {"s1": q, "s2": q}, prior, max_candidates=5)

    def test_inactive_source_needs_no_quality(self, hockey_claims, hockey_qualities,
                                              hockey_prior):
        active = {"s1", "s2"}
        qualities = {s: hockey_qualities[s] for s in active}
        fused = exact_fuse_dataset(ClaimIndex({"d": hockey_claims}), qualities, hockey_prior,
                                   active)
        assert repr(fused["d"]) == repr(exact_fuse(hockey_claims.restrict(active), qualities,
                                                   hockey_prior))
        with pytest.raises(UnknownSourceError):
            exact_fuse_dataset(ClaimIndex({"d": hockey_claims}), qualities, hockey_prior)


HASH_SEED_SCRIPT = """
from multitruth import PriorConfig, SourceQuality, exact_fuse, iterate
from multitruth.io import claims_by_item
from multitruth.methods import fusion_backend
from multitruth.synth import SynthConfig, generate, truth_count_distribution

cfg = SynthConfig(num_items=150, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                  source_accuracy=0.9, source_recall=0.9, rng_seed=902538460)
claims, _ = generate(cfg)
prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
dataset = claims_by_item(claims)
sources = sorted({s for cs in dataset.values() for s in cs.per_source}, key=str)
qualities = {s: SourceQuality(accuracy=0.95, recall=0.9, false_positive_rate=0.02 + 0.01 * i)
             for i, s in enumerate(sources)}
outside = 0
for item in sorted(dataset, key=str):
    r = exact_fuse(dataset[item], qualities, prior)
    print(repr(r.probabilities), repr(r.selected_truths))
    outside += sum(not 0.0 <= p <= 1.0 for p in r.probabilities.values())
print("outside [0,1]:", outside)

results, fused_qualities, _ = iterate(dataset, prior, fusion_backend("hybrid-exact"))
for item in sorted(results, key=str):
    print(repr(results[item].probabilities), repr(results[item].selected_truths))
print(repr(fused_qualities))
"""


def test_output_independent_of_hash_seed():
    # frozenset iteration order follows the per-process hash seed; a sum
    # taken in that order changed the last digits, and with hash seed 3
    # carried one of these probabilities to 1.0000000000000002
    src = str(Path(multitruth.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 302
    assert lines[150] == "outside [0,1]: 0"
