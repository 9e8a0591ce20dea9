"""Quadratic approximation: vote counts, the step loop, termination, and
the 1/6 error guarantee against the exact enumeration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitruth import (
    ClaimSet,
    FusionError,
    IterationConfig,
    PriorConfig,
    SourceQuality,
    VoteCountFixture,
    approx_fuse,
    approx_fuse_from_votes,
    bot_vote_count,
    case_one_fixture,
    exact_fuse_from_votes,
    claims_by_item,
    fixture_from_qualities,
    generate,
    iterate,
    verify_bound,
    vote_count,
    SynthConfig,
    UnknownSourceError,
)
from multitruth import approx
from multitruth.approx import ERROR_BOUND, approx_fuse_round
from multitruth.exact import CANDIDATE_CAP
from multitruth.index import ClaimIndex
from multitruth.methods import fusion_backend

from conftest import random_instance


class TestVoteCount:
    def test_product_oracle(self, hockey_qualities):
        # two providers with A=0.6, n=10: (10*0.6/0.4)^2 = 225
        assert vote_count("helmet", ["s1", "s3"], hockey_qualities, 10) == pytest.approx(225.0)
        assert vote_count("boots", ["s2"], hockey_qualities, 10) == pytest.approx(15.0)

    def test_empty_providers_neutral(self, hockey_qualities):
        assert vote_count("ghost", [], hockey_qualities, 10) == 1.0

    def test_accuracy_one_rejected(self):
        q = {"s": SourceQuality(accuracy=1.0, recall=0.5, false_positive_rate=0.1)}
        with pytest.raises(FusionError, match="accuracy 1"):
            vote_count("v", ["s"], q, 10)

    def test_provider_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        q = {f"s{j}": SourceQuality(accuracy=float(rng.uniform(0.5, 0.99)), recall=0.5,
                                    false_positive_rate=0.1) for j in range(12)}
        providers = list(q)
        first = vote_count("v", providers, q, 10)
        for _ in range(5):
            rng.shuffle(providers)
            assert vote_count("v", providers, q, 10) == first


class TestBotVoteCount:
    def test_hand_computation(self, hockey_claims, hockey_qualities, hockey_prior):
        # step 1, nothing selected: every source provided >0 values, so each
        # contributes Q/(R(1-A)); the prior prefactor is beta*slots/(1-beta)
        beta = 0.0  # no chance of zero truths
        got = bot_vote_count(hockey_claims, hockey_qualities, hockey_prior, 1)
        assert got == pytest.approx(0.0)
        # step 3: two values selected; all sources provided 2 > 2 is false,
        # so each contributes (1-Q)/(1-R)
        beta3 = 0.7
        slots = len(hockey_claims.candidates) - 3 + 1
        expected = beta3 * slots / (1 - beta3) * ((1 - 0.1) / (1 - 0.9)) ** 3
        got = bot_vote_count(hockey_claims, hockey_qualities, hockey_prior, 3)
        assert got == pytest.approx(expected)

    def test_mixed_sources(self, hockey_claims, hockey_qualities, hockey_prior):
        # step 2: one selected; every source provided 2 > 1 values
        beta2 = 0.3
        slots = len(hockey_claims.candidates) - 2 + 1
        expected = beta2 * slots / (1 - beta2) * (0.1 / (0.9 * 0.4)) ** 3
        got = bot_vote_count(hockey_claims, hockey_qualities, hockey_prior, 2)
        assert got == pytest.approx(expected)

    def test_recall_one_rejected(self, hockey_prior):
        claims = ClaimSet.from_claims("d", {"s": ["a"]})
        q = {"s": SourceQuality(accuracy=0.5, recall=1.0, false_positive_rate=0.1)}
        with pytest.raises(FusionError, match="recall 1"):
            bot_vote_count(claims, q, hockey_prior, 2)


class TestStepLoop:
    def test_step_fixture_increments(self, step_fixture):
        r = approx_fuse_from_votes(step_fixture)
        steps = r.diagnostics.steps
        inc_o2 = [s.increments["o2"] for s in steps]
        assert inc_o2[0] == pytest.approx(225 / 480.1, abs=1e-4)
        assert inc_o2[1] == pytest.approx((1 - inc_o2[0]) * 225 / 255.24, abs=1e-4)
        assert inc_o2[2] < 0.001
        assert r.probabilities["o2"] == pytest.approx(0.9406, abs=0.005)
        assert r.diagnostics.termination_step == 3
        assert r.selected_truths == ["o1", "o2"]

    def test_terminate_false_runs_all_steps(self, step_fixture):
        r = approx_fuse_from_votes(step_fixture, terminate=False)
        assert r.diagnostics.termination_step == 4
        assert len(r.diagnostics.bot_votes) == 4
        # the truth cut is unchanged
        assert r.selected_truths == ["o1", "o2"]

    def test_no_termination_selects_everything(self):
        fixture = VoteCountFixture(votes={"a": 10.0, "b": 8.0}, bot_votes=[1.0])
        r = approx_fuse_from_votes(fixture)
        assert r.selected_truths == ["a", "b"]

    def test_tie_group_at_boundary_excluded(self):
        # stop vote overtakes at step 2, whose value is vote-tied with the
        # step-1 value: the whole tied group is ruled out
        fixture = VoteCountFixture(votes={"a": 5.0, "b": 5.0, "c": 1.0},
                                   bot_votes=[0.1, 6.0])
        r = approx_fuse_from_votes(fixture)
        assert r.selected_truths == []

    def test_probabilities_sorted_by_vote(self, step_fixture):
        r = approx_fuse_from_votes(step_fixture, terminate=False)
        assert r.probabilities["o1"] >= r.probabilities["o3"]


class TestApproxFuse:
    def test_running_example(self, hockey_claims, hockey_qualities, hockey_prior):
        r = approx_fuse(hockey_claims, hockey_qualities, hockey_prior)
        assert set(r.selected_truths) == {"helmet", "stick"}
        assert r.probabilities["helmet"] > 0.8
        assert r.probabilities["boots"] < 0.3

    def test_empty_item_rejected(self, hockey_qualities, hockey_prior):
        # ClaimSet refuses the item, so approx_fuse never sees it
        with pytest.raises(ValueError, match="no candidate"):
            claims = ClaimSet(item_id="d", per_source={}, candidates=frozenset())
            approx_fuse(claims, hockey_qualities, hockey_prior)

    def test_record_steps_off(self, hockey_claims, hockey_qualities, hockey_prior):
        r = approx_fuse(hockey_claims, hockey_qualities, hockey_prior)
        assert r.diagnostics.steps is None

    def test_extreme_qualities_clamped_not_fatal(self, hockey_claims, hockey_prior):
        q = SourceQuality(accuracy=1.0, recall=1.0, false_positive_rate=0.0)
        r = approx_fuse(hockey_claims, {s: q for s in "s1 s2 s3".split()},
                        hockey_prior)
        assert all(0.0 <= p <= 1.0 for p in r.probabilities.values())


class TestErrorBound:
    def test_fixture_vs_exact_within_bound(self, step_fixture):
        exact = exact_fuse_from_votes(step_fixture)
        approx = approx_fuse_from_votes(step_fixture)
        assert verify_bound(exact, approx) < ERROR_BOUND

    def test_bound_not_universal_on_adversarial_fixtures(self):
        # The 1/6 guarantee does not hold for arbitrary injected vote
        # counts: large stop votes can terminate the step loop while the
        # exact enumeration still assigns substantial mass, and the clamp
        # in the conditional overestimates top-ranked values.  verify_bound
        # exists precisely to catch such fixtures.
        rng = np.random.default_rng(11)
        deviations = []
        for _ in range(100):
            m = int(rng.integers(1, 6))
            votes = {f"v{j}": float(rng.uniform(0.1, 100)) for j in range(m)}
            bots = [float(rng.uniform(0.0, 50)) for _ in range(m)]
            if all(b == 0 for b in bots):
                bots[-1] = 1.0
            fixture = VoteCountFixture(votes=votes, bot_votes=bots)
            exact = exact_fuse_from_votes(fixture)
            approx = approx_fuse_from_votes(fixture)
            deviations.append(max(abs(exact.probabilities[v] - approx.probabilities[v])
                                  for v in exact.probabilities))
        assert max(deviations) >= ERROR_BOUND  # violations are real
        assert max(deviations) < 0.5           # but bounded in practice

    def test_verify_bound_raises_on_violation(self):
        # non-monotone stop votes: the loop terminates at step 2 while the
        # exact enumeration still assigns most of the mass
        fixture = VoteCountFixture(
            votes={"v0": 1.348, "v1": 4.69, "v2": 8.069, "v3": 3.906, "v4": 3.906},
            bot_votes=[0.0, 4.908, 0.4938, 0.6911, 0.04215])
        with pytest.raises(FusionError, match="bound violated"):
            verify_bound(exact_fuse_from_votes(fixture),
                         approx_fuse_from_votes(fixture))

    def test_quality_instances_mostly_within_bound(self):
        # On vote counts induced by actual source-quality instances the
        # deviation is tiny in the typical case; rare violations occur when
        # a harsh truth-count prior makes the stop votes spike early.
        rng = np.random.default_rng(13)
        deviations = []
        for _ in range(50):
            claims, qualities, prior = random_instance(rng)
            fixture = fixture_from_qualities(claims, qualities, prior)
            exact = exact_fuse_from_votes(fixture)
            approx = approx_fuse_from_votes(fixture)
            deviations.append(max(abs(exact.probabilities[v] - approx.probabilities[v])
                                  for v in exact.probabilities))
        within = sum(d < ERROR_BOUND for d in deviations)
        assert within >= 45
        assert sorted(deviations)[len(deviations) // 2] < 0.01

    def test_quality_instances_up_to_the_cap(self):
        # A7's documented property on A7's generator, with items of up to
        # the exact engine's cap of candidates instead of at most 6
        rng = np.random.default_rng(1212)
        deviations, wide = [], 0
        for _ in range(300):
            n_values = int(rng.integers(1, CANDIDATE_CAP + 1))
            values = [f"v{j:02d}" for j in range(n_values)]
            psi = {f"s{i}": set(rng.choice(values, size=int(rng.integers(1, n_values + 1)),
                                           replace=False).tolist())
                   for i in range(int(rng.integers(1, 6)))}
            claims = ClaimSet.from_claims("d", psi)
            qualities = {s: SourceQuality(
                accuracy=float(rng.uniform(0.3, 0.95)),
                recall=float(rng.uniform(0.3, 0.95)),
                false_positive_rate=float(rng.uniform(0.3, 0.95)),
                precision=float(rng.uniform(0.3, 0.95))) for s in psi}
            weights = rng.uniform(0.05, 1.0, size=int(rng.integers(1, 8)))
            prior = PriorConfig(n=int(rng.integers(1, 30)), alpha=float(rng.uniform(0.05, 0.9)),
                                truth_count_dist={k + 1: float(w / weights.sum())
                                                  for k, w in enumerate(weights)})
            fixture = fixture_from_qualities(claims, qualities, prior)
            exact = exact_fuse_from_votes(fixture)
            approx_result = approx_fuse_from_votes(fixture)
            for result in (exact, approx_result):
                assert all(math.isfinite(p) and 0.0 <= p <= 1.0
                           for p in result.probabilities.values())
            deviations.append(max(abs(exact.probabilities[v] - approx_result.probabilities[v])
                                  for v in exact.probabilities))
            wide += len(claims.candidates) > 6
        assert wide >= 80  # about a third of the items
        assert float(np.median(deviations)) < 0.01
        assert sum(d < ERROR_BOUND for d in deviations) >= 0.9 * len(deviations)

    def test_mismatched_candidates_rejected(self, step_fixture):
        exact = exact_fuse_from_votes(step_fixture)
        other = approx_fuse_from_votes(
            VoteCountFixture(votes={"x": 1.0}, bot_votes=[1.0]))
        with pytest.raises(ValueError, match="mismatched"):
            verify_bound(exact, other)


class TestWorstCase:
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0, 10.0])
    def test_closed_form_deviation(self, gamma):
        fixture = case_one_fixture(gamma)
        exact = exact_fuse_from_votes(fixture)
        approx = approx_fuse_from_votes(fixture, terminate=False)
        deviation = abs(exact.probabilities["v3"] - approx.probabilities["v3"])
        assert deviation == pytest.approx((1 / 6) * (gamma + 1) / (gamma + 2), abs=1e-6)

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            case_one_fixture(0.5)

    def test_bound_approached_but_not_reached(self):
        # deviation tends to 1/6 as gamma grows yet never reaches it
        fixture = case_one_fixture(1e6)
        deviation = verify_bound(exact_fuse_from_votes(fixture),
                                 approx_fuse_from_votes(fixture, terminate=False))
        assert 0.16 < deviation < ERROR_BOUND


class TestManySources:
    # n*A/(1-A) = 90 per source at A = 0.9: 90**250 overflows a vote
    # computed as a product
    QUALITY = SourceQuality(accuracy=0.9, recall=0.9, false_positive_rate=0.1, precision=0.9)
    PRIOR = PriorConfig(n=10, alpha=0.25, truth_count_dist={1: 0.5, 2: 0.5})

    @staticmethod
    def _valid(r):
        return all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in r.probabilities.values())

    @pytest.mark.parametrize("n_sources", [250, 300, 1000])
    def test_agreeing_sources_stay_finite(self, n_sources):
        psi = {f"s{j:04d}": {"a"} for j in range(n_sources)}
        r = approx_fuse(ClaimSet.from_claims("d", psi), {s: self.QUALITY for s in psi},
                        self.PRIOR)
        assert self._valid(r) and r.selected_truths == ["a"]
        dataset = {d: ClaimSet.from_claims(d, psi) for d in ("d1", "d2")}
        results, _, _ = iterate(dataset, self.PRIOR, fusion_backend("hybrid"),
                                IterationConfig(init_quality=self.QUALITY))
        assert all(self._valid(r) and r.selected_truths == ["a"] for r in results.values())

    @pytest.mark.parametrize("n_sources", [250, 300, 1000])
    def test_one_dissenting_source(self, n_sources):
        psi = {f"s{j:04d}": {"a"} for j in range(n_sources)}
        psi["t"] = {"b"}
        qualities = {s: self.QUALITY for s in psi}
        dataset = {d: ClaimSet.from_claims(d, psi) for d in ("d1", "d2")}
        fused = approx_fuse_round(ClaimIndex(dataset), qualities, self.PRIOR).results()
        results, _, _ = iterate(dataset, self.PRIOR, fusion_backend("hybrid"),
                                IterationConfig(init_quality=self.QUALITY))
        for r in [*fused.values(), *results.values()]:
            assert self._valid(r) and r.selected_truths == ["a"]
        if n_sources < 1000:
            single = approx_fuse(dataset["d1"], qualities, self.PRIOR)
            assert single.probabilities == pytest.approx(fused["d1"].probabilities, abs=1e-12)
        else:
            # 'b' and the step-2 stop vote lie over e^2000 below 'a': on
            # one linear scale the step's denominator underflows, which
            # the per-item loop reports instead of dividing by zero
            with pytest.raises(FusionError, match="degenerate"):
                approx_fuse(dataset["d1"], qualities, self.PRIOR)

    def test_vote_fixture_refuses_overflowed_votes(self):
        # the fixture's votes are linear-domain products: 90**250 is inf,
        # which the step loop would turn into nan probabilities
        psi = {f"s{j:04d}": {"a"} for j in range(250)}
        psi["t"] = {"b"}
        claims = ClaimSet.from_claims("d", psi)
        with pytest.raises(ValueError, match="finite"):
            fixture_from_qualities(claims, {s: self.QUALITY for s in psi}, self.PRIOR)


def _random_quality(rng):
    fields = [float(x) for x in rng.uniform(0.0, 1.0, size=4)]
    for j in range(4):
        if rng.random() < 0.15:
            fields[j] = float(rng.integers(0, 2))
    a, r, q, p = fields
    return SourceQuality(accuracy=a, recall=r, false_positive_rate=q, precision=p)


def _random_dataset(rng):
    cfg = SynthConfig(num_items=int(rng.integers(5, 30)),
                      num_sources=int(rng.integers(1, 9)),
                      false_domain_size=int(rng.integers(20, 60)),
                      truth_count_mean=float(rng.uniform(1.0, 6.0)),
                      extra_ratio=float(rng.uniform(0.0, 1.0)),
                      source_accuracy=float(rng.uniform(0.3, 1.0)),
                      source_recall=float(rng.uniform(0.3, 1.0)),
                      rng_seed=int(rng.integers(1 << 30)))
    return claims_by_item(generate(cfg)[0])


def _random_prior(rng):
    weights = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 8)))
    weights[0] += 0.05
    return PriorConfig(n=int(rng.integers(1, 30)), alpha=float(rng.uniform(0.05, 0.9)),
                       truth_count_dist={k + 1: float(w / weights.sum())
                                         for k, w in enumerate(weights)})


class TestDatasetPass:
    """approx_fuse_round against the linear-domain vote fixture of each
    item run through the scalar step loop, and against the per-item
    approx_fuse it replaces inside iterate."""

    def test_matches_per_item_reference(self):
        rng = np.random.default_rng(2031)
        checked = unsourced = 0
        worst = worst_bot = 0.0
        for _ in range(30):
            dataset = _random_dataset(rng)
            index = ClaimIndex(dataset)
            qualities = {s: _random_quality(rng) for s in index.sources}
            active = (None if rng.random() < 0.3
                      else {s for s in index.sources if rng.random() < 0.7})
            prior = _random_prior(rng)
            mode = ("literal", "example-compatible")[int(rng.integers(2))]
            prior = replace(prior, prior_mode=mode)
            fused = approx_fuse_round(index, qualities, prior, active).results()
            assert list(fused) == index.item_keys
            for item, cs in dataset.items():
                cs = cs if active is None else cs.restrict(active)
                unsourced += not cs.per_source
                got = fused[item]
                single = approx_fuse(cs, qualities, prior)
                assert single.selected_truths == got.selected_truths
                assert single.diagnostics.termination_step == got.diagnostics.termination_step
                assert single.probabilities == pytest.approx(got.probabilities, abs=1e-12)
                assert single.diagnostics.bot_votes == pytest.approx(
                    got.diagnostics.bot_votes, rel=1e-12, abs=1e-300)
                fixture = fixture_from_qualities(cs, qualities, prior)
                ref = approx_fuse_from_votes(fixture, item_id=cs.item_id, record_steps=False)
                assert got.item_id == ref.item_id
                assert got.selected_truths == ref.selected_truths
                assert got.diagnostics.termination_step == ref.diagnostics.termination_step
                assert got.probabilities.keys() == ref.probabilities.keys()
                for v, p in got.probabilities.items():
                    assert math.isfinite(p) and 0.0 <= p <= 1.0
                    worst = max(worst, abs(p - ref.probabilities[v]))
                # the dataset pass reports its stop votes divided by the
                # item's largest vote
                top = max(fixture.votes.values())
                t = got.diagnostics.termination_step
                for b, ref_b in zip(got.diagnostics.bot_votes, fixture.bot_votes[:t],
                                    strict=True):
                    worst_bot = max(worst_bot, abs(b - ref_b / top) / (ref_b / top or 1.0))
                checked += 1
        print(f"  ({checked} items, {unsourced} with no active source, worst probability "
              f"difference {worst:.2g}, worst relative stop-vote difference {worst_bot:.2g})")
        assert checked >= 300 and unsourced >= 1
        assert worst <= 1e-12
        assert worst_bot <= 1e-12

    def test_blocks_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(5)
        dataset = _random_dataset(rng)
        index = ClaimIndex(dataset)
        qualities = {s: _random_quality(rng) for s in index.sources}
        prior = _random_prior(rng)
        whole = approx_fuse_round(index, qualities, prior).results()
        monkeypatch.setattr(approx, "BLOCK_CELLS", 40)
        assert repr(approx_fuse_round(index, qualities, prior).results()) == repr(whole)

    def test_item_without_candidates_rejected(self, hockey_qualities, hockey_prior):
        # ClaimSet.from_claims refuses the item, so no index holds it
        with pytest.raises(ValueError, match="no candidate"):
            index = ClaimIndex({"d": ClaimSet.from_claims("d", {})})
            approx_fuse_round(index, hockey_qualities, hockey_prior).results()

    def test_unknown_active_source_rejected(self, hockey_claims, hockey_prior):
        index = ClaimIndex({"d": hockey_claims})
        q = SourceQuality(accuracy=0.6, recall=0.9, false_positive_rate=0.1)
        with pytest.raises(UnknownSourceError):
            approx_fuse_round(index, {"s1": q, "s2": q}, hockey_prior).results()
        # an inactive source needs no quality entry
        approx_fuse_round(index, {"s1": q, "s2": q}, hockey_prior,
                          active={"s1", "s2"}).results()


# votes with ties, both infinities, both zeros and NaN
_VOTE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                  st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_VOTE, min_size=1, max_size=7), min_size=1, max_size=6))
def test_block_ranking_is_the_lexsort_of_votes_by_item(rows):
    # the order of a block's candidates that `_fuse_block` steps through:
    # each item's candidates by decreasing vote, ties in token order
    m = np.array([len(r) for r in rows])
    start = np.concatenate(([0], np.cumsum(m)[:-1]))
    item = np.repeat(np.arange(len(rows)), m).astype(np.int32)
    log_votes = np.array([v for r in rows for v in r])
    order, row, col = approx._by_vote(log_votes, item, start, m)
    want = np.lexsort((-log_votes, item))
    assert order.tolist() == want.tolist()
    assert row.tolist() == item[want].tolist()
    assert col.tolist() == (np.arange(len(item)) - start[item[want]]).tolist()
