"""Domain types, value normalization, priors, and the stop schedule."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from multitruth import (
    BOTTOM,
    Claim,
    ClaimSet,
    PriorConfig,
    SourceQuality,
    VoteCountFixture,
    beta_at,
    claims_by_item,
    derive_q,
)
from multitruth.model import (
    BETA_CAP,
    normalize_value,
    prior_slot_count,
    sort_values,
)


class TestNormalizeValue:
    def test_strips_and_nfc(self):
        assert normalize_value("  helmet ") == "helmet"
        # e + combining acute collapses to the precomposed form
        assert normalize_value("café") == "café"

    def test_non_strings_pass_through(self):
        assert normalize_value(42) == 42
        assert normalize_value(("a", 1)) == ("a", 1)


class TestClaimSet:
    def test_from_claims_builds_indexes(self, hockey_claims):
        assert hockey_claims.candidates == {"helmet", "stick", "boots", "skis"}
        assert set(hockey_claims.per_source) == {"s1", "s2", "s3"}

    def test_values_normalized(self):
        cs = ClaimSet.from_claims("d", {"s": [" helmet "]})
        assert cs.candidates == {"helmet"}

    def test_empty_value_set_rejected(self):
        with pytest.raises(ValueError, match="provides no value"):
            ClaimSet.from_claims("d", {"s": []})

    def test_empty_item_rejected(self):
        # every engine relies on this: an item has at least one candidate
        with pytest.raises(ValueError, match="item 'd' has no candidate value"):
            ClaimSet(item_id="d", per_source={}, candidates=frozenset())
        with pytest.raises(ValueError, match="item 'd' has no candidate value"):
            ClaimSet.from_claims("d", {})

    def test_restrict_keeps_candidates(self, hockey_claims):
        sub = hockey_claims.restrict({"s1"})
        assert sub.candidates == hockey_claims.candidates
        assert sub.per_source == {"s1": hockey_claims.per_source["s1"]}

    def test_restrict_to_every_source_is_identity(self, hockey_claims):
        assert hockey_claims.restrict({"s1", "s2", "s3", "s9"}) is hockey_claims
        assert hockey_claims.restrict(["s3", "s2", "s1"]) is hockey_claims
        assert hockey_claims.restrict({"s1", "s2"}) is not hockey_claims

    def test_claims_by_item_groups_and_dedups(self):
        claims = [
            Claim("s1", "d1", "a"),
            Claim("s1", "d1", "a"),
            Claim("s2", "d1", "b"),
            Claim("s1", "d2", "c"),
        ]
        grouped = claims_by_item(claims)
        assert set(grouped) == {"d1", "d2"}
        assert grouped["d1"].per_source["s1"] == {"a"}
        assert grouped["d1"].candidates == {"a", "b"}


class TestSourceQuality:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="accuracy"):
            SourceQuality(accuracy=1.2, recall=0.5, false_positive_rate=0.1)

    def test_clamped_pulls_off_poles(self):
        q = SourceQuality(accuracy=1.0, recall=0.0, false_positive_rate=1.0)
        c = q.clamped()
        assert c.accuracy == 1.0 - 1e-6
        assert c.recall == 1e-6
        assert c.false_positive_rate == 1.0 - 1e-6


class TestDeriveQ:
    def test_worked_value(self):
        # alpha/(1-alpha) * (1-P)/P * R with P=0.6, R=0.5, alpha=0.25
        assert derive_q(0.6, 0.5, 0.25) == pytest.approx((0.25 / 0.75) * (0.4 / 0.6) * 0.5)

    def test_zero_precision_rejected(self):
        with pytest.raises(ValueError, match="precision is zero"):
            derive_q(0.0, 0.5, 0.25)

    def test_clamps_above_one(self, caplog):
        with caplog.at_level("WARNING"):
            assert derive_q(0.05, 1.0, 0.5) == 1.0
        assert "clamped" in caplog.text

    @given(p=st.floats(0.05, 1.0), r=st.floats(0.0, 1.0), a=st.floats(0.05, 0.95))
    def test_monotone_in_recall_and_inverse_in_precision(self, p, r, a):
        q = derive_q(p, r, a)
        assert 0.0 <= q <= 1.0
        assert derive_q(p, r * 0.5, a) <= q + 1e-12


class TestPriorConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            PriorConfig(n=0)
        with pytest.raises(ValueError, match="alpha"):
            PriorConfig(alpha=1.0)
        with pytest.raises(ValueError, match="sum"):
            PriorConfig(truth_count_dist={1: 0.5, 2: 0.4})
        with pytest.raises(ValueError, match="positive integers"):
            PriorConfig(truth_count_dist={0: 0.5, 1: 0.5})
        with pytest.raises(ValueError, match="invalid prior_mode 'bogus'"):
            PriorConfig(prior_mode="bogus")

    def test_default_truth_dist_uniform(self):
        p = PriorConfig()
        assert p.truth_count_dist == {k: 0.2 for k in range(1, 6)}


class TestBetaSchedule:
    def test_cdf_values(self):
        prior = PriorConfig(truth_count_dist={1: 0.3, 2: 0.4, 3: 0.3})
        assert beta_at(prior, 1) == 0.0
        assert beta_at(prior, 2) == pytest.approx(0.3)
        assert beta_at(prior, 3) == pytest.approx(0.7)

    def test_capped_past_support(self):
        prior = PriorConfig(truth_count_dist={1: 1.0})
        assert beta_at(prior, 5) == BETA_CAP

    def test_step_index_validated(self):
        with pytest.raises(ValueError):
            beta_at(PriorConfig(), 0)

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_monotone_nondecreasing(self, weights):
        total = sum(weights)
        dist = {k + 1: w / total for k, w in enumerate(weights)}
        total2 = sum(dist.values())
        dist = {k: p / total2 for k, p in dist.items()}
        prior = PriorConfig(truth_count_dist=dist)
        betas = [beta_at(prior, i) for i in range(1, len(dist) + 3)]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(betas, betas[1:]))


class TestPriors:
    def test_prior_slot_count_modes(self):
        prior = PriorConfig()
        assert prior_slot_count(replace(prior, prior_mode="literal"), 4, 2) == 3
        assert prior_slot_count(replace(prior, prior_mode="example-compatible"), 4, 2) == 4
        with pytest.raises(ValueError, match="prior_mode"):
            prior_slot_count(replace(prior, prior_mode="bogus"), 4, 2)


class TestVoteCountFixture:
    def test_validation(self):
        with pytest.raises(ValueError, match="stop vote"):
            VoteCountFixture(votes={"a": 1.0}, bot_votes=[])
        with pytest.raises(ValueError, match="positive"):
            VoteCountFixture(votes={"a": 0.0}, bot_votes=[1.0])
        with pytest.raises(ValueError, match="non-negative"):
            VoteCountFixture(votes={"a": 1.0}, bot_votes=[-1.0])
        with pytest.raises(ValueError, match="finite"):
            VoteCountFixture(votes={"a": 1.0, "b": math.inf}, bot_votes=[1.0])
        with pytest.raises(ValueError, match="finite"):
            VoteCountFixture(votes={"a": 1.0}, bot_votes=[0.5, math.inf])

    def test_bot_at_reuses_last(self):
        f = VoteCountFixture(votes={"a": 1.0, "b": 2.0, "c": 3.0}, bot_votes=[0.5, 4.0])
        assert f.bot_at(1) == 0.5
        assert f.bot_at(2) == 4.0
        assert f.bot_at(3) == 4.0


def test_sort_values_descending_with_lex_ties():
    votes = {"b": 2.0, "a": 2.0, "c": 5.0, "d": 0.1}
    assert sort_values(votes) == ["c", "a", "b", "d"]


def test_bottom_repr():
    assert repr(BOTTOM) == "<bottom>"
