"""Shared fixtures: the winter-sports running example, random-instance
generators used by the property tests, and a count of the `FusionResult`s
a test builds."""

from __future__ import annotations

import numpy as np
import pytest

from multitruth import ClaimSet, FusionResult, PriorConfig, SourceQuality, VoteCountFixture

# The running example: four candidate equipment values for one item, three
# sources, two of the values true.
HOCKEY_PSI = {
    "s1": {"helmet", "stick"},
    "s2": {"stick", "boots"},
    "s3": {"helmet", "skis"},
}


@pytest.fixture
def hockey_claims() -> ClaimSet:
    return ClaimSet.from_claims("ice hockey/equipments", HOCKEY_PSI)


@pytest.fixture
def hockey_qualities() -> dict:
    q = SourceQuality(accuracy=0.6, recall=0.9, false_positive_rate=0.1, precision=0.9)
    return {s: q for s in HOCKEY_PSI}


@pytest.fixture
def hockey_prior() -> PriorConfig:
    # stop probabilities: no chance of zero truths, 0.3 of exactly one,
    # 0.4 of exactly two
    return PriorConfig(n=10, alpha=0.25, truth_count_dist={1: 0.3, 2: 0.4, 3: 0.3})


@pytest.fixture
def step_fixture() -> VoteCountFixture:
    """Hand-constructed vote counts: two strong values, two weak ones, and
    a stop vote that explodes at step 3."""
    return VoteCountFixture(
        votes={"o1": 225.0, "o2": 225.0, "o3": 15.0, "o4": 15.0},
        bot_votes=[0.1, 0.24, 18033.0],
    )


@pytest.fixture
def built(monkeypatch):
    """The item ids of the `FusionResult`s built while the test runs."""
    ids = []
    original = FusionResult.__init__

    def counted(self, *args, **kwargs):
        ids.append(kwargs.get("item_id"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(FusionResult, "__init__", counted)
    return ids


def random_instance(rng: np.random.Generator, max_values: int = 6,
                    max_sources: int = 5):
    """Draw a random small fusion instance: claims, qualities, prior."""
    n_values = int(rng.integers(1, max_values + 1))
    n_sources = int(rng.integers(1, max_sources + 1))
    values = [f"v{j}" for j in range(n_values)]
    psi = {}
    for sdx in range(n_sources):
        k = int(rng.integers(1, n_values + 1))
        chosen = rng.choice(n_values, size=k, replace=False)
        psi[f"s{sdx}"] = {values[int(j)] for j in chosen}
    claims = ClaimSet.from_claims(f"item-{rng.integers(1 << 30)}", psi)
    qualities = {
        s: SourceQuality(
            accuracy=float(rng.uniform(0.3, 0.95)),
            recall=float(rng.uniform(0.3, 0.95)),
            false_positive_rate=float(rng.uniform(0.05, 0.7)),
            precision=float(rng.uniform(0.3, 0.95)),
        )
        for s in psi
    }
    weights = rng.uniform(0.05, 1.0, size=int(rng.integers(1, 7)))
    dist = {k + 1: float(w / weights.sum()) for k, w in enumerate(weights)}
    total = sum(dist.values())
    dist = {k: p / total for k, p in dist.items()}
    prior = PriorConfig(n=int(rng.integers(1, 30)),
                        alpha=float(rng.uniform(0.05, 0.9)),
                        truth_count_dist=dist)
    return claims, qualities, prior
