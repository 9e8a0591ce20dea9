"""The frame the dataset passes run in: the shared block splitter and
the round each pass hands back."""

import numpy as np
import pytest

from multitruth import PriorConfig
from multitruth.approx import approx_fuse_round
from multitruth.baselines import accu_round, majority_round, precrec_round, twostep_round
from multitruth.exact import exact_fuse_round
from multitruth.index import ClaimIndex, blocks


def test_blocks_cover_items_within_budget():
    rng = np.random.default_rng(18)
    alone = 0
    for _ in range(300):
        n = int(rng.integers(0, 40))
        rows = rng.integers(1, 50, size=n).tolist()
        cols = rng.integers(1, 30, size=n).tolist()
        budget = int(rng.integers(1, 2000))
        ranges = list(blocks(rows, cols, budget))
        # consecutive, in order, each item exactly once
        assert [d for lo, hi in ranges for d in range(lo, hi)] == list(range(n))
        assert all(lo < hi for lo, hi in ranges)
        for lo, hi in ranges:
            cells = sum(rows[lo:hi]) * max(cols[lo:hi])
            assert cells <= budget or hi - lo == 1
            # a range ends only where the next item would overflow it
            if hi < n:
                assert sum(rows[lo:hi + 1]) * max(cols[lo:hi + 1]) > budget
        # an item over the budget on its own shares no range
        for d in range(n):
            if rows[d] * cols[d] > budget:
                assert (d, d + 1) in ranges
                alone += 1
    assert alone >= 100


@pytest.mark.parametrize("fuse_round", [approx_fuse_round, exact_fuse_round, accu_round,
                                        majority_round, precrec_round, twostep_round],
                         ids=["approx", "exact", "accu", "majority", "precrec", "twostep"])
def test_empty_index_gives_an_empty_round(fuse_round):
    fused = fuse_round(ClaimIndex({}), {}, PriorConfig())
    assert fused.probabilities.shape == (0,)
    assert fused.results() == {}
