"""The frame the dataset passes run in: the shared block splitter, the
per-source terms, and the round each pass hands back."""

import numpy as np
import pytest

from multitruth import ClaimSet, PriorConfig, SourceQuality, UnknownSourceError
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


# two items that no source provides
NO_SOURCE = {"d": ClaimSet(item_id="d", per_source={}, candidates=frozenset({"a", "b"})),
             "e": ClaimSet(item_id="e", per_source={}, candidates=frozenset({"x"}))}


def test_source_terms_in_source_order():
    index = ClaimIndex({"d": ClaimSet.from_claims("d", {"s2": ["a"], "s1": ["b"], "s3": ["a"]})})
    qualities = {"s1": SourceQuality(accuracy=0.8, recall=0.6, false_positive_rate=0.2),
                 "s2": SourceQuality(accuracy=0.5, recall=0.7, false_positive_rate=0.1)}
    # s3 is inactive and has no quality
    scalar = index.source_terms(qualities, {"s1", "s2"}, lambda q: q.accuracy, -1.0)
    assert scalar.shape == (3,)
    assert scalar.tolist() == [0.8, 0.5, -1.0]
    rows = index.source_terms(qualities, {"s2"}, lambda q: (q.accuracy, q.recall), (7.0, 8.0))
    assert rows.shape == (3, 2)
    assert rows.tolist() == [[7.0, 8.0], [0.5, 0.7], [7.0, 8.0]]
    # every source is active when `active` is None
    with pytest.raises(UnknownSourceError, match="'s3'"):
        index.source_terms(qualities, None, lambda q: q.accuracy, 0.0)


def test_source_terms_without_sources():
    index = ClaimIndex(NO_SOURCE)
    assert index.source_terms({}, None, lambda q: 1.0, 0.0).shape == (0,)
    assert index.source_terms({}, None, lambda q: (1.0, 2.0, 3.0), (0.0, 0.0, 0.0)).shape == (0, 3)


TIE = "tie among ['a', 'b']; selected 'a' lexicographically"


@pytest.mark.parametrize("fuse_round, probabilities, truths, notes", [
    (approx_fuse_round, [0.8999999999999999, 0.8999999999999999, 1.0], [["a", "b"], ["x"]],
     [[], []]),
    (exact_fuse_round, [0.9, 0.9, 1.0], [["a", "b"], ["x"]], [[], []]),
    (accu_round, [0.5, 0.5, 1.0], [["a"], ["x"]], [[TIE], []]),
    (majority_round, [1.0, 1.0, 1.0], [["a"], ["x"]],
     [["no active source provided item 'd'", TIE], ["no active source provided item 'e'"]]),
    (precrec_round, [0.25, 0.25, 0.25], [[], []], [[], []]),
    (twostep_round, [0.5, 0.5, 1.0], [["a"], ["x"]],
     [["no active source provided item 'd'; k=1"], ["no active source provided item 'e'; k=1"]]),
], ids=["approx", "exact", "accu", "majority", "precrec", "twostep"])
def test_rounds_on_items_without_sources(fuse_round, probabilities, truths, notes):
    fused = fuse_round(ClaimIndex(NO_SOURCE), {}, PriorConfig())
    assert fused.probabilities.tolist() == probabilities
    results = fused.results()
    assert [results[d].selected_truths for d in "de"] == truths
    assert [results[d].diagnostics.notes for d in "de"] == notes
