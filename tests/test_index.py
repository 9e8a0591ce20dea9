"""The frame the dataset passes run in: the grouping of claim rows into
an index, the shared block splitter, the per-source terms, and the round
each pass hands back."""

from typing import Any, Dict, Iterable, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multitruth
from multitruth import (ClaimSet, IterationConfig, PriorConfig, SourceQuality,
                        UnknownSourceError, io, iterate, model)
from multitruth.approx import approx_fuse_round
from multitruth.baselines import accu_round, majority_round, precrec_round, twostep_round
from multitruth.exact import exact_fuse_round
from multitruth.index import ClaimIndex, blocks, claims_by_item, group_columns
from multitruth.methods import FUSION_BACKENDS, method_iteration_config
from multitruth.synth import SynthConfig, generate, truth_count_distribution


def reference_claims_by_item(claims: Iterable[Tuple[Any, Any, Any]]) -> Dict[Any, ClaimSet]:
    """The grouping as a dict of per-item ClaimSets, one row at a time:
    the reference `claims_by_item` is checked against."""
    grouped: Dict[Any, Dict[Any, set]] = {}
    for source, item, value in claims:
        grouped.setdefault(item, {}).setdefault(source, set()).add(value)
    return {item: ClaimSet.from_claims(item, psi) for item, psi in grouped.items()}


INDEX_LISTS = ("item_keys", "item_ids", "sources", "tokens")
INDEX_ARRAYS = ("cand_start", "cand_count", "cand_item", "pair_start", "claim_start",
                "pair_item", "pair_source", "pair_size", "claim_pair", "claim_cand")


def assert_same_index(got: ClaimIndex, want: ClaimIndex):
    for name in INDEX_LISTS:
        assert getattr(got, name) == getattr(want, name), name
    for name in INDEX_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


def assert_groups_as_reference(rows):
    """`claims_by_item(rows)` has the arrays of `ClaimIndex` laid out from
    the reference dict, and every view equals the reference's ClaimSet;
    `group_columns` of the rows' columns is the same index."""
    want = reference_claims_by_item(rows)
    got = claims_by_item(rows)
    assert_same_index(got, ClaimIndex(want))
    assert_same_index(group_columns(*([list(c) for c in zip(*rows)] or [[], [], []])), got)
    assert list(got) == sorted(want, key=str)
    assert {item: got[item] for item in got} == want
    # the views lay out again into the same index
    assert_same_index(ClaimIndex(got), got)


# the benchmark's three workloads, by their generator settings
BENCH_SETTINGS = {
    "fuse_hybrid": dict(num_items=1000),
    "fuse_exact": dict(num_items=150, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                       source_accuracy=0.9, source_recall=0.9),
    "compare_methods": dict(num_items=100),
}


@pytest.mark.parametrize("workload", sorted(BENCH_SETTINGS))
def test_grouping_of_bench_data(workload):
    assert_groups_as_reference(generate(SynthConfig(**BENCH_SETTINGS[workload], rng_seed=1))[0])


def test_grouping_rejects_columns_of_different_lengths():
    with pytest.raises(ValueError, match="columns of 2 sources, 1 items and 2 values"):
        group_columns(["s1", "s2"], ["d1"], ["a", "b"])


def test_grouping_collapses_duplicates_and_normalised_values():
    rows = [("s1", "d1", "a"), ("s1", "d1", "a"), ("s2", "d1", "b"), ("s1", "d2", "c"),
            ("s2", "d1", "b"), ("s1", "d3", " café"), ("s2", "d3", "café"),
            ("s1", "d3", "cafe\u0301 "), ("s3", "d3", "\tcafé\n"), ("s3", "d3", "cafe")]
    assert_groups_as_reference(rows)
    index = claims_by_item(rows)
    assert index["d3"].candidates == {"café", "cafe"}
    assert index["d3"].per_source == {"s1": {"café"}, "s2": {"café"}, "s3": {"café", "cafe"}}
    assert len(index.claim_cand) == 7


def test_grouping_of_non_str_ids_and_values():
    rows = [(1, ("d", 2), 10), (2, ("d", 2), (1, "x")), (1, 7, " y "), ("s", 7, 10),
            (1, ("d", 2), 10), (2, 7, (1, "x"))]
    assert_groups_as_reference(rows)
    index = claims_by_item(rows)
    assert index.item_keys == [("d", 2), 7]
    assert index.sources == [1, 2, "s"]
    assert index[7].per_source == {1: {"y"}, "s": {10}, 2: {(1, "x")}}


def test_grouping_of_an_item_with_a_thousand_sources():
    rows = [(f"x{j:04d}", "wide", f"v{j % 7}") for j in range(1000)]
    rows += [(f"x{j:04d}", "wide", f"w{j % 3}") for j in range(0, 1000, 4)]
    rows += [("x0001", "narrow", "v1"), ("x0999", "narrow", "v2")]
    assert_groups_as_reference(rows)


def test_grouping_of_no_rows():
    index = claims_by_item([])
    assert len(index) == 0 and list(index) == []
    assert_same_index(index, ClaimIndex({}))


def test_grouping_rejects_rows_that_are_not_triples():
    with pytest.raises(ValueError):
        claims_by_item([("s1", "d1", "a"), ("s1", "d1")])
    with pytest.raises(ValueError):
        claims_by_item([("s1", "d1", "a", "b")])


def test_grouping_is_one_function_reachable_from_every_module_that_named_it():
    assert multitruth.claims_by_item is io.claims_by_item is model.claims_by_item \
        is claims_by_item


def test_index_reads_as_a_mapping():
    index = claims_by_item([("s1", "d1", "a"), ("s2", "d2", "b")])
    assert "d1" in index and "d3" not in index
    assert list(index.keys()) == ["d1", "d2"]
    assert index.get("d3") is None
    with pytest.raises(KeyError):
        index["d3"]
    with pytest.raises(TypeError):
        index["d3"] = index["d1"]


# text that collapses under normalisation (spaces, tabs, a composed and a
# decomposed accent), with no digits or brackets, so that no text value
# has the `str` of an int or a tuple value
_TEXT = st.text(alphabet=" \tabe\u00e9\u0301", max_size=4)
_VALUE = st.one_of(_TEXT, st.integers(-3, 30), st.tuples(st.integers(0, 2), st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(["s1", "s2", "s3"]), st.integers(0, 3)),
                          st.one_of(st.sampled_from(["d1", "d2", "d3"]), st.integers(0, 3)),
                          _VALUE), max_size=40))
def test_grouping_of_drawn_rows(rows):
    assert_groups_as_reference(rows)


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


# every registered backend, and a plain per-item callable, which `iterate`
# fuses item by item and whose round has no selection
SELECTING = {**FUSION_BACKENDS, "plain": lambda claims, qualities, prior:
             FUSION_BACKENDS["hybrid"](claims, qualities, prior)}


def assert_selections_are_the_results(dataset, prior, name):
    method = "hybrid" if name == "plain" else name
    results = iterate(dataset, prior, SELECTING[name],
                      method_iteration_config(method, IterationConfig()))[0]
    before = results.selections()
    # a round with a selection hands it out without building the results
    assert (results.round is None) == (name == "plain")
    want = {item: set(r.selected_truths) for item, r in results.items()}
    after = results.selections()
    for got in (before, after):
        assert list(got) == list(dataset)
        assert {item: set(values) for item, values in got.items()} == want
        assert all(len(values) == len(set(values)) for values in got.values())


# the exact engine runs only on the workload whose items are within its cap
@pytest.mark.parametrize("workload, name", [
    (workload, name) for workload in ("compare_methods", "fuse_exact") for name in sorted(SELECTING)
    if name != "hybrid-exact" or workload == "fuse_exact"])
def test_selections_are_the_results_on_bench_data(workload, name):
    cfg = SynthConfig(**BENCH_SETTINGS[workload], rng_seed=1)
    prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
    assert_selections_are_the_results(claims_by_item(generate(cfg)[0]), prior, name)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["s1", "s2", "s3", "s4"]),
                          st.sampled_from(["d1", "d2", "d3", "d4"]),
                          st.sampled_from("abcdef")), min_size=1, max_size=40))
def test_selections_are_the_results_on_drawn_data(rows):
    dataset = claims_by_item(rows)
    for name in sorted(SELECTING):
        assert_selections_are_the_results(dataset, PriorConfig(), name)
