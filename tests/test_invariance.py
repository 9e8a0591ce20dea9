"""Results do not depend on incidental choices of the input: renaming every
source and item, in a way that keeps their `str` order, or writing every
claim row twice, gives every registered method the same results bit for
bit; fusing item by item gives the results of the dataset round; and the
engines' block budget does not change a round."""

import json
from dataclasses import replace

import pytest
from click.testing import CliRunner

from multitruth import ClaimSet, IterationConfig, PriorConfig, approx, exact, iterate
from multitruth import io as mio
from multitruth.cli import main
from multitruth.methods import FUSION_BACKENDS, fusion_backend, method_iteration_config
from multitruth.index import blocks, claims_by_item
from multitruth.synth import SynthConfig, generate, truth_count_distribution

# `hybrid-exact` runs on the `fuse_exact` bench settings, whose items stay
# within the exact engine's candidate cap; the other methods on the
# `compare_methods` settings
EXACT_SETTINGS = dict(num_items=150, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                      source_accuracy=0.9, source_recall=0.9)
COMPARE_SETTINGS = dict(num_items=100)


def _rows(method, seed):
    """The claim rows of a generated dataset with a `junk` source giving a
    value of its own on every item, which fails the good-source test, so
    that later rounds fuse with a source left out; and the prior they are
    fused with."""
    cfg = SynthConfig(**(EXACT_SETTINGS if method == "hybrid-exact" else COMPARE_SETTINGS),
                      rng_seed=seed)
    claims, _ = generate(cfg)
    claims += [("junk", item, "junk") for item in sorted({c.item_id for c in claims})]
    return claims, PriorConfig(truth_count_dist=truth_count_distribution(cfg))


def _dataset(method, seed):
    claims, prior = _rows(method, seed)
    return claims_by_item(claims), prior


def _per_item(backend):
    """`backend` as a plain callable, as the benchmark's tracer wraps it,
    which `iterate` calls item by item."""
    return lambda claims, qualities, prior: backend(claims, qualities, prior)


def _order_keeping(names, prefix):
    """New names for `names` whose `str` order is the old one."""
    return {old: f"{prefix}{rank:05d}" for rank, old in enumerate(sorted(names, key=str))}


def _renamed(dataset, item_name, source_name):
    return {item_name[item]: ClaimSet(
        item_id=item_name[cs.item_id], candidates=cs.candidates,
        per_source={source_name[s]: values for s, values in cs.per_source.items()})
        for item, cs in dataset.items()}


@pytest.mark.parametrize("path", ["registered", "per-item"])
@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
def test_order_keeping_renaming(method, path):
    dataset, prior = _dataset(method, seed=1)
    item_name = _order_keeping(dataset, "item-")
    source_name = _order_keeping({s for cs in dataset.values() for s in cs.per_source}, "src-")
    registered = fusion_backend(method)
    backend = registered if path == "registered" else _per_item(registered)
    config = method_iteration_config(method, IterationConfig())
    results, qualities, records = iterate(dataset, prior, backend, config)
    got = iterate(_renamed(dataset, item_name, source_name), prior, backend, config)

    expected_results = {}
    for item, r in results.items():
        old, new = repr(r.item_id), repr(item_name[r.item_id])
        notes = [note.replace(old, new) for note in r.diagnostics.notes]
        expected_results[item_name[item]] = replace(
            r, item_id=item_name[r.item_id], diagnostics=replace(r.diagnostics, notes=notes))
    assert repr(got[0]) == repr(expected_results)
    assert repr(got[1]) == repr({source_name[s]: q for s, q in qualities.items()})
    assert repr(got[2]) == repr([replace(r, source=source_name[r.source]) for r in records])
    # junk was left out of some round, so the renaming reached `active`
    assert method == "majority" or any(r.source == "junk" and not r.good for r in records)


@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
def test_rows_written_twice(method, tmp_path):
    rows, prior = _rows(method, seed=1)
    twice = [row for row in rows for _ in range(2)]
    backend = fusion_backend(method)
    config = method_iteration_config(method, IterationConfig())
    assert repr(iterate(claims_by_item(twice), prior, backend, config)) == \
        repr(iterate(claims_by_item(rows), prior, backend, config))

    summaries = {}
    for name, claims in (("once", rows), ("twice", twice)):
        path = tmp_path / f"claims-{name}.csv"
        mio.write_claims_csv(claims, path)
        _, report = mio.load_claims(path)
        assert (report.n_rows, report.n_claims) == (len(claims), len(rows))
        assert report.n_duplicates == len(claims) - len(rows)
        result = CliRunner().invoke(main, ["fuse", "--method", method, "--claims", str(path),
                                           "--out", str(tmp_path / f"fused-{name}")])
        assert result.exit_code == 0, result.output
        summaries[name] = json.loads((tmp_path / f"fused-{name}.json").read_text())
    assert (tmp_path / "fused-twice.csv").read_bytes() == (tmp_path / "fused-once.csv").read_bytes()
    assert summaries["twice"].pop("load_report") == {
        "rows": 2 * len(rows), "claims": len(rows), "duplicates": len(rows)}
    assert summaries["once"].pop("load_report")["duplicates"] == 0
    assert summaries["twice"] == summaries["once"]


@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
def test_per_item_path_on_an_index(method):
    # `iterate` fuses a plain callable item by item, on the `ClaimSet`
    # views of the index, restricted where a round leaves a source out
    rows, prior = _rows(method, seed=1)
    index = claims_by_item(rows)
    registered = fusion_backend(method)
    config = method_iteration_config(method, IterationConfig())
    want = iterate(index, prior, registered, config)
    got = iterate(index, prior, _per_item(registered), config)
    assert method == "majority" or any(not r.good for r in want[2])
    if method != "hybrid":
        assert repr(got) == repr(want)
        return
    # `approx_fuse` scales each item's votes by its largest, where the
    # round runs in the log domain: the two agree to rounding
    assert got[0].keys() == want[0].keys()
    for item, r in want[0].items():
        assert got[0][item].probabilities.keys() == r.probabilities.keys()
        for v, p in r.probabilities.items():
            assert got[0][item].probabilities[v] == pytest.approx(p, rel=0, abs=1e-12)
        assert got[0][item].selected_truths == r.selected_truths
        assert got[0][item].diagnostics.termination_step == r.diagnostics.termination_step
    assert [(r.iteration, r.source, r.good) for r in got[2]] == [
        (r.iteration, r.source, r.good) for r in want[2]]


@pytest.mark.parametrize("method, engine, fuse_round", [
    ("hybrid", approx, approx.approx_fuse_round),
    ("hybrid-exact", exact, exact.exact_fuse_round),
], ids=["hybrid", "hybrid-exact"])
def test_block_budget(method, engine, fuse_round, monkeypatch):
    """A round with every item in a block of its own equals the round in
    the default blocks, with the last round's qualities and `junk` left
    out."""
    rows, prior = _rows(method, seed=1)
    index = claims_by_item(rows)
    _, qualities, _ = iterate(index, prior, fusion_backend(method))
    active = set(index.sources) - {"junk"}
    rounds = {}
    for cells in (engine.BLOCK_CELLS, 1):
        monkeypatch.setattr(engine, "BLOCK_CELLS", cells)
        fused = fuse_round(index, qualities, prior, active)
        results = fused.results()
        rounds[cells] = repr((fused.probabilities.tolist(), results))
        if method == "hybrid":
            assert all(len(r.diagnostics.bot_votes) == r.diagnostics.termination_step
                       for r in results.values())
    assert rounds[1] == rounds[engine.BLOCK_CELLS]
    if method == "hybrid":
        # every item stops well before its default block's widest item,
        # where the loop stops building stop votes
        steps = [r.diagnostics.termination_step for r in results.values()]
        widths = index.cand_count.tolist()
        for lo, hi in blocks([1] * len(index), widths, approx.BLOCK_CELLS):
            assert 2 * max(steps[lo:hi]) < max(widths[lo:hi])
