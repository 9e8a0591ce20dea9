"""The benchmark's layer tracer (`bench/tracing.py`) wraps package
functions by name, so renaming or deleting one of them breaks traced
benchmark runs; this catches that in the unit tests."""

from pathlib import Path

import pytest

from multitruth import approx, exact, io, model, quality, synth


@pytest.fixture
def Tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer
    return Tracer


def test_tracer_installs_and_restores_its_wrappers(Tracer):
    owners = (approx, exact, io, model, quality, synth, model.ClaimSet, model.SourceQuality)
    before = [dict(vars(owner)) for owner in owners]
    with Tracer().installed():
        assert synth.fusion_backend("hybrid-exact").method == "hybrid-exact"
    assert [dict(vars(owner)) for owner in owners] == before


def test_tracer_times_parsing_and_grouping_of_a_load(Tracer, tmp_path):
    # io.group_s is the io.claims_by_item span and io.parse_s the rest of
    # io.load_claims: the load must call the grouping through the module
    path = tmp_path / "claims.csv"
    path.write_text("source_id,item_id,value\ns1,d1,a\ns2,d1,b\ns1,d2,c\n")
    with Tracer().installed() as tracer:
        io.load_claims(path)
    assert (tracer.counts["io.load_claims"], tracer.counts["io.claims_by_item"]) == (1, 1)


def test_traced_exact_iterate_equals_the_plain_run(Tracer):
    # the tracer's engine wrapper is a plain function, so `iterate` fuses
    # through it item by item (`ClaimSet.restrict`, one-item indexes)
    # where the plain backend makes one dataset pass per round
    cfg = synth.SynthConfig(num_items=40, truth_count_max=2, false_domain_size=4,
                            extra_ratio=0.6, source_accuracy=0.9, source_recall=0.9,
                            rng_seed=1)
    claims = synth.generate(cfg)[0]
    # a source that gives a value of its own on every item fails the
    # good-source test, so later rounds fuse with it left out
    claims += [("junk", item, "junk") for item in sorted({c.item_id for c in claims})]
    dataset = io.claims_by_item(claims)
    prior = model.PriorConfig(n=10, alpha=0.25,
                              truth_count_dist=synth.truth_count_distribution(cfg))
    backend = synth.fusion_backend("hybrid-exact")
    tracer = Tracer()
    traced = tracer.engine("hybrid-exact", backend)
    assert not hasattr(traced, "fuse_dataset")
    plain = quality.iterate(dataset, prior, backend)
    assert repr(quality.iterate(dataset, prior, traced)) == repr(plain)
    assert tracer.counts["engine"] == len(dataset) * (max(r.iteration for r in plain[2]) + 1)
    # some round left a source out, so the per-item path restricted items
    assert any(not r.good for r in plain[2])


def test_traced_hybrid_iterate_agrees_with_the_plain_run(Tracer):
    # through the tracer's wrapper `iterate` fuses item by item with
    # `approx_fuse`, which scales the votes by each item's largest, while
    # the plain backend runs the array pass in the log domain: the two
    # agree to rounding, not to the last bit
    cfg = synth.SynthConfig(num_items=60, rng_seed=1)
    claims = synth.generate(cfg)[0]
    claims += [("junk", item, "junk") for item in sorted({c.item_id for c in claims})]
    dataset = io.claims_by_item(claims)
    prior = model.PriorConfig(n=10, alpha=0.25,
                              truth_count_dist=synth.truth_count_distribution(cfg))
    backend = synth.fusion_backend("hybrid")
    traced = Tracer().engine("hybrid", backend)
    assert not hasattr(traced, "fuse_dataset")
    plain, plain_qualities, plain_records = quality.iterate(dataset, prior, backend)
    per_item, per_item_qualities, per_item_records = quality.iterate(dataset, prior, traced)
    assert plain.keys() == per_item.keys()
    for item, want in plain.items():
        got = per_item[item]
        assert got.probabilities.keys() == want.probabilities.keys()
        for v, p in want.probabilities.items():
            assert got.probabilities[v] == pytest.approx(p, rel=0, abs=1e-12)
        assert got.selected_truths == want.selected_truths
        assert got.diagnostics.termination_step == want.diagnostics.termination_step
    assert [(r.iteration, r.source, r.good) for r in per_item_records] == [
        (r.iteration, r.source, r.good) for r in plain_records]
    for s, q in plain_qualities.items():
        assert per_item_qualities[s].accuracy == pytest.approx(q.accuracy, rel=0, abs=1e-12)
    # some round left a source out, so the per-item path restricted items
    assert any(not r.good for r in plain_records)
