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
