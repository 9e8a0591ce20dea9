"""The benchmark's layer tracer (`bench/tracing.py`) wraps package
functions by name, so renaming or deleting one of them breaks traced
benchmark runs; this catches that in the unit tests."""

from pathlib import Path

from multitruth import approx, exact, io, model, quality, synth


def test_tracer_installs_and_restores_its_wrappers(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    owners = (approx, exact, io, model, quality, synth, model.ClaimSet, model.SourceQuality)
    before = [dict(vars(owner)) for owner in owners]
    with Tracer().installed():
        assert synth.fusion_backend("hybrid-exact").method == "hybrid-exact"
    assert [dict(vars(owner)) for owner in owners] == before
