"""End-to-end acceptance checks, one per criterion (A1-A14).

Each test prints a single "An: PASS" / "An: FAIL" line (visible with
`pytest -s`, or in the captured-output section on failure); `pytest -v`
additionally reports one PASSED/FAILED line per criterion.
"""

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from multitruth import (
    BOTTOM,
    ClaimSet,
    FusionError,
    FusionResult,
    PriorConfig,
    SourceQuality,
    SynthConfig,
    VoteCountFixture,
    accu_fuse,
    approx_fuse_from_votes,
    beta_at,
    category_probs,
    compare,
    conditional_prob,
    exact_fuse,
    exact_fuse_from_votes,
    fixture_from_qualities,
    joint_likelihood,
    update_accuracy,
    update_precision,
    update_recall,
    verify_bound,
)
from multitruth import io as mio
from multitruth.approx import ERROR_BOUND, case_one_fixture
from multitruth.model import FusionDiagnostics

from conftest import HOCKEY_PSI


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL", flush=True)
        raise
    print(f"{name}: PASS", flush=True)


def _hockey_claims():
    return ClaimSet.from_claims("ice hockey/equipments", HOCKEY_PSI)


def _hockey_qualities():
    q = SourceQuality(accuracy=0.6, recall=0.9, false_positive_rate=0.1,
                      precision=0.9)
    return {s: q for s in HOCKEY_PSI}


def _hockey_prior():
    return PriorConfig(n=10, alpha=0.25, truth_count_dist={1: 0.3, 2: 0.4, 3: 0.3})


def _step_fixture():
    return VoteCountFixture(votes={"o1": 225.0, "o2": 225.0, "o3": 15.0, "o4": 15.0},
                            bot_votes=[0.1, 0.24, 18033.0])


def test_a01_single_truth_reproduction():
    with criterion("A1"):
        claims = _hockey_claims()
        qualities = {s: SourceQuality(accuracy=0.6, recall=0.5,
                                      false_positive_rate=0.1) for s in HOCKEY_PSI}
        r = accu_fuse(claims, qualities, n=10)
        assert r.probabilities["helmet"] == pytest.approx(0.47, abs=0.005)
        assert r.probabilities["stick"] == pytest.approx(0.47, abs=0.005)
        assert r.probabilities["boots"] == pytest.approx(0.03, abs=0.005)
        assert r.probabilities["skis"] == pytest.approx(0.03, abs=0.005)
        accu_fuse(claims, qualities, n=10)  # warm up
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            accu_fuse(claims, qualities, n=10)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"single-item fusion took {best * 1e3:.3f} ms"


def test_a02_category_probabilities():
    with criterion("A2"):
        q = SourceQuality(accuracy=0.6, recall=0.9, false_positive_rate=0.1)
        p = category_probs(q, 10)
        assert abs(p.p_consistent - 0.54) < 1e-12
        assert abs(p.p_inconsistent - 0.036) < 1e-12
        assert abs(p.p_extra - 0.01) < 1e-12
        assert abs(p.p_missing - 0.1) < 1e-12
        assert abs(p.p_no_extra - 0.9) < 1e-12


def test_a03_joint_likelihood():
    with criterion("A3"):
        claims, qualities = _hockey_claims(), _hockey_qualities()
        joint = math.exp(joint_likelihood(claims, qualities, ["helmet"], "stick", 10))
        assert joint == pytest.approx(1.102e-4, rel=0.01)
        joint_stop = math.exp(joint_likelihood(claims, qualities, ["helmet"],
                                               BOTTOM, 10))
        assert joint_stop == pytest.approx(1.05e-8, rel=0.02)


def test_a04_conditional_both_prior_modes():
    with criterion("A4"):
        claims, qualities, prior = _hockey_claims(), _hockey_qualities(), _hockey_prior()
        for mode in ("example-compatible", "literal"):
            p = conditional_prob(claims, qualities, replace(prior, prior_mode=mode),
                                 ["helmet"], "stick")
            assert p == pytest.approx(0.88, abs=0.01), mode


def test_a05_step_loop_on_injected_votes():
    with criterion("A5"):
        r = approx_fuse_from_votes(_step_fixture())
        inc = [s.increments["o2"] for s in r.diagnostics.steps]
        assert inc[0] == pytest.approx(0.469, abs=0.005)
        assert inc[1] == pytest.approx(0.469, abs=0.005)
        assert inc[2] == pytest.approx(0.0008, abs=0.005)
        assert 0.93 <= r.probabilities["o2"] <= 0.95
        assert r.diagnostics.termination_step == 3
        assert set(r.selected_truths) == {"o1", "o2"}


def test_a06_exact_enumeration_on_injected_votes():
    with criterion("A6"):
        r = exact_fuse_from_votes(_step_fixture())
        assert r.probabilities["o1"] == pytest.approx(0.92, abs=0.01)
        assert r.probabilities["o2"] == pytest.approx(0.92, abs=0.01)
        assert r.probabilities["o3"] == pytest.approx(0.08, abs=0.01)
        assert r.probabilities["o4"] == pytest.approx(0.08, abs=0.01)


def test_a07_error_bound_property():
    # 1/6 is the limit of the case_one_fixture worst-case family, not a
    # bound on every instance (README, "A note on the approximation's
    # error"), so breaches are counted and limited rather than forbidden.
    with criterion("A7"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        deviations = []
        for _ in range(1000):
            n_values = int(rng.integers(1, 7))
            n_sources = int(rng.integers(1, 6))
            values = [f"v{j}" for j in range(n_values)]
            psi = {}
            for sdx in range(n_sources):
                k = int(rng.integers(1, n_values + 1))
                psi[f"s{sdx}"] = {values[int(j)]
                                  for j in rng.choice(n_values, size=k, replace=False)}
            claims = ClaimSet.from_claims("d", psi)
            qualities = {s: SourceQuality(
                accuracy=float(rng.uniform(0.3, 0.95)),
                recall=float(rng.uniform(0.3, 0.95)),
                false_positive_rate=float(rng.uniform(0.3, 0.95)),
                precision=float(rng.uniform(0.3, 0.95))) for s in psi}
            weights = rng.uniform(0.05, 1.0, size=int(rng.integers(1, 8)))
            dist = {k + 1: float(w) for k, w in enumerate(weights)}
            total = sum(dist.values())
            dist = {k: p / total for k, p in dist.items()}
            prior = PriorConfig(n=int(rng.integers(1, 30)),
                                alpha=float(rng.uniform(0.05, 0.9)),
                                truth_count_dist=dist)
            fixture = fixture_from_qualities(claims, qualities, prior)
            exact = exact_fuse_from_votes(fixture)
            approx = approx_fuse_from_votes(fixture)
            for result in (exact, approx):
                for v, p in result.probabilities.items():
                    assert math.isfinite(p) and 0.0 <= p <= 1.0, \
                        (result.diagnostics.method, v, p)
            deviation = max(abs(exact.probabilities[v] - approx.probabilities[v])
                            for v in exact.probabilities)
            if deviation < ERROR_BOUND:
                assert verify_bound(exact, approx) == deviation
            else:
                with pytest.raises(FusionError, match="bound violated"):
                    verify_bound(exact, approx)
            deviations.append(deviation)
        elapsed = time.perf_counter() - t0
        worst = max(deviations)
        median = float(np.median(deviations))
        breaches = sum(d >= ERROR_BOUND for d in deviations)
        print(f"  (worst deviation {worst:.4f}, median {median:.5f}, "
              f"{breaches} of {len(deviations)} at or above 1/6, {elapsed:.1f} s)",
              flush=True)
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        assert median < 0.01
        assert breaches <= 0.1 * len(deviations)


def test_a08_worst_case_deviation():
    with criterion("A8"):
        for gamma in (1.0, 2.0, 5.0, 10.0):
            fixture = case_one_fixture(gamma)
            exact = exact_fuse_from_votes(fixture)
            approx = approx_fuse_from_votes(fixture)
            deviation = abs(exact.probabilities["v3"] - approx.probabilities["v3"])
            expected = (1.0 / 6.0) * (gamma + 1.0) / (gamma + 2.0)
            assert deviation == pytest.approx(expected, abs=1e-6), gamma


def test_a09_quality_updates():
    with criterion("A9"):
        dataset = {
            "d1": ClaimSet.from_claims("d1", HOCKEY_PSI),
            "d2": ClaimSet.from_claims("d2", {"s1": {"neck guard"},
                                              "s2": {"board"}, "s3": {"board"}}),
        }

        def fixed(item, probs):
            return FusionResult(item_id=item, probabilities=probs,
                                selected_truths=[v for v, p in probs.items() if p > 0.5],
                                diagnostics=FusionDiagnostics(method="fixed"))

        # the first item has three truth slots (one truth is never provided),
        # the second exactly one
        results = {
            "d1": fixed("d1", {"helmet": 1.0, "stick": 1.0, "boots": 0.0,
                               "skis": 0.0, "pads": 1.0}),
            "d2": fixed("d2", {"board": 1.0, "neck guard": 0.0}),
        }
        assert update_precision("s2", dataset, results) == pytest.approx(1.0)
        assert update_recall("s2", dataset, results) == pytest.approx(0.835, abs=0.005)
        assert update_accuracy("s2", dataset, results, mode="per-item") == 0.75


def test_a10_stop_schedule():
    with criterion("A10"):
        prior = PriorConfig(truth_count_dist={1: 0.3, 2: 0.4, 3: 0.3})
        assert beta_at(prior, 2) == pytest.approx(0.3, abs=1e-15)
        assert beta_at(prior, 3) == pytest.approx(0.7, abs=1e-15)


def test_a11_quadratic_scaling():
    with criterion("A11"):
        rng = np.random.default_rng(99)

        def fixture_of(m):
            votes = {f"v{j:05d}": float(rng.uniform(1.0, 100.0)) for j in range(m)}
            return VoteCountFixture(votes=votes, bot_votes=[1.0])

        def run_once(fixture):
            t0 = time.perf_counter()
            approx_fuse_from_votes(fixture, terminate=False, record_steps=False)
            return time.perf_counter() - t0

        run_once(fixture_of(250))  # warm up
        fixtures = {m: fixture_of(m) for m in (250, 500, 1000, 2000)}
        # Every round times each size once, so a burst of load from other
        # processes slows all sizes alike instead of one; the best of the
        # rounds is each size's time.  The collector is off while timing.
        times = dict.fromkeys(fixtures, math.inf)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                for m, fixture in fixtures.items():
                    times[m] = min(times[m], run_once(fixture))
        finally:
            if gc_was_enabled:
                gc.enable()
        print(f"  (times: {({m: f'{t * 1e3:.1f}ms' for m, t in times.items()})})",
              flush=True)
        assert times[2000] < 1.0
        for small, big in ((250, 500), (500, 1000), (1000, 2000)):
            ratio = times[big] / times[small]
            assert 3.0 <= ratio <= 5.5, f"{small}->{big} ratio {ratio:.2f}"


def test_a12_benchmark_trends():
    with criterion("A12"):
        t0 = time.perf_counter()
        rows = compare(["hybrid", "accu", "twostep", "precrec"],
                       SynthConfig(rng_seed=0), repetitions=20, threads=8)
        elapsed = time.perf_counter() - t0
        by_method = {r.method: r for r in rows}
        accu = by_method["accu"]
        for name, row in by_method.items():
            assert accu.precision >= row.precision - 0.02, (
                f"accu precision {accu.precision:.3f} below {name} "
                f"{row.precision:.3f}")
        assert accu.recall < 0.3, f"accu recall {accu.recall:.3f}"
        best_other = max(by_method[m].f1 for m in ("accu", "twostep", "precrec"))
        assert by_method["hybrid"].f1 >= best_other - 0.02, (
            f"hybrid F1 {by_method['hybrid'].f1:.3f} vs best other {best_other:.3f}")
        assert elapsed < 300.0, f"took {elapsed:.0f} s"
        print("  (" + ", ".join(
            f"{m}: P={r.precision:.3f} R={r.recall:.3f} F1={r.f1:.3f}"
            for m, r in by_method.items()) + f"; {elapsed:.1f} s)", flush=True)


def test_a13_order_independence():
    with criterion("A13"):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            n_values = int(rng.integers(1, 6))
            n_sources = int(rng.integers(1, 5))
            values = [f"v{j}" for j in range(n_values)]
            psi = {}
            for sdx in range(n_sources):
                k = int(rng.integers(1, n_values + 1))
                psi[f"s{sdx}"] = [values[int(j)]
                                  for j in rng.choice(n_values, size=k, replace=False)]
            qualities = {s: SourceQuality(
                accuracy=float(rng.uniform(0.3, 0.95)),
                recall=float(rng.uniform(0.3, 0.95)),
                false_positive_rate=float(rng.uniform(0.05, 0.7))) for s in psi}
            prior = PriorConfig(n=10, alpha=0.25)
            base = exact_fuse(ClaimSet.from_claims("d", psi), qualities, prior)
            items = list(psi.items())
            rng.shuffle(items)
            shuffled = {s: list(reversed(vs)) for s, vs in items}
            again = exact_fuse(ClaimSet.from_claims("d", shuffled), qualities, prior)
            for v in base.probabilities:
                assert abs(base.probabilities[v] - again.probabilities[v]) <= 1e-9


def test_a14_thread_count_determinism(tmp_path):
    with criterion("A14"):
        cfg = SynthConfig(num_items=40, rng_seed=7)
        paths = {}
        for threads in (1, 8):
            rows = compare(["hybrid", "accu"], cfg, repetitions=6, threads=threads)
            path = tmp_path / f"report-{threads}.csv"
            mio.write_report_csv(rows, path)
            paths[threads] = path
        assert paths[1].read_bytes() == paths[8].read_bytes()
