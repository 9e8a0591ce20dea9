#!/usr/bin/env python3
"""Layered benchmark of the multitruth package.

Run from the repository root:

    python3 bench/run.py --workload fuse_hybrid --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all     # every workload, one table
    python3 bench/run.py --smoke            # reduced sizes; checks every metric

One run builds its input from the seed, runs the workload's operation
in a closed loop for the given seconds, checks every output, and prints
as its last line of standard output one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
the end-to-end metrics; `--trace 1` alternates untraced and traced
operations and reports the per-layer metrics.  The end-to-end times are
scaled to host speed by the reference work in hostspeed.py.
bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import hostspeed
from tracing import COMPARE_METHODS, EXACT_COUNTS, PER_LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# compare() runs its repetitions on a thread pool of this size; the
# machine the benchmark was sized on has two cores.
COMPARE_THREADS = 2
MIN_OPS = 3
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 200
CHILD_TIMEOUT_S = 900
# A fused probability may pass 0 or 1 by this much, as floating-point
# rounding of a sum, and still count as valid; rounding in the exact
# engine reaches one unit in the last place.  The package's own
# unit-interval test of the exact engine allows 1e-9.
ROUNDING_TOL = 1e-12

END_TO_END_UNITS = {
    "wall_s": "s", "claims_per_s": "1/s", "f1": "ratio", "ok_rate": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    synth: dict                 # SynthConfig fields, besides the seed
    smoke: dict                 # overrides for --size smoke
    method: str = "hybrid"      # backend of a fuse workload
    reps: int = 0               # compare repetitions; 0 for a fuse workload
    smoke_reps: int = 0

    @property
    def is_compare(self) -> bool:
        return self.reps > 0


WORKLOADS = {
    "fuse_hybrid": Workload(
        synth=dict(num_items=1000), smoke=dict(num_items=30)),
    "fuse_exact": Workload(
        # 2 truths + 4 false values caps an item at 6 candidates, within the
        # engine's cap of 8; the extra ratio makes most items reach 6.  Small
        # items let one operation hold 150 of them, so the cost of the
        # pruned enumeration, which varies from item to item, averages out
        # across seeds.  Sources at 0.9 accuracy and recall keep F1 steady.
        synth=dict(num_items=150, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                   source_accuracy=0.9, source_recall=0.9),
        smoke=dict(num_items=25), method="hybrid-exact"),
    "compare_methods": Workload(
        synth=dict(num_items=100), smoke=dict(num_items=20), reps=6, smoke_reps=2),
}


def import_package():
    """Import multitruth from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import multitruth
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import multitruth from {SRC}: {exc}")
    if SRC.resolve() not in Path(multitruth.__file__).resolve().parents:
        raise SystemExit(f"bench: multitruth was imported from {multitruth.__file__}, "
                         f"not from {SRC}")
    logging.getLogger("multitruth").setLevel(logging.ERROR)


def claims_digest(claim_lists) -> str:
    h = hashlib.sha256()
    for claims in claim_lists:
        for c in claims:
            h.update(f"{c.source_id}\t{c.item_id}\t{c.value}\n".encode())
    return h.hexdigest()


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "multitruth").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def f1_score(predicted, gold_truths) -> float:
    """Micro F1 over (item, value) pairs, written independently of
    synth.evaluate so the two can be checked against each other."""
    pairs = {(i, v) for i, vs in predicted.items() for v in vs}
    gold = {(i, v) for i, vs in gold_truths.items() for v in vs}
    tp = len(pairs & gold)
    precision = tp / len(pairs) if pairs else 1.0
    recall = tp / len(gold) if gold else 0.0
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def bad_items(dataset, results) -> set:
    """Items whose fused output is missing or invalid: a probability not
    finite or outside [0,1] by more than ROUNDING_TOL, or a value or
    selected truth that is not one of the item's candidates."""
    bad = set(dataset).symmetric_difference(results)
    for item, r in results.items():
        if item not in dataset:
            continue
        candidates = dataset[item].candidates
        if (not set(r.probabilities) <= candidates
                or not set(r.selected_truths) <= candidates
                or not all(isinstance(p, float) and math.isfinite(p)
                           and -ROUNDING_TOL <= p <= 1.0 + ROUNDING_TOL
                           for p in r.probabilities.values())):
            bad.add(item)
    return bad


def rounding_overshoots(results) -> int:
    """Probabilities outside [0,1] that bad_items lets pass as rounding."""
    return sum(not 0.0 <= p <= 1.0 for r in results.values() for p in r.probabilities.values()
               if isinstance(p, float) and math.isfinite(p))


class Run:
    """One benchmark run: set-up, then the closed-loop operations."""

    def __init__(self, name, seed, size):
        import multitruth.synth as synth
        from multitruth.model import PriorConfig

        self.name = name
        self.wl = wl = WORKLOADS[name]
        fields = {**wl.synth, **(wl.smoke if size == "smoke" else {})}
        self.cfg = synth.SynthConfig(**fields, rng_seed=seed)
        self.reps = wl.smoke_reps if size == "smoke" else wl.reps
        self.prior = PriorConfig(n=10, alpha=0.25,
                                 truth_count_dist=synth.truth_count_distribution(self.cfg))
        self.workdir = WORK / f"{name}-{os.getpid()}"
        self.problems = []
        self.first_op = True
        self.overshoots = 0     # see rounding_overshoots
        self.f1 = None          # F1 of the first operation

    # ---- set-up -------------------------------------------------------

    def _setup_once(self):
        """Draw the input; fuse workloads also write their claims file.
        Returns (claim lists, gold standards)."""
        import multitruth.io as mio
        import multitruth.synth as synth

        if self.wl.is_compare:
            # the datasets compare() draws: one per repetition, seeds seed+rep
            drawn = [synth.generate(dataclasses.replace(self.cfg, rng_seed=self.cfg.rng_seed + r))
                     for r in range(self.reps)]
            return [c for c, _ in drawn], [g for _, g in drawn]
        claims, gold = synth.generate(self.cfg)
        mio.write_claims_csv(claims, self.workdir / "claims.csv")
        return [claims], [gold]

    def setup(self) -> float:
        """Set up several times; returns the median scaled set-up time."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        times, digests = [], set()
        self.setup_refs = [hostspeed.reference_s()]
        start = time.perf_counter()
        while (len(times) < SETUP_MIN_REPEATS
               or (time.perf_counter() - start < SETUP_MIN_SECONDS
                   and len(times) < SETUP_MAX_REPEATS)):
            t0 = time.perf_counter()
            claim_lists, self.golds = self._setup_once()
            times.append(time.perf_counter() - t0)
            self.setup_refs.append(hostspeed.reference_s())
            digests.add(claims_digest(claim_lists))
        if len(digests) != 1:
            self.problems.append("set-up drew different claims from the same seed")
        n_claims = sum(len(c) for c in claim_lists)
        n_items = sum(len(g.truths) for g in self.golds)
        methods = len(COMPARE_METHODS) if self.wl.is_compare else 1
        self.items_per_op = n_items * methods
        self.claims_per_op = n_claims * methods
        self.fingerprint = self._fingerprint(claim_lists, digests.pop(), n_claims)
        self.setup_times = times
        return statistics.median(hostspeed.scaled(times, self.setup_refs))

    def _fingerprint(self, claim_lists, digest, n_claims):
        from multitruth.model import claims_by_item

        datasets = [claims_by_item(claims) for claims in claim_lists]
        fp = {
            "seed": self.cfg.rng_seed,
            "claims_sha256": digest,
            "datasets": len(datasets),
            "items": sum(len(d) for d in datasets),
            "claims": n_claims,
            "sources": len({c.source_id for claims in claim_lists for c in claims}),
        }
        if self.wl.method == "hybrid-exact":
            hist = Counter(len(cs.candidates) for d in datasets for cs in d.values())
            fp["candidate_histogram"] = {str(k): hist[k] for k in sorted(hist)}
            fp["max_candidates"] = max(hist)
            if max(hist) > 8:
                self.problems.append(f"an item has {max(hist)} candidates, above the cap of 8")
        return fp

    def environment(self):
        import numpy

        env = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "threads": COMPARE_THREADS if self.wl.is_compare else 1,
            "generator": dataclasses.asdict(self.cfg),
        }
        if self.wl.is_compare:
            env.update(methods=list(COMPARE_METHODS), repetitions=self.reps)
        else:
            env["method"] = self.wl.method
        return env

    # ---- operations ---------------------------------------------------

    def _fuse(self, tracer):
        """The calls `multitruth fuse` makes, on the claims file."""
        import multitruth.io as mio
        import multitruth.quality as quality
        from multitruth.methods import fusion_backend

        backend = fusion_backend(self.wl.method)
        if tracer is not None:
            backend = tracer.engine(self.wl.method, backend)
        dataset, report = mio.load_claims(self.workdir / "claims.csv")
        results, qualities, records = quality.iterate(dataset, self.prior, backend)
        iterations = max((r.iteration for r in records), default=0)
        mio.write_probabilities(results, self.workdir / "fused.csv")
        mio.write_run_summary(self.workdir / "fused.json", self.wl.method, iterations,
                              qualities, report)
        return dataset, results, report, iterations

    def _check_fuse(self, out):
        import multitruth.io as mio
        import multitruth.synth as synth

        dataset, results, report, iterations = out
        bad = bad_items(dataset, results)
        self.overshoots += rounding_overshoots(results)
        gold = self.golds[0]
        if set(dataset) != set(gold.truths):
            self.problems.append("the claims file did not load the items written to it")
        predicted = {item: r.selected_truths for item, r in results.items()}
        f1 = synth.evaluate(predicted, gold)[2]
        if abs(f1 - f1_score(predicted, gold.truths)) > 1e-12:
            self.problems.append("synth.evaluate disagrees with the recomputed F1")
        if self.first_op:
            written = mio.load_predictions(self.workdir / "fused.csv")
            chosen = {item: set(map(str, vs)) for item, vs in predicted.items() if vs}
            bad |= {item for item in set(written) | set(chosen)
                    if written.get(item) != chosen.get(item)}
            summary = json.loads((self.workdir / "fused.json").read_text())
            if (summary["method"], summary["iterations"]) != (self.wl.method, iterations):
                self.problems.append("the run summary does not match the run")
        return len(bad), f1, report.n_rows

    def _compare(self):
        import multitruth.synth as synth

        return synth.compare(list(COMPARE_METHODS), self.cfg, repetitions=self.reps,
                             threads=COMPARE_THREADS)

    def _check_compare(self, rows, check):
        failed = sum(len(bad_items(dataset, results)) for _, dataset, results in check.fused)
        self.overshoots += sum(rounding_overshoots(results) for _, _, results in check.fused)
        if len(check.fused) != self.reps * len(COMPARE_METHODS):
            self.problems.append(f"compare fused {len(check.fused)} datasets, expected "
                                 f"{self.reps * len(COMPARE_METHODS)}")
        own = {m: [] for m in COMPARE_METHODS}
        for name, predicted, gold, scores in check.scored:
            f1 = f1_score(predicted, gold.truths)
            if abs(f1 - scores[2]) > 1e-12:
                self.problems.append("synth.evaluate disagrees with the recomputed F1")
            if all(gold.truths != g.truths for g in self.golds):
                self.problems.append("compare scored against a gold standard "
                                     "the set-up did not draw")
            own[name].append(f1)
        by_method = {row.method: row for row in rows}
        for name in COMPARE_METHODS:
            row = by_method.get(name)
            if (row is None or row.n_reps != self.reps or len(own[name]) != self.reps
                    or abs(row.f1 - sum(own[name]) / self.reps) > 1e-9
                    or not all(0.0 <= x <= 1.0 for x in (row.precision, row.recall, row.f1))):
                self.problems.append(f"compare row for {name} does not match its scores")
        return failed, by_method["hybrid"].f1, 0

    def op(self, tracer=None):
        """One timed operation and its checks.  Returns (wall seconds,
        failed items, claim rows read)."""
        gc.collect()
        check = CompareCheck() if self.wl.is_compare else None
        t0 = time.perf_counter()
        try:
            with check.installed() if check else nullcontext():
                with tracer.installed() if tracer else nullcontext():
                    t0 = time.perf_counter()
                    out = self._compare() if check else self._fuse(tracer)
                    wall = time.perf_counter() - t0
            failed, f1, rows = (self._check_compare(out, check) if check
                                else self._check_fuse(out))
        except Exception:
            traceback.print_exc()
            self.problems.append(f"operation raised: {traceback.format_exc(limit=1).strip()}")
            return time.perf_counter() - t0, self.items_per_op, 0
        self.first_op = False
        if self.f1 is None:
            self.f1 = f1
        elif f1 != self.f1:
            self.problems.append("F1 differs between operations")
        return wall, failed, rows


class CompareCheck:
    """Keeps what compare() fuses and scores, for checking after the
    operation: wraps synth.iterate and synth.evaluate while installed."""

    def __init__(self):
        from multitruth.methods import FUSION_BACKENDS

        self.names = {fn: name for name, fn in FUSION_BACKENDS.items()}
        self.local = threading.local()
        self.fused = []
        self.scored = []

    @contextmanager
    def installed(self):
        import multitruth.synth as synth

        iterate, evaluate = synth.iterate, synth.evaluate

        def checked_iterate(dataset, prior, fusion, *args, **kwargs):
            out = iterate(dataset, prior, fusion, *args, **kwargs)
            name = getattr(fusion, "method", None) or self.names[fusion]
            self.local.method = name
            self.fused.append((name, dataset, out[0]))
            return out

        def checked_evaluate(predicted, gold):
            scores = evaluate(predicted, gold)
            self.scored.append((self.local.method, predicted, gold, scores))
            return scores

        synth.iterate, synth.evaluate = checked_iterate, checked_evaluate
        try:
            yield self
        finally:
            synth.iterate, synth.evaluate = iterate, evaluate


def measure(run, seconds, trace):
    """Closed loop: the next operation starts when the previous one ends.

    A round is one untraced operation, followed with tracing by a traced
    one.  The host-speed reference is timed before the first operation
    and after each untraced one.  Stops after MIN_OPS rounds once another
    round would pass `seconds`.  Returns the untraced wall times, the
    reference times around them, the traced operations, and the items
    attempted and failed."""
    plain, refs, traced = [], [hostspeed.reference_s()], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for tracer in (None, Tracer()) if trace else (None,):
            wall, op_failed, rows = run.op(tracer)
            attempted += run.items_per_op
            failed += op_failed
            if tracer is None:
                plain.append(wall)
                refs.append(hostspeed.reference_s())
            else:
                traced.append((wall, tracer, rows))
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_OPS and elapsed + elapsed / len(plain) > seconds:
            return plain, refs, traced, attempted, failed


def layer_report(run, plain, traced):
    """Per-layer metrics (medians over the traced operations) and the
    exact counts.  `plain[i]` is the untraced wall time of the round of
    `traced[i]`."""
    per_op = [tracer.layer_metrics(wall, rows) for wall, tracer, rows in traced]
    counts = None
    for m in per_op:
        for key, value in m.items():
            if key.endswith("_s") and not key.startswith("trace.") and not (
                    0.0 <= value <= m["trace.wall_s"]):
                run.problems.append(f"{key} = {value:.6g} s lies outside [0, wall time "
                                    f"{m['trace.wall_s']:.6g} s]")
        exact = {name: m[name] for name in EXACT_COUNTS}
        if counts is None:
            counts = exact
        elif exact != counts:
            run.problems.append("exact counts differ between traced operations")
    metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    metrics["trace.overhead_s"] = statistics.median(
        wall - untraced for (wall, _, _), untraced in zip(traced, plain))
    return metrics, counts


def check_count_drift(run, counts):
    """Compare the exact counts with those of an earlier run of the same
    code on the same input, kept under .bench_work/counts/."""
    key = "-".join([run.name, run.fingerprint["claims_sha256"][:16], code_digest()[:16]])
    path = WORK / "counts" / f"{key}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    drift = {k: (earlier[k], v) for k, v in counts.items() if earlier.get(k, v) != v}
    if drift:
        run.problems.append(f"exact counts drifted from an earlier run: {drift}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**counts, **earlier}, sort_keys=True) + "\n")


def write_spans(run, traced):
    path = WORK / f"spans-{run.name}-seed{run.cfg.rng_seed}.jsonl"
    with path.open("w") as fh:
        for op, (_, tracer, _) in enumerate(traced):
            for sid, name, start, end, parent, thread in tracer.spans:
                fh.write(json.dumps({"op": op, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "thread": thread}) + "\n")
    return path


def run_one(args):
    import_package()
    run = Run(args.workload, args.seed, args.size)
    try:
        setup_s = run.setup()
        # fills caches, and is the operation that checks the files written
        _, warm_failed, _ = run.op()
        plain, refs, traced, attempted, failed = measure(run, args.seconds, args.trace)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    attempted += run.items_per_op
    failed += warm_failed
    record = {"workload": run.name, "size": args.size, "input": run.fingerprint,
              "environment": run.environment(), "samples": len(plain),
              "raw_wall_s_samples": plain, "ref_s_samples": refs,
              "raw_setup_s_samples": run.setup_times, "setup_ref_s_samples": run.setup_refs,
              "rounding_overshoots": run.overshoots}
    if args.trace:
        values, counts = layer_report(run, plain, traced)
        check_count_drift(run, counts)
        record.update(traced_samples=len(traced), exact_counts=counts,
                      spans=str(write_spans(run, traced).relative_to(ROOT)))
        units = PER_LAYER_UNITS
    else:
        wall = statistics.median(hostspeed.scaled(plain, refs))
        record.update(raw_wall_s=statistics.median(plain),
                      raw_setup_s=statistics.median(run.setup_times))
        values = {
            "wall_s": wall,
            "claims_per_s": run.claims_per_op / wall,
            "f1": run.f1 if run.f1 is not None else 0.0,
            "ok_rate": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    record["problems"] = run.problems
    for problem in run.problems:
        print(f"bench: {run.name}: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def child(workload, seed, seconds, trace, size):
    """Run one workload in its own process; returns its result object."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args):
    """Every workload in turn, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = child(name, args.seed, args.seconds, args.trace, args.size)
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<26} {m['value']:>14.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def smoke(args):
    """Reduced sizes, both trace modes: every metric BENCHMARK.json names
    must be emitted with its unit, as a finite number, on every workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = child(name, args.seed, 1, trace, "smoke")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected:
                errors.append(f"{name} trace={trace}: metrics {sorted(got.items())} "
                              f"!= {sorted(expected.items())}")
            errors += [f"{name} trace={trace}: {k} is not a finite number"
                       for k, m in result["metrics"].items()
                       if not (isinstance(m["value"], (int, float))
                               and math.isfinite(m["value"]))]
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={trace}: outputs failed the checks")
            print(f"smoke {name} trace={trace}: {len(got)} metrics", file=sys.stderr)
    for e in errors:
        print(f"bench: smoke: {e}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not errors}))
    return 1 if errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size in both trace modes "
                             "and check that every named metric is emitted")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        raise SystemExit(f"bench: no package sources at {SRC}")
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
