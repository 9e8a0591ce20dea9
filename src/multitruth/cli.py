"""Command-line entry point: ingestion, fusion, synthetic benchmarks,
evaluation, and report emission.

Set FUSION_LOG=DEBUG (or any logging level name) for verbose output.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import click

from . import io as mio
from .errors import FusionError, ParseError
from .methods import FUSION_BACKENDS, fusion_backend, method_iteration_config
from .model import PriorConfig, SourceQuality
from .quality import IterationConfig, iterate
from .synth import SynthConfig, compare, evaluate, generate

log = logging.getLogger(__name__)

_CONFIG_KEYS = {
    "n", "alpha", "truth_count_dist", "init_quality", "max_iterations",
    "prior_mode", "accuracy_mode",
}
_SYNTH_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SynthConfig)}


def _read_config(path, keys, kind: str) -> dict:
    """The JSON object in the config file `path`, with keys among `keys`."""
    try:
        raw = json.loads("".join(mio._lines(Path(path)))) if path is not None else {}
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise click.UsageError(f"invalid {kind}: expected a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - keys
    if unknown:
        raise click.UsageError(f"invalid {kind} keys: {sorted(unknown)}")
    return raw


def _load_run_config(path, method: str):
    """The prior, the fusion backend for `method` and the iteration
    settings `method` runs with, as a JSON run configuration gives them
    (defaults where it is absent)."""
    raw = _read_config(path, _CONFIG_KEYS, "config")
    defaults = IterationConfig()
    try:
        dist = raw.get("truth_count_dist")
        prior_kwargs = {k: raw[k] for k in ("n", "alpha", "prior_mode") if k in raw}
        if dist is not None:
            prior_kwargs["truth_count_dist"] = {int(k): float(p) for k, p in dist.items()}
        prior = PriorConfig(**prior_kwargs)
        iq, base = raw.get("init_quality", {}), defaults.init_quality
        init_quality = SourceQuality(
            accuracy=iq.get("A", base.accuracy),
            recall=iq.get("R", base.recall),
            false_positive_rate=iq.get("Q", base.false_positive_rate),
            precision=iq.get("P", base.precision),
        )
        iter_cfg = IterationConfig(
            init_quality=init_quality,
            max_iterations=raw.get("max_iterations", defaults.max_iterations),
            accuracy_mode=raw.get("accuracy_mode", defaults.accuracy_mode))
    except (AttributeError, TypeError, ValueError) as exc:  # also a value of the wrong type
        raise click.UsageError(f"invalid config: {exc}")
    return prior, fusion_backend(method), method_iteration_config(method, iter_cfg)


def _in_existing_dir(ctx, param, path):
    """Refuse an output path whose directory is missing, while the options
    are parsed, so before the command reads or generates anything."""
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise click.BadParameter(f"directory {directory!r} does not exist")
    return path


@click.group()
def main():
    """Multi-truth data fusion toolkit."""
    level = os.environ.get("FUSION_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--method", required=True,
              type=click.Choice(sorted(FUSION_BACKENDS)), help="Fusion method.")
@click.option("--claims", "claims_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Claims CSV or JSONL.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON run configuration.")
@click.option("--out", "out_prefix", required=True, callback=_in_existing_dir,
              help="Output prefix: writes <prefix>.csv and <prefix>.json.")
def fuse(method, claims_path, config_path, out_prefix):
    """Fuse a claims file and write per-value probabilities plus a run
    summary."""
    prior, backend, iter_cfg = _load_run_config(config_path, method)
    dataset, report = mio.load_claims(claims_path)
    results, qualities, records = iterate(dataset, prior, backend, iter_cfg)
    iterations = max((r.iteration for r in records), default=0)
    mio.write_probabilities(results, f"{out_prefix}.csv")
    mio.write_run_summary(f"{out_prefix}.json", method, iterations, qualities, report)
    click.echo(f"fused {len(results)} items with {method}; wrote {out_prefix}.csv")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON with synthetic-generator fields.")
@click.option("--seed", type=int, default=None, help="Override the RNG seed.")
@click.option("--out-claims", required=True, callback=_in_existing_dir,
              help="Claims CSV to write.")
@click.option("--out-gold", required=True, callback=_in_existing_dir, help="Gold CSV to write.")
def synth(config_path, seed, out_claims, out_gold):
    """Generate a synthetic dataset with known ground truth."""
    raw = _read_config(config_path, _SYNTH_DEFAULTS.keys(), "synth config")
    if seed is not None:
        raw["rng_seed"] = seed
    try:
        config = SynthConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid synth config: {exc}")
    claims, gold = generate(config)
    mio.write_claims_csv(claims, out_claims)
    mio.write_gold_csv(gold, out_gold)
    click.echo(f"generated {len(claims)} claims on {len(gold.truths)} items")


@main.command("eval")
@click.option("--pred", "pred_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Predicted truths (item_id,value CSV or fuse output).")
@click.option("--gold", "gold_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Gold CSV.")
def eval_cmd(pred_path, gold_path):
    """Score predictions against a gold standard; prints JSON metrics."""
    predicted = mio.load_predictions(pred_path)
    gold = mio.load_gold(gold_path)
    for item in sorted(set(gold.truths) - set(predicted), key=str):
        log.warning("gold item %r has no prediction; counted against recall", item)
    extra = set(predicted) - set(gold.truths)
    if extra:
        raise click.ClickException(
            f"predictions contain items absent from the gold standard: {sorted(extra)[:5]}")
    precision, recall, f1 = evaluate(predicted, gold)
    click.echo(json.dumps({"precision": precision, "recall": recall, "f1": f1},
                          sort_keys=True))


def _parse_grid(spec: str):
    try:
        param, values = spec.split("=", 1)
        parsed = [float(v) for v in values.split(",") if v != ""]
    except ValueError:
        raise click.UsageError(f"cannot parse grid {spec!r}; expected param=v1,v2,...")
    if not parsed:
        raise click.UsageError(f"empty grid {spec!r}")
    if param not in _SYNTH_DEFAULTS:
        raise click.UsageError(f"unknown grid parameter {param!r}")
    if isinstance(_SYNTH_DEFAULTS[param], int):
        if not all(v.is_integer() for v in parsed):
            raise click.UsageError(f"grid parameter {param!r} takes integers")
        parsed = [int(v) for v in parsed]
    for v in parsed:
        try:
            dataclasses.replace(SynthConfig(), **{param: v})
        except ValueError as exc:
            raise click.UsageError(f"invalid grid {spec!r}: {exc}")
    return {param: parsed}


def _run_compare(methods, reps, grid, seed, threads, out):
    names = [m.strip() for m in methods.split(",") if m.strip()]
    if not names:
        raise click.UsageError(f"--methods names no method: {methods!r}")
    for name in names:
        try:
            fusion_backend(name)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    config = SynthConfig(rng_seed=seed)
    rows = compare(names, config, sweep=grid, repetitions=reps, threads=threads)
    mio.write_report_csv(rows, out)
    click.echo(f"wrote {len(rows)} report rows to {out}")


@main.command("compare")
@click.option("--methods", required=True, help="Comma-separated method names.")
@click.option("--reps", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--grid", "grid_spec", default=None,
              help="Parameter sweep, e.g. source_accuracy=0.2,0.4,0.6.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", required=True, callback=_in_existing_dir, help="Report CSV to write.")
def compare_cmd(methods, reps, grid_spec, seed, threads, out):
    """Benchmark methods on synthetic data and write a report table."""
    grid = _parse_grid(grid_spec) if grid_spec else None
    _run_compare(methods, reps, grid, seed, threads, out)


_SWEEPS = {
    "truths": {"truth_count_mean": [2, 4, 6, 8, 10]},
    "accuracy": {"source_accuracy": [0.2, 0.4, 0.6, 0.8, 1.0]},
    "recall": {"source_recall": [0.2, 0.4, 0.6, 0.8, 1.0]},
    "extra": {"extra_ratio": [0.2, 0.4, 0.6, 0.8, 1.0]},
}


@main.command()
@click.option("--figure", required=True, type=click.Choice(sorted(_SWEEPS)),
              help="Which parameter to sweep.")
@click.option("--methods", default="hybrid,accu,precrec,twostep",
              show_default=True, help="Comma-separated method names.")
@click.option("--reps", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", required=True, callback=_in_existing_dir, help="Report CSV to write.")
def sweep(figure, methods, reps, seed, threads, out):
    """Run one of the canned benchmark parameter sweeps."""
    _run_compare(methods, reps, _SWEEPS[figure], seed, threads, out)


def entry():  # pragma: no cover
    try:
        main()
    except FusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    entry()
