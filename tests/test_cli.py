"""Command-line interface: the synth -> fuse -> eval -> compare pipeline
and argument validation."""

import codecs
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import multitruth
from multitruth import InstanceTooLargeError, IterationConfig, PriorConfig, iterate
from multitruth import cli
from multitruth import io as mio
from multitruth.synth import SynthConfig, compare, generate
from multitruth.cli import _CONFIG_KEYS, _load_run_config, main
from multitruth.methods import FUSION_BACKENDS, fusion_backend, method_iteration_config


@pytest.fixture
def runner():
    return CliRunner()


def _synth(runner, tmp_path, seed=0, extra=()):
    claims = tmp_path / "claims.csv"
    gold = tmp_path / "gold.csv"
    result = runner.invoke(main, ["synth", "--seed", str(seed),
                                  "--out-claims", str(claims),
                                  "--out-gold", str(gold), *extra])
    assert result.exit_code == 0, result.output
    return claims, gold


class TestSynth:
    def test_generates_files(self, runner, tmp_path):
        claims, gold = _synth(runner, tmp_path)
        assert claims.exists() and gold.exists()
        with claims.open() as fh:
            header = next(csv.reader(fh))
        assert header == ["source_id", "item_id", "value"]

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"num_items": 7, "num_sources": 3}))
        claims, gold = _synth(runner, tmp_path, extra=["--config", str(cfg)])
        with gold.open() as fh:
            items = {row["item_id"] for row in csv.DictReader(fh)}
        assert len(items) == 7

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "synth.json"
        for config, message in (({"bogus": 5}, "bogus"), ({"repetitions": 5}, "repetitions"),
                                (5, "expected a JSON object, got int"),
                                (None, "expected a JSON object, got NoneType"),
                                ("ab", "expected a JSON object, got str"),
                                ({"num_items": None}, "invalid synth config: num_items"),
                                ({"num_sources": 2.5}, "invalid synth config: num_sources"),
                                ({"truth_count_mean": math.nan},
                                 "invalid synth config: truth_count_mean must be finite"),
                                ({"truth_count_std": math.inf},
                                 "invalid synth config: truth_count_std must be finite"),
                                ({"num_sources": 0}, "invalid synth config: num_sources"),
                                ({"num_items": -3}, "invalid synth config: num_items"),
                                ({"truth_count_min": 5, "truth_count_max": 2},
                                 "invalid synth config: truth_count_min must be <= "),
                                ({"false_domain_size": 1, "num_items": 5},
                                 "invalid synth config: false_domain_size must be >= 12")):
            cfg.write_text(json.dumps(config))
            result = runner.invoke(main, ["synth", "--config", str(cfg),
                                          "--out-claims", str(tmp_path / "c.csv"),
                                          "--out-gold", str(tmp_path / "g.csv")])
            assert result.exit_code == 2, config
            assert message in result.output


class TestFuseEval:
    @pytest.mark.parametrize("method", ["hybrid", "accu", "precrec", "twostep",
                                        "majority"])
    def test_pipeline(self, runner, tmp_path, method):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"num_items": 12, "num_sources": 6}))
        claims, gold = _synth(runner, tmp_path, extra=["--config", str(cfg)])
        out = tmp_path / f"out-{method}"
        result = runner.invoke(main, ["fuse", "--method", method,
                                      "--claims", str(claims),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / f"out-{method}.csv").exists()
        summary = json.loads((tmp_path / f"out-{method}.json").read_text())
        assert summary["method"] == method

        result = runner.invoke(main, ["eval", "--pred", str(out) + ".csv",
                                      "--gold", str(gold)])
        assert result.exit_code == 0, result.output
        metrics = json.loads(result.output.strip().splitlines()[-1])
        assert set(metrics) == {"precision", "recall", "f1"}
        assert 0.0 <= metrics["f1"] <= 1.0

    def test_hybrid_beats_accu_on_f1(self, runner, tmp_path):
        claims, gold = _synth(runner, tmp_path)
        scores = {}
        for method in ("hybrid", "accu"):
            out = tmp_path / method
            assert runner.invoke(main, ["fuse", "--method", method, "--claims",
                                        str(claims), "--out", str(out)]).exit_code == 0
            result = runner.invoke(main, ["eval", "--pred", str(out) + ".csv",
                                          "--gold", str(gold)])
            scores[method] = json.loads(result.output.strip().splitlines()[-1])["f1"]
        assert scores["hybrid"] > scores["accu"]

    def test_single_truth_fuse_keeps_slot_metrics(self, runner, tmp_path):
        claims, _ = _synth(runner, tmp_path)
        dataset, _ = mio.load_claims(claims)
        _, qualities, _ = iterate(dataset, PriorConfig(), fusion_backend("accu"),
                                  method_iteration_config("accu", IterationConfig()))
        out = tmp_path / "out"
        result = runner.invoke(main, ["fuse", "--method", "accu", "--claims", str(claims),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        written = json.loads((tmp_path / "out.json").read_text())["source_qualities"]
        init = IterationConfig().init_quality
        assert written == {s: {"accuracy": q.accuracy, "recall": q.recall,
                               "false_positive_rate": q.false_positive_rate,
                               "precision": q.precision} for s, q in qualities.items()}
        assert all((w["precision"], w["recall"], w["false_positive_rate"])
                   == (init.precision, init.recall, init.false_positive_rate)
                   for w in written.values())

    def test_run_config(self, runner, tmp_path):
        claims, _ = _synth(runner, tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": 10, "alpha": 0.25, "max_iterations": 1,
            "prior_mode": "example-compatible",
            "init_quality": {"A": 0.7, "R": 0.7, "Q": 0.2, "P": 0.7},
        }))
        out = tmp_path / "out"
        result = runner.invoke(main, ["fuse", "--method", "hybrid",
                                      "--claims", str(claims),
                                      "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "out.json").read_text())["iterations"] == 1

    def test_fuse_matches_iterate_with_registry_backend(self, runner, tmp_path):
        claims, _ = _synth(runner, tmp_path)
        dataset, _ = mio.load_claims(claims)
        cases = {
            "literal": ({"prior_mode": "literal"}, "literal", IterationConfig()),
            "example-compatible": ({"prior_mode": "example-compatible"},
                                   "example-compatible", IterationConfig()),
            "accuracy-literal": ({"accuracy_mode": "literal"}, "literal",
                                 IterationConfig(accuracy_mode="literal")),
        }
        written = {}
        for name, (config, prior_mode, iter_cfg) in cases.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"out-{name}"
            result = runner.invoke(main, ["fuse", "--method", "hybrid", "--claims", str(claims),
                                          "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            prior = dataclasses.replace(PriorConfig(), prior_mode=prior_mode)
            results, _, _ = iterate(dataset, prior, fusion_backend("hybrid"), iter_cfg)
            mio.write_probabilities(results, tmp_path / f"expected-{name}.csv")
            written[name] = (tmp_path / f"out-{name}.csv").read_bytes()
            assert written[name] == (tmp_path / f"expected-{name}.csv").read_bytes()
        assert len(set(written.values())) == len(cases)

    def test_exact_candidate_cap_reaches_the_backend(self, runner, tmp_path):
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps({
            "num_items": 12, "num_sources": 6, "truth_count_max": 2, "false_domain_size": 4,
            "extra_ratio": 0.6, "source_accuracy": 0.9, "source_recall": 0.9}))
        claims, _ = _synth(runner, tmp_path, extra=["--config", str(synth_cfg)])
        cfg = tmp_path / "run.json"

        def fuse(config):
            cfg.write_text(json.dumps(config))
            return runner.invoke(main, ["fuse", "--method", "hybrid-exact", "--claims",
                                        str(claims), "--config", str(cfg),
                                        "--out", str(tmp_path / "o")])

        assert fuse({"truth_count_dist": {"1": 0.5, "2": 0.5}}).exit_code == 0
        # the same path rewritten as a default synth file, whose items have
        # about 30 candidates, above the exact engine's cap
        assert _synth(runner, tmp_path)[0] == claims
        result = fuse({})
        assert isinstance(result.exception, InstanceTooLargeError)
        # every item is checked before any is fused: the message names the
        # first oversized item in index order
        dataset, _ = mio.load_claims(claims)
        first = next(len(dataset[item].candidates) for item in sorted(dataset, key=str)
                     if len(dataset[item].candidates) > 12)
        assert str(result.exception) == (
            f"instance too large for exact enumeration ({first} candidates > cap 12); "
            "use the approximation")

    def test_registry_backends_are_the_configured_defaults(self):
        for name, backend in FUSION_BACKENDS.items():
            assert fusion_backend(name) == backend
            assert hash(fusion_backend(name)) == hash(backend)

    def test_each_config_key_sets_the_field_the_readme_names(self, tmp_path):
        # key -> (a value other than its default, the field the README's
        # `fuse` config table names)
        table = {
            "n": (7, "PriorConfig.n"),
            "alpha": (0.5, "PriorConfig.alpha"),
            "truth_count_dist": ({"1": 0.5, "2": 0.5}, "PriorConfig.truth_count_dist"),
            "prior_mode": ("example-compatible", "PriorConfig.prior_mode"),
            "init_quality": ({"A": 0.7}, "IterationConfig.init_quality"),
            "max_iterations": (2, "IterationConfig.max_iterations"),
            "accuracy_mode": ("literal", "IterationConfig.accuracy_mode"),
        }
        assert set(table) == _CONFIG_KEYS
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {line.split("`")[1]: line for line in readme.splitlines()
                if line.startswith("| `")}

        def fields(loaded):
            prior, backend, iter_cfg = loaded
            assert backend is FUSION_BACKENDS["hybrid-exact"]
            return {f"{type(obj).__name__}.{f.name}": getattr(obj, f.name)
                    for obj in (prior, iter_cfg) for f in dataclasses.fields(obj)}

        defaults = fields(_load_run_config(None, "hybrid-exact"))
        cfg = tmp_path / "run.json"
        for key, (value, field) in table.items():
            assert f"`{field}`" in rows[key], key
            cfg.write_text(json.dumps({key: value}))
            loaded = fields(_load_run_config(cfg, "hybrid-exact"))
            assert [f for f in defaults if loaded[f] != defaults[f]] == [field], key

    def test_fuse_has_no_threads_option(self, runner, tmp_path):
        claims, _ = _synth(runner, tmp_path)
        result = runner.invoke(main, ["fuse", "--method", "hybrid", "--claims", str(claims),
                                      "--threads", "2", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_invalid_run_config_key(self, runner, tmp_path):
        claims, _ = _synth(runner, tmp_path)
        cfg = tmp_path / "run.json"
        for config, message in (({"nope": 1}, "invalid config keys"),
                                ({"exact_candidate_cap": 5}, "invalid config keys"),
                                ({"prior_mode": "bogus"}, "invalid prior_mode 'bogus'"),
                                ({"accuracy_mode": "bogus"}, "invalid accuracy_mode 'bogus'"),
                                (5, "invalid config: expected a JSON object, got int"),
                                (None, "invalid config: expected a JSON object, got NoneType"),
                                ("ab", "invalid config: expected a JSON object, got str"),
                                ({"init_quality": 5}, "invalid config: "),
                                ({"truth_count_dist": [1]}, "invalid config: "),
                                ({"n": "x"}, "invalid config: "),
                                ({"alpha": None}, "invalid config: ")):
            cfg.write_text(json.dumps(config))
            result = runner.invoke(main, ["fuse", "--method", "hybrid",
                                          "--claims", str(claims),
                                          "--config", str(cfg), "--out", "o"])
            assert result.exit_code == 2, config
            assert message in result.output

    def test_malformed_integer_is_a_usage_error(self, runner, tmp_path):
        claims = tmp_path / "claims.csv"
        claims.write_text("source_id,item_id,value\ns1,d1,a\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_iterations": "abc"}))
        result = runner.invoke(main, ["fuse", "--method", "hybrid", "--claims", str(claims),
                                      "--config", str(cfg), "--out", "o"])
        assert result.exit_code == 2
        assert "invalid config" in result.output

    def test_run_config_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(codecs.BOM_UTF8 + b'{"max_iterations": 2}')
        assert _load_run_config(cfg, "hybrid")[2].max_iterations == 2

    def test_missing_claims_file(self, runner):
        result = runner.invoke(main, ["fuse", "--method", "hybrid",
                                      "--claims", "nope.csv", "--out", "o"])
        assert result.exit_code == 2

    def test_non_scalar_json_claim_is_a_parse_error(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        claims.write_text('{"source": "s1", "item": "d1", "value": ["a"]}\n')
        src = str(Path(multitruth.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "multitruth.cli", "fuse", "--method",
                                 "hybrid", "--claims", str(claims), "--out", str(tmp_path / "o")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert result.stderr.startswith("error: claims value must be a scalar")
        assert "(line 1)" in result.stderr and "Traceback" not in result.stderr

    def test_eval_rejects_extra_predicted_items(self, runner, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("item_id,value\nd9,a\n")
        gold = tmp_path / "gold.csv"
        gold.write_text("item_id,value\nd1,a\n")
        result = runner.invoke(main, ["eval", "--pred", str(pred),
                                      "--gold", str(gold)])
        assert result.exit_code == 1
        assert "absent" in result.output


class TestCompareSweep:
    def test_compare_writes_report(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["compare", "--methods", "accu,majority",
                                      "--reps", "2", "--seed", "1",
                                      "--grid", "source_recall=0.5,0.9",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"accu", "majority"}
        assert {r["grid_value"] for r in rows} == {"0.5", "0.9"}

    def test_unknown_method(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--methods", "bogus",
                                      "--reps", "1", "--out", "r.csv"])
        assert result.exit_code == 2
        assert "unknown method" in result.output

    def test_bad_grid(self, runner, tmp_path):
        for grid in ("nonsense", "repetitions=1,2", "num_sources=3.5"):
            result = runner.invoke(main, ["compare", "--methods", "accu", "--grid", grid,
                                          "--out", str(tmp_path / "r.csv")])
            assert result.exit_code == 2, grid
        # each value must make a valid SynthConfig on its own
        for grid, message in (("num_items=5,0", "num_items must be >= 1"),
                              ("truth_count_mean=4,nan", "truth_count_mean must be finite"),
                              ("truth_count_max=0", "truth_count_min must be <= "),
                              ("source_recall=0.5,1.5", "source_recall must be in [0,1]"),
                              ("false_domain_size=1", "false_domain_size must be >= 12")):
            result = runner.invoke(main, ["compare", "--methods", "accu", "--grid", grid,
                                          "--out", str(tmp_path / "r.csv")])
            assert result.exit_code == 2, grid
            assert f"invalid grid {grid!r}: {message}" in result.output, grid

    def test_integer_grid(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["compare", "--methods", "majority", "--reps", "1",
                                      "--grid", "num_sources=3,4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            assert [r["grid_value"] for r in csv.DictReader(fh)] == ["3", "4"]

    def test_zero_truth_count_std_grid(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["compare", "--methods", "majority", "--reps", "1",
                                      "--grid", "truth_count_std=0", "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            assert [r["grid_value"] for r in csv.DictReader(fh)] == ["0.0"]

    def test_sweep_canned_grid(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--figure", "extra",
                                      "--methods", "majority", "--reps", "1",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["grid_value"] for r in rows] == ["0.2", "0.4", "0.6", "0.8", "1.0"]


def _run_cli(*args, cwd, env=None):
    """`python -m multitruth.cli` with `args` in a fresh process, with the
    variables of `env` added to the environment."""
    src = str(Path(multitruth.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           **(env or {})}
    return subprocess.run([sys.executable, "-m", "multitruth.cli", *map(str, args)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_non_ascii_claims_in_the_c_locale(tmp_path):
    # the C locale's encoding is ASCII, and PYTHONUTF8=0 keeps Python from
    # switching to UTF-8 on its own; the files are UTF-8 all the same
    claims = tmp_path / "claims.csv"
    claims.write_bytes("source_id,item_id,value\ns1,d1,caf\u00e9\ns2,d1,caf\u00e9\n"
                       "s2,d1,b\n".encode())
    result = _run_cli("fuse", "--method", "hybrid", "--claims", claims, "--out", "fused",
                      cwd=tmp_path, env={"LC_ALL": "C", "PYTHONUTF8": "0"})
    assert result.returncode == 0, result.stderr
    assert b"\r\nd1,caf\xc3\xa9," in (tmp_path / "fused.csv").read_bytes()


class TestMissingOutputDirectory:
    """An output whose directory is missing exits 2 while the options are
    parsed: nothing is read, generated or written."""

    @staticmethod
    def _forbid(monkeypatch, owner, name):
        def called(*args, **kwargs):
            raise AssertionError(f"{name} ran before the output directory was checked")
        monkeypatch.setattr(owner, name, called)

    @staticmethod
    def _refused(result, option, files):
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}': directory" in result.output
        assert "nodir' does not exist" in result.output
        assert [p.name for p in files] == []

    def test_fuse(self, runner, tmp_path, monkeypatch):
        claims = tmp_path / "claims.csv"
        claims.write_text("source_id,item_id,value\ns1,d1,a\n")
        self._forbid(monkeypatch, mio, "load_claims")
        result = runner.invoke(main, ["fuse", "--method", "hybrid", "--claims", str(claims),
                                      "--out", str(tmp_path / "nodir" / "fused")])
        self._refused(result, "--out", tmp_path.glob("fused*"))

    @pytest.mark.parametrize("missing", ["--out-claims", "--out-gold"])
    def test_synth(self, runner, tmp_path, monkeypatch, missing):
        self._forbid(monkeypatch, cli, "generate")
        out = {"--out-claims": tmp_path / "claims.csv", "--out-gold": tmp_path / "gold.csv"}
        out[missing] = tmp_path / "nodir" / "out.csv"
        result = runner.invoke(main, ["synth", *(str(a) for kv in out.items() for a in kv)])
        self._refused(result, missing, tmp_path.iterdir())

    @pytest.mark.parametrize("command", [["compare", "--methods", "majority"],
                                         ["sweep", "--figure", "extra"]],
                             ids=["compare", "sweep"])
    def test_compare_and_sweep(self, runner, tmp_path, monkeypatch, command):
        self._forbid(monkeypatch, cli, "compare")
        result = runner.invoke(main, [*command, "--reps", "1",
                                      "--out", str(tmp_path / "nodir" / "report.csv")])
        self._refused(result, "--out", tmp_path.iterdir())


class TestBadCountsRefused:
    """A count that cannot run exits 2 with a message at the command line,
    and is a ValueError in the library."""

    @pytest.mark.parametrize("args, message", [
        (["compare", "--methods", "majority", "--reps", "0"], "'--reps': 0 is not in the range"),
        (["sweep", "--figure", "extra", "--reps", "0"], "'--reps': 0 is not in the range"),
        (["compare", "--methods", "majority", "--reps", "1", "--threads", "0"],
         "'--threads': 0 is not in the range"),
        (["sweep", "--figure", "extra", "--reps", "1", "--threads", "0"],
         "'--threads': 0 is not in the range"),
    ], ids=["compare-reps", "sweep-reps", "compare-threads", "sweep-threads"])
    def test_compare_and_sweep(self, tmp_path, args, message):
        result = _run_cli(*args, "--out", tmp_path / "report.csv", cwd=tmp_path)
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "report.csv").exists()

    def test_negative_max_iterations(self, tmp_path):
        claims = tmp_path / "claims.csv"
        claims.write_text("source_id,item_id,value\ns1,d1,a\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_iterations": -1}))
        result = _run_cli("fuse", "--method", "hybrid", "--claims", claims, "--config", cfg,
                          "--out", tmp_path / "o", cwd=tmp_path)
        assert result.returncode == 2
        assert "invalid config: max_iterations must be >= 0, got -1" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("config, message", [
        ({"max_iterations": 2.7}, "max_iterations must be an integer, got 2.7"),
        ({"max_iterations": True}, "max_iterations must be an integer, got True"),
        ({"n": 2.5}, "false-domain size n must be an integer, got 2.5"),
    ], ids=["fractional-iterations", "bool-iterations", "fractional-n"])
    def test_run_config_of_the_wrong_type(self, runner, tmp_path, config, message):
        # these once ran 2 rounds, 1 round, and a false-domain size of 2.5
        claims = tmp_path / "claims.csv"
        claims.write_text("source_id,item_id,value\ns1,d1,a\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["fuse", "--method", "hybrid", "--claims", str(claims),
                                      "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert f"invalid config: {message}" in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_wrong_types_in_the_library(self):
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                IterationConfig(max_iterations=bad)
            with pytest.raises(ValueError, match="n must be an integer"):
                PriorConfig(n=bad)

    def test_library(self):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            compare(["majority"], SynthConfig(), repetitions=0)
        with pytest.raises(ValueError, match="max_iterations must be >= 0"):
            IterationConfig(max_iterations=-1)
        assert IterationConfig(max_iterations=0).max_iterations == 0


def test_claims_suffix_without_a_format(tmp_path):
    claims = tmp_path / "x.txt"
    claims.write_text("source_id,item_id,value\ns1,d1,a\n")
    result = _run_cli("fuse", "--method", "hybrid", "--claims", claims, "--out", tmp_path / "o",
                      cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr == ("error: cannot infer claims format from 'x.txt'; expected one "
                             "of the suffixes .csv, .jsonl, .json, .ndjson\n")


@pytest.mark.parametrize("method", ["accu", "twostep", "precrec", "majority"])
def test_baseline_fuse_independent_of_hash_seed(tmp_path, method):
    # frozenset iteration order follows the per-process hash seed; a
    # product or sum taken in that order changes the last digits
    claims = tmp_path / "claims.csv"
    mio.write_claims_csv(generate(SynthConfig(num_items=40, rng_seed=3))[0], claims)
    src = str(Path(multitruth.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"fused-{hash_seed}"
        subprocess.run([sys.executable, "-m", "multitruth.cli", "fuse", "--method", method,
                        "--claims", str(claims), "--out", str(out)],
                       env=env, capture_output=True, timeout=120, check=True)
        outputs.append((out.with_suffix(".csv").read_bytes(),
                        out.with_suffix(".json").read_bytes()))
    assert outputs[0] == outputs[1]
