"""File formats: claims and gold CSV/JSONL ingestion, probability and
report emission.  Floating-point output uses 6 significant digits so
reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from .errors import ParseError
from .model import (
    Claim,
    ClaimSet,
    FusionResult,
    GoldStandard,
    SourceQuality,
    claims_by_item,
    normalize_value,
)

log = logging.getLogger(__name__)

CLAIM_COLUMNS = ("source_id", "item_id", "value")


@dataclass
class LoadReport:
    n_rows: int
    n_claims: int
    n_duplicates: int


# the claims file suffixes and the format each is read as
_FORMAT_OF_SUFFIX = {".csv": "csv", ".jsonl": "jsonl", ".json": "jsonl", ".ndjson": "jsonl"}


def _detect_format(path: Path) -> str:
    try:
        return _FORMAT_OF_SUFFIX[path.suffix.lower()]
    except KeyError:
        raise ParseError(f"cannot infer claims format from {path.name!r}; expected one "
                         f"of the suffixes {', '.join(_FORMAT_OF_SUFFIX)}") from None


def _csv_rows(path: Path, kind: str, columns: Sequence[str], optional: Sequence[str] = ()):
    """Each data row of a CSV `kind` file as a tuple of its `columns`, which the
    header must have, then of the `optional` columns the header has (a name
    given twice means its last column); each must hold more than whitespace."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"empty {kind} file {path}")
        index = {name: i for i, name in enumerate(header)}
        missing = set(columns) - index.keys()
        if missing:
            raise ParseError(f"{kind} file {path} lacks columns {sorted(missing)}", line=1)
        wanted = [index[c] for c in (*columns, *(c for c in optional if c in index))]
        pick, width = itemgetter(*wanted), max(wanted) + 1
        for row in filter(None, reader):  # skips blank lines
            if len(row) < width or not all(map(str.strip, fields := pick(row))):
                raise ParseError(f"malformed {kind} row in {path}", line=reader.line_num)
            yield fields


def _iter_claim_rows(path: Path, fmt: str):
    if fmt == "csv":
        yield from _csv_rows(path, "claims", CLAIM_COLUMNS)
    else:
        with path.open() as fh:
            for line_no, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=line_no) from exc
                try:
                    source, item, value = obj["source"], obj["item"], obj["value"]
                except (TypeError, KeyError):
                    raise ParseError(f"claims object needs source/item/value keys in {path}",
                                     line=line_no) from None
                for name, field in (("source", source), ("item", item), ("value", value)):
                    if field is None or isinstance(field, (list, dict)):
                        raise ParseError(f"claims {name} must be a scalar, got "
                                         f"{json.dumps(field)} in {path}", line=line_no)
                    if isinstance(field, str) and not field.strip():
                        raise ParseError(f"empty claims {name} in {path}", line=line_no)
                yield source, item, value


def load_claims(path) -> Tuple[Dict[Any, ClaimSet], LoadReport]:
    """Read claims grouped into per-item ClaimSets; duplicate triples
    (equal once values are normalized) collapse in the grouping and are
    counted in the report."""
    path = Path(path)
    claims = list(_iter_claim_rows(path, _detect_format(path)))
    if not claims:
        raise ParseError(f"no claims found in {path}")
    dataset = claims_by_item(claims)
    n_claims = sum(len(vs) for cs in dataset.values() for vs in cs.per_source.values())
    report = LoadReport(n_rows=len(claims), n_claims=n_claims,
                        n_duplicates=len(claims) - n_claims)
    if report.n_duplicates:
        log.info("deduplicated %d repeated claim rows in %s", report.n_duplicates, path)
    return dataset, report


def load_gold(path) -> GoldStandard:
    """Read a gold standard CSV (`item_id,value`, one row per true value)."""
    path = Path(path)
    truths: Dict[Any, set] = {}
    for item, value in _csv_rows(path, "gold", ("item_id", "value")):
        truths.setdefault(item, set()).add(normalize_value(value))
    if not truths:
        raise ParseError(f"no gold values found in {path}")
    return GoldStandard(truths=truths)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def write_probabilities(results: Mapping[Any, FusionResult], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "value", "probability", "selected"])
        for item in sorted(results, key=str):
            r = results[item]
            chosen = set(r.selected_truths)
            for value in sorted(r.probabilities, key=str):
                writer.writerow([item, value, _fmt(r.probabilities[value]),
                                 "true" if value in chosen else "false"])


def write_run_summary(path, method: str, iterations: int,
                      qualities: Mapping[Any, SourceQuality],
                      report: LoadReport) -> None:
    payload = {
        "method": method,
        "iterations": iterations,
        "source_qualities": {
            str(s): {
                "accuracy": q.accuracy,
                "recall": q.recall,
                "false_positive_rate": q.false_positive_rate,
                "precision": q.precision,
            }
            for s, q in sorted(qualities.items(), key=lambda kv: str(kv[0]))
        },
        "load_report": {
            "rows": report.n_rows,
            "claims": report.n_claims,
            "duplicates": report.n_duplicates,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_claims_csv(claims: Iterable[Claim], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLAIM_COLUMNS)
        writer.writerows(claims)


def write_gold_csv(gold: GoldStandard, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "value"])
        for item in sorted(gold.truths, key=str):
            for value in sorted(gold.truths[item], key=str):
                writer.writerow([item, value])


def write_report_csv(rows, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "grid_param", "grid_value",
                         "precision", "recall", "f1", "n_reps"])
        for row in rows:
            writer.writerow([
                row.method, row.grid_param,
                "" if row.grid_value is None else row.grid_value,
                _fmt(row.precision), _fmt(row.recall), _fmt(row.f1), row.n_reps,
            ])


def load_predictions(path) -> Dict[Any, set]:
    """Read predicted truths: either a plain `item_id,value` CSV or a
    fusion output CSV, in which case only rows marked selected count."""
    predicted: Dict[Any, set] = {}
    for item, value, *selected in _csv_rows(Path(path), "predictions", ("item_id", "value"),
                                            ("selected",)):
        if selected and selected[0].strip().lower() not in ("true", "1", "yes"):
            continue
        predicted.setdefault(item, set()).add(normalize_value(value))
    return predicted
