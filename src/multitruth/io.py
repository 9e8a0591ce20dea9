"""File formats: claims and gold CSV/JSONL ingestion, probability and
report emission.  Every file is read as UTF-8 with an optional byte-order
mark and written as UTF-8, whatever the locale.  Floating-point output
uses 6 significant digits so reruns are byte-identical.

A plain claims CSV file, one with no quoting and nothing else `csv.reader`
would have to read field by field, is split with `str` methods a chunk of
lines at a time; every other CSV file is read row by row by `csv.reader`.
Both give the same columns, the same `LoadReport` and the same
`ParseError`, since a file that is not plain is read by `csv.reader` from
its start.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from io import StringIO
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import ParseError
from .index import ClaimIndex, FusionRound, RoundResults, claims_by_item
from .model import Claim, FusionResult, GoldStandard, SourceQuality, normalize_value

log = logging.getLogger(__name__)

CLAIM_COLUMNS = ("source_id", "item_id", "value")

# a byte-order mark, as spreadsheet programs save one, is not part of the
# first field
_READ_ENCODING = "utf-8-sig"
_WRITE_ENCODING = "utf-8"


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


def _lines(path: Path) -> Iterator[str]:
    """The lines of a text file, line endings kept; a file that is not
    UTF-8 is a `ParseError` naming it."""
    try:
        with path.open(newline="", encoding=_READ_ENCODING) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


@contextmanager
def _csv_reader(path: Path, kind: str):
    """A `csv.reader` over the open text file `path`, a CSV `kind` file.
    A file that is not UTF-8 is a `ParseError` naming it, and so is a row
    the reader refuses (a field past `csv.field_size_limit()`, or a NUL
    on Python 3.10), with the reader's line."""
    try:
        with path.open(newline="", encoding=_READ_ENCODING) as fh:
            reader = csv.reader(fh)
            try:
                yield reader
            except csv.Error as exc:
                raise ParseError(f"unreadable {kind} row in {path}: {exc}",
                                 line=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _csv_header(reader, path: Path, kind: str, columns: Sequence[str],
                optional: Sequence[str] = ()) -> List[int]:
    """Read the header row of a CSV `kind` file and return the position of
    each of its `columns`, which it must have, then of the `optional`
    columns it has (a name given twice means its last column)."""
    header = next(reader, None)
    if header is None:
        raise ParseError(f"empty {kind} file {path}")
    index = {name: i for i, name in enumerate(header)}
    missing = set(columns) - index.keys()
    if missing:
        raise ParseError(f"{kind} file {path} lacks columns {sorted(missing)}", line=1)
    return [index[c] for c in (*columns, *(c for c in optional if c in index))]


def _csv_rows(path: Path, kind: str, columns: Sequence[str], optional: Sequence[str] = ()):
    """Each data row of a CSV `kind` file as a tuple of its `columns`, which the
    header must have, then of the `optional` columns the header has (a name
    given twice means its last column); each must hold more than whitespace."""
    with _csv_reader(path, kind) as reader:
        wanted = _csv_header(reader, path, kind, columns, optional)
        pick, width = itemgetter(*wanted), max(wanted) + 1
        for row in filter(None, reader):  # skips blank lines
            if len(row) < width or not all(map(str.strip, fields := pick(row))):
                raise ParseError(f"malformed {kind} row in {path}", line=reader.line_num)
            yield fields


_ClaimColumns = Tuple[List[str], List[str], List[str]]

# what a JSON field that is neither text, a number nor a boolean holds
_JSON_TYPE_NAMES = {list: "a list", dict: "an object", type(None): "null"}


def _reader_claim_columns(path: Path) -> _ClaimColumns:
    """The source, item and value columns of a claims CSV file, each a list
    of text in row order, read by `csv.reader`.  Each row is checked as
    `_csv_rows` checks it, and none outlives its turn of the loop."""
    sources: List[str] = []
    items: List[str] = []
    values: List[str] = []
    add_source, add_item, add_value = sources.append, items.append, values.append
    with _csv_reader(path, "claims") as reader:
        s, i, v = _csv_header(reader, path, "claims", CLAIM_COLUMNS)
        width = max(s, i, v) + 1
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) < width or not (row[s].strip() and row[i].strip() and row[v].strip()):
                raise ParseError(f"malformed claims row in {path}", line=reader.line_num)
            add_source(row[s])
            add_item(row[i])
            add_value(row[v])
    return sources, items, values


# the characters the plain path reads at a time, then on to the end of a
# line; under the default `csv.field_size_limit()`, so that no field of a
# chunk this long needs its length checked.  Peak RSS of a bench-sized load
# matches the reader loop's at this size; at 64 Ki the freed chunks left
# it up to 0.35 MB higher.
_PLAIN_CHUNK = 96 << 10

# the ASCII characters `str.strip` strips, besides the line breaks
_ASCII_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _plain_fields(chunk: str, step: int) -> Optional[List[str]]:
    """The fields of `chunk`, whole lines each ending in a line break, with
    a `\n` after the fields of each line, so that line `k` has its fields
    at `k * step` to `k * step + step - 2`; None if a line does not have
    `step - 1` fields, or `chunk` holds a `\r` outside a `\r\n`."""
    lines = chunk.count("\n")
    crlf = chunk.count("\r") == lines
    if not crlf and "\r" in chunk:
        chunk = chunk.replace("\r\n", "\n")  # mixed line breaks
    # the marker "\n" becomes a field of its own, the last of its line
    marked = chunk.replace("\r\n" if crlf else "\n", ",\n,")
    if "\r" in marked:
        return None
    fields = marked.split(",")
    fields.pop()  # the empty text after the last marker
    # a line with too many or too few fields moves a marker off its place
    if len(fields) != lines * step or fields[step - 1::step].count("\n") != lines:
        return None
    return fields


def _plain_claim_columns(path: Path) -> Optional[_ClaimColumns]:
    """The columns `_reader_claim_columns` reads from a plain claims CSV
    file, split with `str` methods a chunk of lines at a time, or None when
    the file is not plain.  A plain file decodes as UTF-8 and holds no
    double quote and no NUL, ends each line in `\n` or `\r\n` (the last
    may have none), has no blank line and the header's number of fields on
    every line, and its header names the three claim columns; no source,
    item or value field is empty, only whitespace, or longer than
    `csv.field_size_limit()`.  On such a file `csv.reader` reads each line
    as its fields split at the commas."""
    limit = csv.field_size_limit()
    columns: _ClaimColumns = ([], [], [])
    try:
        with path.open(newline="", encoding=_READ_ENCODING) as fh:
            header = fh.readline()
            header = header[:-2] if header.endswith("\r\n") else header.removesuffix("\n")
            if any(c in header for c in '"\0\r'):
                return None
            names = header.split(",")
            index = {name: j for j, name in enumerate(names)}
            if not index.keys() >= set(CLAIM_COLUMNS) or max(map(len, names)) > limit:
                return None
            at = [index[c] for c in CLAIM_COLUMNS]
            step = len(names) + 1  # a line's fields and its marker
            for chunk in iter(partial(fh.read, _PLAIN_CHUNK), ""):
                if not chunk.endswith("\n"):
                    chunk += fh.readline()
                    if not chunk.endswith(("\n", "\r")):  # the last line, unended
                        chunk += "\n"
                if '"' in chunk or "\0" in chunk:
                    return None
                fields = _plain_fields(chunk, step)
                if fields is None or (len(chunk) > limit and max(map(len, fields)) > limit):
                    return None
                # with no whitespace but line breaks, only an empty field is blank
                spaced = not chunk.isascii() or any(map(chunk.__contains__, _ASCII_SPACES))
                for column, j in zip(columns, at):
                    taken = fields[j::step]
                    if not all(map(str.strip, taken) if spaced else taken):
                        return None
                    column += taken
    except UnicodeDecodeError:
        return None
    return columns


def _csv_claim_columns(path: Path) -> _ClaimColumns:
    """The source, item and value columns of a claims CSV file: split with
    `str` methods when the file is plain, read by `csv.reader` from the
    start otherwise.  Either gives the same columns or the same error."""
    columns = _plain_claim_columns(path)
    return columns if columns is not None else _reader_claim_columns(path)


def _jsonl_claim_columns(path: Path) -> _ClaimColumns:
    """The source, item and value columns of a JSONL claims file, one
    object a line.  A number keeps its spelling and a boolean reads as
    `true` or `false`, as the same field of a CSV file would."""
    columns: _ClaimColumns = ([], [], [])
    with closing(_lines(path)) as lines:
        for line_no, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw, parse_int=str, parse_float=str, parse_constant=str)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=line_no) from exc
            try:
                fields = obj["source"], obj["item"], obj["value"]
            except (TypeError, KeyError):
                raise ParseError(f"claims object needs source/item/value keys in {path}",
                                 line=line_no) from None
            fields = tuple(json.dumps(f) if isinstance(f, bool) else f for f in fields)
            for name, field in zip(("source", "item", "value"), fields):
                if not isinstance(field, str):
                    # the field's numbers were parsed as text, so name its
                    # type, not its value
                    raise ParseError(f"claims {name} must be a scalar, got "
                                     f"{_JSON_TYPE_NAMES[type(field)]} in {path}", line=line_no)
                if not field.strip():
                    raise ParseError(f"empty claims {name} in {path}", line=line_no)
            for column, field in zip(columns, fields):
                column.append(field)
    return columns


def load_claims(path) -> Tuple[ClaimIndex, LoadReport]:
    """Read a claims file into one `ClaimIndex`, the dataset `iterate`
    fuses, which reads as a mapping from item to `ClaimSet`.  The file is
    parsed into a source, an item and a value column, with no tuple kept
    per row, and the columns are grouped by one `claims_by_item` call.
    A plain CSV file (no quotes, no blank line, every line as wide as the
    header; `_plain_claim_columns` has the rules) is split with `str`
    methods, any other CSV file is read by `csv.reader`, and the columns,
    the report and any `ParseError` are the same either way.  Duplicate
    triples (equal once values are normalized) collapse in the grouping
    and are counted in the report."""
    path = Path(path)
    read = _csv_claim_columns if _detect_format(path) == "csv" else _jsonl_claim_columns
    columns = read(path)
    n_rows = len(columns[0])
    if not n_rows:
        raise ParseError(f"no claims found in {path}")
    dataset = claims_by_item(zip(*columns))
    n_claims = len(dataset.claim_cand)
    report = LoadReport(n_rows=n_rows, n_claims=n_claims, n_duplicates=n_rows - n_claims)
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


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write the CSV file `path` as UTF-8: the `header` row, then `rows`."""
    with Path(path).open("w", newline="", encoding=_WRITE_ENCODING) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_SELECTED = ("false", "true")

# the items of a probabilities file each `write` call writes
WRITE_CHUNK_ITEMS = 256

_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_field(field: Any) -> str:
    """`field` as `csv.writer` writes it in a row of more than one field:
    a `str` as it is unless it holds a comma, a double quote or a line
    break, and anything else through the writer itself."""
    if type(field) is str and not _NEEDS_QUOTES(field):
        return field
    line = StringIO()
    csv.writer(line).writerow((field, ""))
    return line.getvalue()[:-3]  # the empty last field and the line end


def _all_str(fields: Iterable[Any]) -> bool:
    """Whether every one of `fields` is a `str`, not a subclass of it."""
    return set(map(type, fields)) <= {str}


def _csv_strs(fields: List[str]) -> List[str]:
    """`_csv_field` of each of `fields`, which are all `str`: `fields`
    itself when none needs quotes."""
    return list(map(_csv_field, fields)) if _NEEDS_QUOTES("".join(fields)) else fields


def _csv_fields(fields: List[Any]) -> List[str]:
    """`_csv_field` of each of `fields`: `fields` itself when every one
    is a `str` that needs no quotes."""
    return _csv_strs(fields) if _all_str(fields) else list(map(_csv_field, fields))


def _probability_rows(items: Iterable[str], values: Iterable[str],
                      probabilities: Iterable[float], selected: Iterable[bool]) -> str:
    """The CSV rows of a probabilities file, from its item and value fields
    as `_csv_fields` gives them; only the probability is formatted."""
    return "".join([f"{i},{v},{p:.6g},{_SELECTED[s]}\r\n"
                    for i, v, p, s in zip(items, values, probabilities, selected)])


def _round_columns(index: ClaimIndex, fused: FusionRound) -> Iterator[Tuple[Iterable[Any], ...]]:
    """The item, value, probability and selected columns of a round's
    rows, a chunk of items at a time, straight from its arrays.  Index
    order is the file's: items and each item's candidates by their `str`,
    every candidate being a `str`."""
    keys, tokens = _csv_fields(index.item_keys), _csv_strs(index.tokens)
    selected = fused.selected()
    bounds = index.cand_start.tolist()
    for lo in range(0, len(index), WRITE_CHUNK_ITEMS):
        a, b = bounds[lo], bounds[min(lo + WRITE_CHUNK_ITEMS, len(index))]
        yield (map(keys.__getitem__, index.cand_item[a:b].tolist()), tokens[a:b],
               fused.probabilities[a:b].tolist(), selected[a:b].tolist())


def _result_columns(results: Mapping[Any, FusionResult]) -> Iterator[Tuple[Iterable[Any], ...]]:
    """The same columns from each item's `FusionResult`: items and each
    one's probabilities sorted by their `str`."""
    order = sorted(results, key=str)
    for lo in range(0, len(order), WRITE_CHUNK_ITEMS):
        items, values, probabilities, selected = [], [], [], []
        for item in order[lo:lo + WRITE_CHUNK_ITEMS]:
            r = results[item]
            chosen = set(r.selected_truths)
            for value in sorted(r.probabilities, key=str):
                items.append(item)
                values.append(value)
                probabilities.append(r.probabilities[value])
                selected.append(value in chosen)
        yield _csv_fields(items), _csv_fields(values), probabilities, selected


def write_probabilities(results: Mapping[Any, FusionResult], path) -> None:
    """Write each item's probabilities as CSV rows `item_id, value,
    probability, selected`: items, and each item's values, sorted by their
    `str`, probabilities to 6 significant digits, quoted as `csv.writer`
    quotes.  The results `iterate` returns are written from the round's
    arrays, with no result object built, while no item has been read, the
    round has a selection and every candidate is a `str`: no two of an
    item's candidates then share a `str`, so index order is the sorted
    order.  Any other results are written item by item, through the same
    row writer."""
    fused = results.round if isinstance(results, RoundResults) else None
    from_round = (fused is not None and fused.selected is not None
                  and _all_str(results.index.tokens))
    columns = _round_columns(results.index, fused) if from_round else _result_columns(results)
    with Path(path).open("w", newline="", encoding=_WRITE_ENCODING) as fh:
        fh.write("item_id,value,probability,selected\r\n")
        for chunk in columns:
            fh.write(_probability_rows(*chunk))


def write_run_summary(path, method: str, iterations: int,
                      qualities: Mapping[Any, SourceQuality],
                      report: LoadReport) -> None:
    payload = {
        "method": method,
        "iterations": iterations,
        "source_qualities": {str(s): asdict(q) for s, q in
                             sorted(qualities.items(), key=lambda kv: str(kv[0]))},
        "load_report": {
            "rows": report.n_rows,
            "claims": report.n_claims,
            "duplicates": report.n_duplicates,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding=_WRITE_ENCODING)


def write_claims_csv(claims: Iterable[Claim], path) -> None:
    _write_csv(path, CLAIM_COLUMNS, claims)


def write_gold_csv(gold: GoldStandard, path) -> None:
    _write_csv(path, ("item_id", "value"),
               ((item, value) for item in sorted(gold.truths, key=str)
                for value in sorted(gold.truths[item], key=str)))


def write_report_csv(rows, path) -> None:
    _write_csv(path, ("method", "grid_param", "grid_value", "precision", "recall", "f1", "n_reps"),
               ((row.method, row.grid_param, "" if row.grid_value is None else row.grid_value,
                 _fmt(row.precision), _fmt(row.recall), _fmt(row.f1), row.n_reps)
                for row in rows))


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
