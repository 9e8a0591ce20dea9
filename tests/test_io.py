"""File-format round trips and parse-error reporting."""

import codecs
import csv
import gc
import io
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from multitruth import Claim, ClaimSet, GoldStandard, InstanceTooLargeError, ParseError
from multitruth import io as mio
from multitruth.index import ClaimIndex, RoundResults
from multitruth.methods import FUSION_BACKENDS, fusion_backend, method_iteration_config
from multitruth.model import FusionDiagnostics, FusionResult, PriorConfig
from multitruth.quality import IterationConfig, iterate
from multitruth.synth import SynthConfig, generate, truth_count_distribution

from test_index import BENCH_SETTINGS, assert_same_index, reference_claims_by_item


class TestLoadClaims:
    def test_csv_round_trip(self, tmp_path):
        claims = [Claim("s1", "d1", "a"), Claim("s1", "d1", "b"), Claim("s2", "d2", "c")]
        path = tmp_path / "claims.csv"
        mio.write_claims_csv(claims, path)
        dataset, report = mio.load_claims(path)
        assert set(dataset) == {"d1", "d2"}
        assert dataset["d1"].per_source["s1"] == {"a", "b"}
        assert report.n_rows == 3
        assert report.n_claims == 3
        assert report.n_duplicates == 0

    def test_jsonl(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        rows = [{"source": "s1", "item": "d1", "value": "a"},
                {"source": "s2", "item": "d1", "value": "b"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
        dataset, report = mio.load_claims(path)
        assert dataset["d1"].candidates == {"a", "b"}
        assert report.n_claims == 2

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "claims.csv"
        # an exact repeat, a repeat up to whitespace, and an NFC-composed
        # and a decomposed spelling of the same value
        path.write_text("source_id,item_id,value\ns1,d1,a\ns1,d1, a \ns1,d1,a\n"
                        "s2,d1,caf\u00e9\ns2,d1,cafe\u0301\ns2,d2,a\n", encoding="utf-8")
        dataset, report = mio.load_claims(path)
        assert (report.n_rows, report.n_claims, report.n_duplicates) == (6, 3, 3)
        assert dataset == {
            "d1": ClaimSet.from_claims("d1", {"s1": {"a"}, "s2": {"caf\u00e9"}}),
            "d2": ClaimSet.from_claims("d2", {"s2": {"a"}}),
        }

    def test_missing_column(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("source_id,item_id\ns1,d1\n")
        with pytest.raises(ParseError, match="value"):
            mio.load_claims(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "claims.csv"
        for row in ("s1,,b", 's2,d1,"  "', "s2, ,b"):
            path.write_text(f"source_id,item_id,value\ns1,d1,a\n{row}\n")
            with pytest.raises(ParseError, match="malformed claims row.*line 3"):
                mio.load_claims(path)

    @pytest.mark.parametrize("field", ["source", "item", "value"])
    @pytest.mark.parametrize("blank", ["", " \t "], ids=["empty", "whitespace"])
    def test_whitespace_json_value_reports_line(self, tmp_path, field, blank):
        # the CSV reader refuses such a field as a malformed row
        path = tmp_path / "claims.jsonl"
        row = {"source": "s2", "item": "d1", "value": "b", field: blank}
        path.write_text('{"source": "s1", "item": "d1", "value": "a"}\n' + json.dumps(row) + "\n")
        with pytest.raises(ParseError, match=f"empty claims {field}.*line 2"):
            mio.load_claims(path)

    @pytest.mark.parametrize("field", ["source", "item", "value"])
    @pytest.mark.parametrize("bad", [None, ["a"], {"v": "a"}])
    def test_non_scalar_json_field_reports_line(self, tmp_path, field, bad):
        path = tmp_path / "claims.jsonl"
        row = {"source": "s2", "item": "d1", "value": "b", field: bad}
        path.write_text('{"source": "s1", "item": "d1", "value": "a"}\n' + json.dumps(row))
        with pytest.raises(ParseError, match=f"claims {field} must be a scalar.*line 2"):
            mio.load_claims(path)

    @pytest.mark.parametrize("bad, name", [("[1]", "a list"), ("[1.50]", "a list"),
                                           ('{"v": 2}', "an object"), ("null", "null")])
    def test_non_scalar_json_field_names_its_type(self, tmp_path, bad, name):
        # numbers parse as text, so the field's own spelling is not at hand
        path = tmp_path / "claims.jsonl"
        path.write_text(f'{{"source": "s1", "item": "d1", "value": {bad}}}\n')
        with pytest.raises(ParseError) as caught:
            mio.load_claims(path)
        assert str(caught.value) == (f"claims value must be a scalar, got {name} in {path} "
                                     "(line 1)")

    def test_jsonl_numbers_and_booleans_read_as_text(self, tmp_path):
        # kept as JSON values, 1 == True == 1.0 would collapse the first
        # three spellings into one candidate
        path = tmp_path / "claims.jsonl"
        path.write_text('{"source": "s1", "item": "d", "value": 1}\n'
                        '{"source": "s2", "item": "d", "value": true}\n'
                        '{"source": "s3", "item": "d", "value": 1.0}\n'
                        '{"source": "s4", "item": "d", "value": "1"}\n'
                        '{"source": 7, "item": 2.50, "value": false}\n')
        dataset, _ = mio.load_claims(path)
        assert dataset["d"].candidates == {"1", "true", "1.0"}
        assert sorted(s for s, vs in dataset["d"].per_source.items() if "1" in vs) == ["s1", "s4"]
        assert dataset["2.50"].per_source == {"7": {"false"}}

    def test_not_utf8_is_a_parse_error_naming_the_file(self, tmp_path):
        # "caf\xe9" is Latin-1
        for name, text in (("claims.csv", b"source_id,item_id,value\ns1,d1,caf\xe9\n"),
                           ("claims.jsonl", b'{"source": "s1", "item": "d1", "value": "caf\xe9"}')):
            path = tmp_path / name
            path.write_bytes(text)
            with pytest.raises(ParseError, match=f"{name} is not UTF-8"):
                mio.load_claims(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_text('{"source": "s1", "item": "d1", "value": "a"}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            mio.load_claims(path)

    def test_missing_json_keys(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_text('{"source": "s1"}\n')
        with pytest.raises(ParseError, match="source/item/value"):
            mio.load_claims(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("source_id,item_id,value\n")
        with pytest.raises(ParseError, match="no claims"):
            mio.load_claims(path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "claims.xml"
        path.write_text("<claims/>")
        with pytest.raises(ParseError, match="format"):
            mio.load_claims(path)

    def test_suffix_alone_decides_the_format(self, tmp_path):
        # JSONL content under a suffix that names no format is refused,
        # and the error lists the suffixes that do
        path = tmp_path / "data.txt"
        path.write_text('{"source": "s1", "item": "d1", "value": "a"}\n')
        with pytest.raises(ParseError) as caught:
            mio.load_claims(path)
        assert "'data.txt'" in str(caught.value)
        assert ".csv" in str(caught.value) and ".jsonl" in str(caught.value)


def _write_claims(rows, path, fmt):
    """Write (source, item, value) rows as a claims file in the format `fmt`:
    `csv`, `jsonl`, or `padded`, a CSV file whose columns are reordered
    and padded with one more."""
    if fmt == "csv":
        mio.write_claims_csv(rows, path)
    elif fmt == "jsonl":
        path.write_text("".join(json.dumps({"source": s, "item": d, "value": v}) + "\n"
                                for s, d, v in rows))
    else:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("value", "extra", "item_id", "source_id"))
            writer.writerows((v, f"x{j % 3}", d, s) for j, (s, d, v) in enumerate(rows))


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "padded"])
@pytest.mark.parametrize("workload", sorted(BENCH_SETTINGS))
def test_load_equals_the_reference_grouping_of_bench_data(tmp_path, workload, fmt):
    """The index `load_claims` reads from a file has the arrays, with their
    dtypes, the lists and the views of one laid out from the reference
    grouping of the rows written to it."""
    rows = generate(SynthConfig(**BENCH_SETTINGS[workload], rng_seed=1))[0]
    path = tmp_path / ("claims.jsonl" if fmt == "jsonl" else "claims.csv")
    _write_claims(rows, path, fmt)
    got, report = mio.load_claims(path)
    want = reference_claims_by_item(rows)
    assert_same_index(got, ClaimIndex(want))
    assert {item: got[item] for item in got} == want
    assert (report.n_rows, report.n_claims) == (len(rows), len(got.claim_cand))


# a malformed claims file and the line its `ParseError` names
MALFORMED_CLAIMS = {
    "short row": ("source_id,item_id,value\ns1,d1,a\ns1,d1\n", 3),
    "whitespace source": ('source_id,item_id,value\ns1,d1,a\n" ",d1,b\n', 3),
    "whitespace item": ('source_id,item_id,value\ns1,d1,a\ns1,"\t",b\n', 3),
    "whitespace value": ('source_id,item_id,value\ns1,d1,a\ns1,d1,"  "\n', 3),
    "after blank lines": ("source_id,item_id,value\ns1,d1,a\n\n\n\ns2,d1\n", 6),
    "after a two-line field": ('source_id,item_id,value\ns1,d1,"a\nb"\ns2,,c\n', 4),
    "crlf and byte-order mark": ("\ufeffsource_id,item_id,value\r\ns1,d1,a\r\n\r\ns2,d2,\r\n", 4),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CLAIMS))
def test_malformed_claims_line(tmp_path, name):
    text, line = MALFORMED_CLAIMS[name]
    path = tmp_path / "claims.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as caught:
        mio.load_claims(path)
    assert str(caught.value) == f"malformed claims row in {path} (line {line})"
    assert caught.value.line == line


def test_loading_a_bench_file_runs_no_older_generation_collection(tmp_path):
    """The loader keeps no object per row that the cyclic collector tracks,
    so the 51k rows of the `fuse_hybrid` data leave the older generations
    of CPython's collector alone."""
    assert gc.isenabled()
    rows = generate(SynthConfig(**BENCH_SETTINGS["fuse_hybrid"], rng_seed=1))[0]
    assert len(rows) > 50_000
    path = tmp_path / "claims.csv"
    mio.write_claims_csv(rows, path)
    del rows
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        mio.load_claims(path)
    finally:
        gc.callbacks.remove(count)
    assert collections[1:] == [0, 0], collections


def _outcome(read, path):
    """What `read(path)` returns, or the message and line of its `ParseError`."""
    try:
        return read(path)
    except ParseError as exc:
        return str(exc), exc.line


def _loaded_rows(path):
    """The rows `load_claims` groups, or its `ParseError`."""
    grouped = []

    def capture(rows):
        grouped.append(list(rows))
        return claims_by_item(grouped[-1])

    claims_by_item = mio.claims_by_item
    with mock.patch.object(mio, "claims_by_item", capture):
        outcome = _outcome(mio.load_claims, path)
    return grouped[0] if grouped else outcome


# claims files the plain path must split, and files it must leave to
# `csv.reader`, each with the columns read from it
PLAIN_CLAIMS = {
    "lf": "source_id,item_id,value\ns1,d1,a\ns2,d1,b\n",
    "crlf": "source_id,item_id,value\r\ns1,d1,a\r\ns2,d1,b\r\n",
    "mixed line breaks": "source_id,item_id,value\r\ns1,d1,a\ns2,d1,b\r\n",
    "no last line break": "source_id,item_id,value\ns1,d1,a\ns2,d1,b",
    "byte-order mark": "\ufeffsource_id,item_id,value\ns1,d1,a\ns2,d1,b\n",
    "reordered and extra columns": "x,value,item_id,source_id,x\n,a,d1,s1,1\n2,b,d1,s2,\n",
    "a name given twice": "value,source_id,item_id,value\nz,s1,d1,a\nz,s2,d1,b\n",
    "spaced and non-ASCII text": "source_id,item_id,value\n s1 ,d1,a\u3000\ns2,d1,\tb\n",
}
NOT_PLAIN_CLAIMS = {
    "a quote": 'source_id,item_id,value\ns1,d1,a\ns2,d1,"b"\n',
    "a lone cr": "source_id,item_id,value\ns1,d1,a\rs2,d1,b\n",
    "a lone cr in the header": "source_id,item_id,value\rs1,d1,a\ns2,d1,b\n",
    "a lone cr at the end": "source_id,item_id,value\ns1,d1,a\ns2,d1,b\r",
    "an inner blank line": "source_id,item_id,value\ns1,d1,a\n\ns2,d1,b\n",
    "a trailing blank line": "source_id,item_id,value\r\ns1,d1,a\r\ns2,d1,b\r\n\r\n",
    "a NUL": "source_id,item_id,value\ns1,d1,a\ns2,d1,b\0\n",
    "a lone cr in a value": "source_id,item_id,value\ns1,d1,a\rb\ns2,d1,b\n",
    "a longer line": "source_id,item_id,value\ns1,d1,a,x\ns2,d1,b\n",
    "a longer and a shorter line": "source_id,item_id,value\ns1,d1,a,x\ns2,d1\n",
    "a line of two lines' fields": "source_id,item_id,value\ns1,d1,a,x,s2,d1,b\n",
    "a whitespace value": "source_id,item_id,value\ns1,d1,a\ns2,d1,\u3000\n",
    "an ASCII whitespace value": "source_id,item_id,value\ns1,d1,a\ns2,d1,\x0b\x0c\x1c\x1f\n",
    "an empty item": "source_id,item_id,value\ns1,d1,a\ns2,,b\n",
    "no value column": "source_id,item_id\ns1,d1\n",
    "a non-UTF-8 byte": "source_id,item_id,value\ns1,d1,a\ns2,d1,b\udcff\n",
}


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "not-plain"])
def test_plain_path_splits_only_plain_files(tmp_path, plain):
    path = tmp_path / "claims.csv"
    for name, text in (PLAIN_CLAIMS if plain else NOT_PLAIN_CLAIMS).items():
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        got = mio._plain_claim_columns(path)
        if plain:
            assert got == mio._reader_claim_columns(path) != ([], [], []), name
        else:
            assert got is None, name


def test_plain_path_reads_bench_files_in_chunks(tmp_path):
    rows = generate(SynthConfig(**BENCH_SETTINGS["fuse_hybrid"], rng_seed=1))[0]
    path = tmp_path / "claims.csv"
    mio.write_claims_csv(rows, path)
    assert path.stat().st_size > 4 * mio._PLAIN_CHUNK
    columns = mio._plain_claim_columns(path)
    assert columns == mio._reader_claim_columns(path) == tuple(map(list, zip(*rows)))


def _rarely(strategy, common, one_in=30):
    """`strategy` once in `one_in` draws, `common` otherwise."""
    return st.integers(0, one_in - 1).flatmap(lambda k: strategy if k == 0 else common)


# field text: mostly plain, sometimes what `csv.reader` reads its own way,
# sometimes longer than the lowered field size limit
_FIELD_LIMIT = 12
_CLAIM_FIELDS = _rarely(st.one_of(st.text(alphabet='ab ,"\t\r\n\0\u3000', max_size=5),
                                  st.text(alphabet="ab", min_size=11, max_size=14)),
                        st.text(alphabet="abé", min_size=1, max_size=4))


@st.composite
def claims_files(draw):
    """The bytes of a claims CSV file, awkward in the ways `csv.reader`
    and the plain path could read differently: quotes, CR, LF and mixed
    line breaks, blank lines, a byte-order mark, NUL, reordered, extra and
    repeated columns, empty, blank and oversized fields, and a byte that
    is not UTF-8."""
    header = list(draw(st.permutations(mio.CLAIM_COLUMNS)))
    for name in draw(st.lists(st.sampled_from(["x", "", *mio.CLAIM_COLUMNS]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(mio.CLAIM_COLUMNS)))
    width = _rarely(st.integers(len(header) - 1, len(header) + 1), st.just(len(header)))
    quoted = _rarely(st.just(True), st.just(False))
    lines = [",".join(header)]
    for w in draw(st.lists(width, max_size=8)):
        lines.append(",".join('"' + f.replace('"', '""') + '"' if draw(quoted) else f
                              for f in draw(st.lists(_CLAIM_FIELDS, min_size=w, max_size=w))))
    for _ in range(draw(_rarely(st.integers(1, 2), st.just(0), 4))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    mixed = _rarely(st.just("\r"), st.sampled_from(["\n", "\r\n"]), 8)
    end = draw(st.sampled_from([st.just("\n"), st.just("\r\n"), mixed]))
    ends = [draw(end) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    data = ("\ufeff" if draw(st.booleans()) else "") + "".join(map("".join, zip(lines, ends)))
    data = data.encode()
    if data and draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8, late in the file
        at = draw(st.integers(len(data) // 2, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture
def field_limit():
    """`csv.field_size_limit()` lowered to `_FIELD_LIMIT` while the test runs."""
    old = csv.field_size_limit(_FIELD_LIMIT)
    try:
        yield _FIELD_LIMIT
    finally:
        csv.field_size_limit(old)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=claims_files())
def test_plain_path_reads_as_the_reader_loop(tmp_path_factory, field_limit, data):
    """The plain path gives nothing or the reader loop's columns, and
    `load_claims` groups the reader loop's rows or raises its error."""
    path = tmp_path_factory.mktemp("plain") / "claims.csv"
    path.write_bytes(data)
    want = _outcome(mio._reader_claim_columns, path)
    plain = mio._plain_claim_columns(path)
    assert plain is None or plain == want
    if isinstance(want[0], list):
        want = list(zip(*want)) or (f"no claims found in {path}", None)
    assert _loaded_rows(path) == want


def test_load_traces_no_more_memory_than_the_reader_loop(tmp_path):
    """The plain path holds a chunk of the file's text at a time, so the
    traced peak of a load stays near that of the reader loop."""
    rows = generate(SynthConfig(**BENCH_SETTINGS["fuse_hybrid"], rng_seed=1))[0]
    path = tmp_path / "claims.csv"
    mio.write_claims_csv(rows, path)
    del rows
    assert mio._plain_claim_columns(path) is not None
    peaks = []
    for plain in (mio._plain_claim_columns, lambda path: None):
        with mock.patch.object(mio, "_plain_claim_columns", plain):
            mio.load_claims(path)
            tracemalloc.start()
            try:
                mio.load_claims(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] <= 1.05 * peaks[1], peaks


# an oversized field for each CSV loader, and the line it is on
_OVERSIZED = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("load, kind, text", [
    (mio.load_claims, "claims", f"source_id,item_id,value\ns1,d1,a\ns2,d1,{_OVERSIZED}\n"),
    (mio.load_gold, "gold", f"item_id,value\nd1,a\nd1,{_OVERSIZED}\n"),
    (mio.load_predictions, "predictions", f"item_id,value,probability,selected\n"
                                          f"d1,a,0.9,true\nd1,{_OVERSIZED},0.1,false\n"),
], ids=["claims", "gold", "predictions"])
def test_a_field_past_the_size_limit_is_a_parse_error(tmp_path, load, kind, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as caught:
        load(path)
    limit = csv.field_size_limit()
    assert str(caught.value) == (f"unreadable {kind} row in {path}: field larger than "
                                 f"field limit ({limit}) (line 3)")
    assert caught.value.line == 3
    assert mio._plain_claim_columns(path) is None


class TestGold:
    def test_round_trip(self, tmp_path):
        gold = GoldStandard(truths={"d1": {"a", "b"}, "d2": {"c"}})
        path = tmp_path / "gold.csv"
        mio.write_gold_csv(gold, path)
        again = mio.load_gold(path)
        assert again.truths == gold.truths

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("item_id\nd1\n")
        with pytest.raises(ParseError, match="value"):
            mio.load_gold(path)

    def test_whitespace_value_reports_line(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text('item_id,value\nd1,a\nd1,"  "\n')
        with pytest.raises(ParseError, match="malformed gold row.*line 3"):
            mio.load_gold(path)


@pytest.mark.parametrize("name, text, load, want", [
    ("claims.csv", "source_id,item_id,value\ns1,d1,a\n",
     lambda path: mio.load_claims(path)[0]["d1"].per_source, {"s1": {"a"}}),
    ("claims.jsonl", '{"source": "s1", "item": "d1", "value": "a"}\n',
     lambda path: mio.load_claims(path)[0]["d1"].per_source, {"s1": {"a"}}),
    ("gold.csv", "item_id,value\nd1,a\n", lambda path: mio.load_gold(path).truths, {"d1": {"a"}}),
    ("pred.csv", "item_id,value,probability,selected\nd1,a,0.9,true\nd1,b,0.1,false\n",
     mio.load_predictions, {"d1": {"a"}}),
], ids=["claims-csv", "claims-jsonl", "gold", "predictions"])
def test_byte_order_mark_is_not_part_of_the_first_field(tmp_path, name, text, load, want):
    # spreadsheet programs save "CSV UTF-8" with a byte-order mark
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load(path) == want


class TestProbabilities:
    def _results(self):
        return {
            "d1": FusionResult(
                item_id="d1",
                probabilities={"a": 0.9123456, "b": 0.1},
                selected_truths=["a"],
                diagnostics=FusionDiagnostics(method="hybrid")),
        }

    def test_write_and_reload_predictions(self, tmp_path):
        path = tmp_path / "out.csv"
        mio.write_probabilities(self._results(), path)
        predicted = mio.load_predictions(path)
        assert predicted == {"d1": {"a"}}
        text = path.read_text()
        assert "0.912346" in text  # 6 significant digits
        assert text.splitlines()[0] == "item_id,value,probability,selected"

    def test_malformed_prediction_rows_report_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        for text in ("item_id,value,probability,selected\nd1,a,0.9,true\nd1,b,0.1\n",
                     "item_id,value\nd1,a\n,b\n"):
            path.write_text(text)
            with pytest.raises(ParseError, match="malformed predictions row.*line 3"):
                mio.load_predictions(path)

    def test_plain_prediction_csv(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("item_id,value\nd1,a\nd1,b\n")
        assert mio.load_predictions(path) == {"d1": {"a", "b"}}

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        mio.write_probabilities(self._results(), p1)
        mio.write_probabilities(self._results(), p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_write_probabilities(results, path):
    """`write_probabilities` as it was written on `csv.writer`: every
    item's `FusionResult`, items and values sorted by their `str`."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("item_id", "value", "probability", "selected"))
        for item in sorted(results, key=str):
            r = results[item]
            for value in sorted(r.probabilities, key=str):
                writer.writerow((item, value, format(r.probabilities[value], ".6g"),
                                 "true" if value in r.selected_truths else "false"))


def _written(results, path):
    mio.write_probabilities(results, path)
    return path.read_bytes()


def assert_written_as_built(results, tmp_path, built):
    """The results `iterate` returns are written from the round's arrays,
    building no result object, and give the bytes of the dict they build,
    which both writers write alike."""
    assert isinstance(results, RoundResults) and results.round.selected is not None
    before = len(built)
    from_round = _written(results, tmp_path / "round.csv")
    assert len(built) == before
    from_dict = _written(dict(results), tmp_path / "dict.csv")
    reference_write_probabilities(results, tmp_path / "reference.csv")
    assert from_round == from_dict == (tmp_path / "reference.csv").read_bytes()
    return from_round


@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
@pytest.mark.parametrize("workload", sorted(BENCH_SETTINGS))
def test_round_written_as_its_results_on_bench_data(tmp_path, built, workload, method):
    cfg = SynthConfig(**BENCH_SETTINGS[workload], rng_seed=1)
    rows = generate(cfg)[0]
    path = tmp_path / "claims.csv"
    mio.write_claims_csv(rows, path)
    prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
    try:
        results = iterate(mio.load_claims(path)[0], prior, fusion_backend(method),
                          method_iteration_config(method, IterationConfig()))[0]
    except InstanceTooLargeError:
        assert method == "hybrid-exact" and workload != "fuse_exact"
        return
    assert_written_as_built(results, tmp_path, built)


# item ids and values that `csv.writer` quotes, or leaves alone though
# they look odd: commas, double quotes, line breaks in quoted fields,
# spaces around item ids (values are trimmed), and text past ASCII
AWKWARD_CLAIMS = (
    'source_id,item_id,value\r\n'
    's1,"d,1","a,b"\r\n'
    's2,"d,1","say ""hi"""\r\n'
    's3,"d,1","two\r\nlines"\r\n'
    's1," d2 ",café\r\n'
    's2," d2 ","naïve\nline"\r\n'
    's3," d2 ",日本\r\n'
    's1,d3,plain\r\n'
    's2,d3,"x""y,z"\r\n'
    's3,d3,"cr\ronly"\r\n'
    's1,"d ""4""",v\r\n'
    's2,"d ""4""",w \r\n'
    's3,"è\n5",w\r\n'
)


@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
def test_round_written_as_its_results_on_awkward_text(tmp_path, built, method):
    path = tmp_path / "claims.csv"
    path.write_bytes(AWKWARD_CLAIMS.encode())
    dataset = mio.load_claims(path)[0]
    results = iterate(dataset, PriorConfig(), fusion_backend(method),
                      method_iteration_config(method, IterationConfig()))[0]
    written = assert_written_as_built(results, tmp_path, built)
    assert '"d,1","say ""hi""",'.encode() in written
    assert mio.load_predictions(tmp_path / "round.csv") == {
        item: set(r.selected_truths) for item, r in results.items() if r.selected_truths}


_FIELDS = st.one_of(st.text(), st.text(alphabet=',"\r\n a\u00e9'), st.integers(), st.none(),
                    st.floats(allow_nan=False), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FIELDS, _FIELDS, st.floats(), st.booleans()), max_size=6))
def test_row_writer_quotes_as_csv_writer(rows):
    items, values, probabilities, selected = map(list, zip(*rows)) if rows else ([],) * 4
    got = mio._probability_rows(mio._csv_fields(items), mio._csv_fields(values),
                                probabilities, selected)
    line = io.StringIO()
    csv.writer(line).writerows((i, v, format(p, ".6g"), "true" if s else "false")
                               for i, v, p, s in rows)
    assert got.encode() == line.getvalue().encode()


def test_fuse_builds_no_result_until_read(tmp_path, built):
    """`fuse`'s calls build no `FusionResult`; the first full read of the
    mapping `iterate` returns builds one per item, and later reads none."""
    cfg = SynthConfig(num_items=200, rng_seed=1)
    path = tmp_path / "claims.csv"
    mio.write_claims_csv(generate(cfg)[0], path)
    prior = PriorConfig(n=10, alpha=0.25, truth_count_dist=truth_count_distribution(cfg))
    dataset, report = mio.load_claims(path)
    results, qualities, records = iterate(dataset, prior, fusion_backend("hybrid"))
    fused = results.round
    mio.write_probabilities(results, tmp_path / "fused.csv")
    mio.write_run_summary(tmp_path / "fused.json", "hybrid", 5, qualities, report)
    assert (len(results), list(results), "i0001" in results) == (200, list(dataset), True)
    assert built == []
    first = {item: r.selected_truths for item, r in results.items()}
    assert sorted(built) == sorted(r.item_id for r in results.values()) == sorted(first)
    assert len(built) == len(dataset)
    assert [results[item].selected_truths for item in dataset] == list(first.values())
    assert results == dict(results.items()) and repr(results.items()).startswith("dict_items(")
    assert len(built) == len(dataset)
    # a read mapping lets its round go, and is written item by item alike
    assert results.round is None and repr(results) == repr(fused.results())
    mio.write_probabilities(results, tmp_path / "read.csv")
    assert (tmp_path / "read.csv").read_bytes() == (tmp_path / "fused.csv").read_bytes()


class TestRunSummary:
    def test_contents(self, tmp_path):
        from multitruth import SourceQuality
        path = tmp_path / "run.json"
        q = SourceQuality(accuracy=0.8, recall=0.7, false_positive_rate=0.1,
                          precision=0.9)
        mio.write_run_summary(path, "hybrid", 3, {"s1": q},
                              mio.LoadReport(n_rows=5, n_claims=4, n_duplicates=1))
        payload = json.loads(path.read_text())
        assert payload["method"] == "hybrid"
        assert payload["iterations"] == 3
        assert payload["source_qualities"]["s1"]["accuracy"] == 0.8
        assert payload["load_report"]["duplicates"] == 1


def reference_csv_rows(path, kind, columns, optional=()):
    """`_csv_rows` as it was written on `csv.DictReader`, yielding the same
    tuples; it lets a field of only whitespace through."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"empty {kind} file {path}")
        missing = set(columns) - set(reader.fieldnames)
        if missing:
            raise ParseError(f"{kind} file {path} lacks columns {sorted(missing)}", line=1)
        required = [*columns, *(c for c in optional if c in reader.fieldnames)]
        for row in reader:
            if not all(map(row.get, required)):  # a missing or empty field
                raise ParseError(f"malformed {kind} row in {path}", line=reader.line_num)
            yield tuple(row[c] for c in required)


READER_TEXTS = [
    "",
    "\n",
    "\nsource_id,item_id,value,selected\ns1,d1,a,true\n",
    " source_id,item_id,value\ns1,d1,a\n",
    "source_id,item_id,value\n",
    "source_id,item_id,value\ns1,d1,a\n\ns2,d1,b\n\n\n",
    "source_id,item_id,value\ns1,d1,a\n\n\ns1,,b\n",
    "source_id,item_id,value\r\ns1,d1,a\r\n\r\ns1,d2\r\n",
    "source_id,item_id,value\ns1,d1\n",
    "source_id,item_id,value\ns1,d1,a,extra,more\ns2,d1\n",
    "source_id,item_id,value\ns1,d1,a\n   \n",
    "value,source_id,item_id,value\na,s1,d1,b\nc,s2,d2,d\n",
    "value,source_id,item_id,value\na,s1,d1,b\nc,s2,d2\n",
    'source_id,item_id,value\ns1,d1,"a,b"\ns2,"d\n2",c\n"s\n3",d3,x\n',
    'source_id,item_id,value\ns1,d1,"a\n\nb"\n\ns2,d2,\n',
    'source_id,item_id,value\ns1,"d\n1",a\ns2,d2,""\n',
    "item_id,value,probability,selected\nd1,a,0.9,true\nd1,b,0.1,false\n",
    "item_id,value,probability,selected\nd1,a,0.9,true\nd1,b,0.1\n",
    "item_id,value,selected,selected\nd1,a,x,true\nd1,b,false\n",
    "item_id,value\nd1,a\n\nd2,b\n",
]


@pytest.mark.parametrize("text", READER_TEXTS, ids=range(len(READER_TEXTS)))
def test_csv_reader_matches_dict_reader(tmp_path, text):
    """Each text gives the same fields, or the same error and line, under
    the claims, gold and predictions columns, and through the claims
    reader's columns."""
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    for columns, optional in ((mio.CLAIM_COLUMNS, ()), (("item_id", "value"), ()),
                              (("item_id", "value"), ("selected",))):
        outcomes = []
        for read in (mio._csv_rows, reference_csv_rows):
            try:
                outcomes.append(list(read(path, "test", columns, optional)))
            except ParseError as exc:
                outcomes.append((str(exc), exc.line))
        assert outcomes[0] == outcomes[1], (columns, optional)
    # the claims reader gives the same rows as columns
    outcomes = []
    for read in (mio._csv_claim_columns,
                 lambda path: tuple(map(list, zip(*reference_csv_rows(
                     path, "claims", mio.CLAIM_COLUMNS)))) or ([], [], [])):
        try:
            outcomes.append(tuple(read(path)))
        except ParseError as exc:
            outcomes.append((str(exc), exc.line))
    assert outcomes[0] == outcomes[1]
