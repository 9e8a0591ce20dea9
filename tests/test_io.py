"""File-format round trips and parse-error reporting."""

import codecs
import csv
import json

import pytest

from multitruth import Claim, ClaimSet, GoldStandard, ParseError
from multitruth import io as mio
from multitruth.model import FusionDiagnostics, FusionResult


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
    the claims, gold and predictions columns."""
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
