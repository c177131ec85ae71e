import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import fdhscale as f
from fdhscale import Delta, Orientation, Tolerance, io_cli, model, rts

from conftest import float_csv_lines, make_staircase, with_dominated


RESPONSE_B = (
    "alpha_threshold,beta_value\n"
    "0.333333333333,0.5\n"
    "1,1\n"
    "1.666666666667,1.25\n"
    "2,3.25\n"
)


class TestReadCsv:
    def test_basic_parse(self, stair_csv):
        d = f.read_csv(stair_csv)
        assert d.names == ("A", "B", "C", "D")
        assert d.inputs[1] == (3.0,)
        assert isinstance(d.inputs[1][0], float)

    def test_exact_parse(self, stair_csv):
        d = f.read_csv(stair_csv, exact=True)
        assert d.inputs[3] == (F(6),)
        assert isinstance(d.outputs[0][0], F)

    def test_fraction_literals_and_decimals(self):
        d = f.read_csv_text("dmu,in_a,out_b\nU,3/2,0.25\n", exact=True)
        assert d.inputs[0] == (F(3, 2),) and d.outputs[0] == (F(1, 4),)
        df = f.read_csv_text("dmu,in_a,out_b\nU,3/2,0.25\n")
        assert df.inputs[0] == (1.5,) and df.outputs[0] == (0.25,)

    def test_whitespace_and_blank_lines_tolerated(self):
        d = f.read_csv_text("dmu, in_a , out_b\n\nU , 2 , 3 \n\n")
        assert d.names == ("U",) and d.inputs[0] == (2.0,)

    def test_multiple_columns_in_order(self):
        d = f.read_csv_text("dmu,in_a,in_b,out_c,out_d\nU,1,2,3,4\n")
        assert d.m == 2 and d.s == 2

    @pytest.mark.parametrize(
        "text,error",
        [
            ("", f.EmptyDatasetError),
            ("dmu,in_a,out_b\n", f.EmptyDatasetError),
            ("name,in_a,out_b\nU,1,2\n", f.ParseError),
            ("dmu,out_b\nU,2\n", f.NoInputColumnsError),
            ("dmu,in_a\nU,1\n", f.NoOutputColumnsError),
            ("dmu,in_a,size,out_b\nU,1,9,2\n", f.ParseError),
            ("dmu,out_b,in_a\nU,2,1\n", f.ParseError),
            ("dmu,in_a,out_b\nU,1\n", f.RaggedRowsError),
            ("dmu,in_a,out_b\nU,one,2\n", f.ParseError),
            ("dmu,in_a,out_b\nU,1/0,2\n", f.ParseError),
            ("dmu,in_a,out_b\nU,1,2\nU,3,4\n", f.DuplicateNameError),
            ("dmu,in_a,out_b\nU,0,2\n", f.NonpositiveValueError),
            ("dmu,in_a,out_b\nU,-1,2\n", f.NonpositiveValueError),
        ],
    )
    def test_rejected_inputs(self, text, error):
        with pytest.raises(error):
            f.read_csv_text(text)

    def test_parse_error_locates_the_cell(self):
        with pytest.raises(f.ParseError) as exc:
            f.read_csv_text("dmu,in_a,out_b\nU,1,2\nV,bad,4\n")
        msg = str(exc.value)
        assert "row 3" in msg and "in_a" in msg and "bad" in msg

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "\ufeffdmu,in_a,out_b\nU,1,2\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        for d in (f.read_csv(path), f.read_csv_text(text)):
            assert d.names == ("U",) and d.inputs[0] == (1.0,)

    def test_missing_file(self, tmp_path):
        with pytest.raises(f.ParseError):
            f.read_csv(tmp_path / "absent.csv")

    def test_plain_float_grid_is_checked_by_validate_dataset(self, monkeypatch):
        calls, right = [], io_cli.validate_dataset

        def spy(*args):
            calls.append(args)
            return right(*args)

        monkeypatch.setattr(io_cli, "validate_dataset", spy)
        monkeypatch.setattr(io_cli, "_cell", None)  # the row loop would fail
        d = f.read_csv_text("dmu,in_a,out_b\nU,1.5,2\nV,3,0.25\n")
        assert [args[3] for args in calls] == [["in_a", "out_b"]]
        assert d.columns == ((1.5, 3.0), (2.0, 0.25))


    def test_a_late_odd_cell_is_read_row_by_row_from_its_piece(self, tmp_path, capsys):
        # the grid keeps every piece before the one with the odd cell, and the
        # row loop numbers that piece's rows on from them
        lines = float_csv_lines(4000)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",13/4"
        text = "\n".join(lines) + "\n"
        d = f.read_csv_text(text)
        assert d.n == 4000 and d.outputs[-1][-1] == 3.25
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_cli, "_float_grid", lambda *args: None)
            row_loop = f.read_csv_text(text)
        assert (d, repr(d)) == (row_loop, repr(row_loop))
        path = tmp_path / "late.csv"
        path.write_text(text.replace(",13/4\n", ",abc\n"), encoding="utf-8")
        assert io_cli.main(["ratios", "--input", str(path), "--dmu", "U0"]) == 2
        assert capsys.readouterr().err == (
            "error [PARSE_ERROR]: row 4001, column 'out_2': bad number 'abc'\n"
        )

    def test_reading_and_hashing_hold_little_beyond_the_dataset(self, tmp_path):
        # the reader drops the text once it is split and each line once it is
        # read, and the digest hashes a piece of lines at a time, so the traced
        # peak stays near what the dataset itself holds (1.2 times it on CPython
        # 3.11; 1.5 times if the lines were held until the read ends)
        path = tmp_path / "large.csv"
        path.write_text("\n".join(float_csv_lines(4000)) + "\n", encoding="utf-8")
        f.read_csv(path)  # anything built once per process is built here
        gc.collect()
        tracemalloc.start()
        try:
            d = f.read_csv(path)
            d.columns
            held = tracemalloc.get_traced_memory()[0]
            del d
            tracemalloc.reset_peak()
            d = f.read_csv(path)
            io_cli._digest(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * held, (peak, held)

    def test_a_read_dataset_holds_its_columns_and_no_row_tuples(self):
        # per row: five doubles of 24 bytes and their column slots, and a name
        # of about 54 bytes with its slot, 37 bytes a cell on CPython 3.11; a
        # tuple per row of inputs and of outputs would add about 23 more
        text = "\n".join(float_csv_lines(4000)) + "\n"
        f.read_csv_text(text)  # anything built once per process is built here
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = f.read_csv_text(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = d.n * (1 + d.m + d.s)
        assert held <= 45 * cells, held / cells

    def test_a_file_is_never_decoded_whole(self, tmp_path):
        # its bytes are checked a slice at a time, so the traced peak stays
        # within a few slices of the bytes, not twice them as with a decoded copy
        path = tmp_path / "large.csv"
        path.write_text("\n".join(float_csv_lines(4000)) + "\n", encoding="utf-8")
        io_cli._bytes_of(path)
        tracemalloc.start()
        try:
            data = io_cli._bytes_of(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) > 4 * io_cli._SLICE
        assert peak <= len(data) + 3 * io_cli._SLICE, (peak, len(data))

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_a_quoted_name_keeps_the_line_end_it_spans(self, end):
        d = f.read_csv_text('dmu,in_a,out_b\n"U\nV",1,2\nW,3,"4"' + end)
        assert d.names == ("U\nV", "W") and d.outputs == ((2.0,), (4.0,))

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_an_open_quote_at_the_end_reads_up_to_the_field_limit(self, end):
        # csv reads the last line as the text has it, with no line end added
        cell = "2" * (100 - len(end)) + end
        limit = csv.field_size_limit(100)
        try:
            d = f.read_csv_text('dmu,in_a,out_b\nU,1,"' + cell)
        finally:
            csv.field_size_limit(limit)
        assert d.outputs == ((float(cell),),)

    def test_a_bad_number_wins_over_a_later_csv_error(self, tmp_path, capsys):
        # records are read as the rows are, so the row-2 defect is met first
        wide = "1" * (csv.field_size_limit() + 1)
        path = tmp_path / "two_defects.csv"
        path.write_text(f'"dmu","in_a","out_b"\n"U","abc","2"\n"V","1","{wide}"\n')
        assert io_cli.main(["ratios", "--input", str(path), "--dmu", "U"]) == 2
        assert capsys.readouterr().err == (
            "error [PARSE_ERROR]: row 2, column 'in_a': bad number 'abc'\n"
        )

    def test_a_quoted_float_csv_is_read_by_the_grid(self, monkeypatch):
        lines = float_csv_lines(2 * io_cli._CHUNK + 1)
        text = "".join(_quoted(line) + "\n" for line in lines)
        taken, grid = [], io_cli._float_grid

        def spy(*args):
            taken.append(grid(*args))
            return taken[-1]

        monkeypatch.setattr(io_cli, "_float_grid", spy)
        d = f.read_csv_text(text)
        assert len(taken) == 3 and None not in taken
        assert (d, repr(d)) == (plain := f.read_csv_text("\n".join(lines)), repr(plain))

    def test_a_quoted_csv_is_read_in_pieces_too(self):
        # its records are read _CHUNK at a time, as an unquoted file's are, so the
        # traced peak is about the same
        lines = float_csv_lines(20_000)
        peaks = []
        for text in ("\n".join(lines) + "\n", "".join(_quoted(x) + "\n" for x in lines)):
            f.read_csv_text(text)  # anything built once per process is built here
            gc.collect()
            tracemalloc.start()
            try:
                f.read_csv_text(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


def _quoted(line: str) -> str:
    return ",".join(f'"{cell}"' for cell in line.split(","))


class TestWriteCsv:
    def test_round_trip_is_exact(self, stair):
        text = f.write_csv(stair)
        again = f.read_csv_text(text, exact=True)
        assert again.names == stair.names
        assert again.inputs == stair.inputs and again.outputs == stair.outputs

    def test_fractions_survive(self):
        d = f.validate_dataset(["U"], [[F(3, 7)]], [[F(22, 3)]])
        text = f.write_csv(d)
        assert "3/7" in text and "22/3" in text
        again = f.read_csv_text(text, exact=True)
        assert again.inputs == d.inputs and again.outputs == d.outputs

    def test_writes_to_file(self, stair, tmp_path):
        target = tmp_path / "out.csv"
        returned = f.write_csv(stair, target)
        assert target.read_text(encoding="utf-8") == returned


class TestDocuments:
    def test_report_header(self, stair_float):
        doc = f.build_report_document(stair_float)
        header = doc["header"]
        assert list(header) == ["dataset_digest", "tolerance", "version", "projected"]
        assert len(header["dataset_digest"]) == 64
        assert header["tolerance"] == 1e-9
        assert header["projected"] is False

    def test_digest_ignores_float_vs_exact_representation(self, stair, stair_float):
        a = f.build_report_document(stair)["header"]["dataset_digest"]
        b = f.build_report_document(stair_float)["header"]["dataset_digest"]
        assert a == b

    def test_report_units(self, stair_float):
        doc = f.build_report_document(stair_float)
        units = {rec["name"]: rec for rec in doc["units"]}
        assert set(units) == {"A", "B", "C", "D"}
        d_rec = units["D"]
        assert d_rec["efficient"] is True
        assert d_rec["grs"] == "G-CRS"
        assert d_rec["right_rts"] == "Right-DRS"
        assert d_rec["left_rts"] == "Left-IRS"
        assert d_rec["sigma_plus"] == 0
        assert d_rec["sigma_minus"] == 1.015384615385
        assert d_rec["mpss"] is True
        assert d_rec["witnesses"]["sigma_minus"] == "A"
        assert d_rec["witnesses"]["dominating"] is None
        a_rec = units["A"]
        assert a_rec["sigma_plus"] == 1.1
        assert a_rec["sigma_minus"] == "inf"
        assert a_rec["theta"] == {
            "vrs": 1,
            "crs": 0.923076923077,
            "nirs": 0.923076923077,
            "ndrs": 1,
        }
        assert a_rec["witnesses"]["theta"]["crs"] == "D"

    def test_report_serialization_is_deterministic(self, stair_float):
        one = f.write_report(f.build_report_document(stair_float))
        two = f.write_report(f.build_report_document(make_staircase().as_float()))
        assert one == two
        assert one.endswith("\n") and json.loads(one)

    def test_exact_json_bytes(self, stair_float):
        text = f.write_report(f.build_report_document(stair_float))
        assert (
            '"grs":"G-CRS","right_rts":"Right-DRS","left_rts":"Left-IRS",'
            '"sigma_plus":0,"sigma_minus":1.015384615385' in text
        )
        assert '"sigma_minus":"inf"' in text

    def test_dominated_unit_record(self):
        d = with_dominated("E", x=(4,), y=(4,)).as_float()
        doc = f.build_report_document(d)
        rec = doc["units"][4]
        assert rec["name"] == "E"
        assert rec["efficient"] is False
        assert rec["grs"] is None and rec["sigma_plus"] is None
        assert rec["witnesses"]["dominating"] == "B"
        assert rec["theta"]["vrs"] == 0.75

    def test_exact_values_beyond_double_range_are_value_spread(self):
        big, small = F(10**200), F(1, 10**200)
        d = f.validate_dataset(["A", "B"], [[small], [big]], [[big], [small]])
        with pytest.raises(f.ValueSpreadError):
            f.build_report_document(d)

    def test_classification_document_is_compact(self, stair_float):
        doc = f.build_classification_document(stair_float)
        rec = doc["units"][1]
        assert list(rec) == [
            "name",
            "efficient",
            "theta_vrs",
            "mpss",
            "grs",
            "right_rts",
            "left_rts",
            "sigma_plus",
            "sigma_minus",
            "witnesses",
        ]
        assert rec["sigma_plus"] == 2.25 and rec["sigma_minus"] == 0.75

    def test_efficiency_document(self, stair_float):
        doc = f.build_efficiency_document(
            stair_float, Delta.CRS, Orientation.INPUT
        )
        assert doc["technology"] == "crs" and doc["orientation"] == "input"
        values = [rec["value"] for rec in doc["scores"]]
        assert values == [0.923076923077, 0.615384615385, 0.461538461538, 1]
        assert doc["scores"][0]["witness"] == "D"
        assert doc["scores"][0]["delta"] == 0.153846153846

    def test_ratios_document(self, stair_float):
        doc = f.build_ratios_document(stair_float, "B")
        assert doc["name"] == "B" and doc["projected"] is False
        assert doc["sigma_plus"] == 2.25 and doc["sigma_minus"] == 0.75
        assert doc["witnesses"] == {"sigma_plus": "D", "sigma_minus": "A"}

    def test_response_csv_text(self, stair_float):
        assert f.response_csv(stair_float, "B") == RESPONSE_B

    def test_response_csv_alpha_cap(self, stair_float):
        text = f.response_csv(stair_float, "B", alpha_max=1.5)
        assert text == "alpha_threshold,beta_value\n0.333333333333,0.5\n1,1\n"


class TestProjection:
    def test_projectable_unit_lands_on_the_frontier(self):
        d = with_dominated("E", x=(6,), y=(5,)).as_float()
        doc = f.build_report_document(d, project=True)
        rec = doc["units"][4]
        assert rec["projected"] is True
        assert rec["efficient"] is True
        # after expanding outputs by 13/5 the unit coincides with D
        assert rec["grs"] == "G-CRS" and rec["mpss"] is True
        others = doc["units"][:4]
        assert all(r["projected"] is False for r in others)

    def test_unprojectable_unit_stays_marked(self):
        # E only wastes input; output expansion cannot repair it
        d = with_dominated("E", x=(4,), y=(4,)).as_float()
        doc = f.build_report_document(d, project=True)
        rec = doc["units"][4]
        assert rec["projected"] is True
        assert rec["efficient"] is False
        assert rec["witnesses"]["dominating"] == "B"

    def test_header_records_projection(self, stair_float):
        doc = f.build_report_document(stair_float, project=True)
        assert doc["header"]["projected"] is True

    def test_ratios_with_projection(self):
        d = with_dominated("E", x=(6,), y=(5,)).as_float()
        with pytest.raises(f.InefficientUnitError):
            f.build_ratios_document(d, "E")
        doc = f.build_ratios_document(d, "E", project=True)
        assert doc["projected"] is True
        assert doc["sigma_plus"] == 0 and doc["sigma_minus"] == 1.015384615385

    def test_grown_output_rounding_past_the_witness_keeps_the_unit_dominated(self):
        # A has every input below O's. O's output score 1.4/0.3 rounds to
        # 4.666666666666667, and that times 0.3 rounds to 1.4000000000000001,
        # past A's output, so a point grown by that product escapes A. Exactly,
        # A attains the score and differs from the grown point, which it dominates.
        d = f.validate_dataset(["A", "O"], [[1.0], [2.0]], [[1.4], [0.3]])
        for data in (d, d.as_exact()):
            for build in (f.build_classification_document, f.build_report_document):
                rec = build(data, project=True)["units"][1]
                assert (rec["projected"], rec["efficient"]) == (True, False)
                assert rec["witnesses"]["dominating"] == "A"
            with pytest.raises(f.InefficientUnitError, match="dominated by 'A'"):
                f.build_ratios_document(data, "O", project=True)

    def test_a_row_whose_ratio_rounds_onto_the_score_does_not_attain_it(self):
        # P's and Q's output ratios against O round alike, to O's output score;
        # exactly only Q's attains it. Q has O's input, so O grown by the score
        # coincides with Q and is efficient, and P, below it, dominates nothing.
        d = f.validate_dataset(
            ["P", "O", "Q"], [[0.5], [1.0], [1.0]], [[7.8999999999999995], [7.6], [7.9]]
        )
        for data in (d, d.as_exact()):
            rec = f.build_classification_document(data, project=True)["units"][1]
            assert (rec["projected"], rec["efficient"]) == (True, True)
            assert f.build_ratios_document(data, "O", project=True)["projected"] is True

    def test_classify_builds_a_projected_table_only_for_units_reaching_the_frontier(
        self, monkeypatch
    ):
        # grown by 13/5, E coincides with D and is efficient; grown by its score
        # 1, F is still dominated by B; every other unit builds its pool table
        d = f.validate_dataset(
            ["A", "B", "C", "D", "E", "F"],
            [[1.0], [3.0], [5.0], [6.0], [6.0], [4.0]],
            [[2.0], [4.0], [5.0], [13.0], [5.0], [4.0]],
        )
        built, table = [], model._table

        def counted(o, *args):
            built.append(o)
            return table(o, *args)

        monkeypatch.setattr(model, "_table", counted)
        monkeypatch.setattr(rts, "_table", counted)
        units = f.build_classification_document(d, project=True)["units"]
        assert [(rec["projected"], rec["efficient"]) for rec in units[4:]] == [
            (True, True),
            (True, False),
        ]
        assert built == [0, 1, 2, 3, 4, 4, 5]

    @pytest.mark.parametrize("name,tables", [("B", [1]), ("E", [4, 4])])
    def test_ratios_with_projection_build_each_table_once(
        self, monkeypatch, name, tables
    ):
        # an efficient unit's own table, and a dominated unit's own then its
        # projected one; model._table builds every table
        d = with_dominated("E", x=(6,), y=(5,)).as_float()
        built, table = [], model._table

        def counted(o, *args):
            built.append(o)
            return table(o, *args)

        monkeypatch.setattr(model, "_table", counted)
        monkeypatch.setattr(rts, "_table", counted)
        doc = f.build_ratios_document(d, name, project=True)
        assert doc["projected"] is (name == "E") and built == tables


class TestCli:
    def run(self, capsys, *argv):
        code = f.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_report_to_stdout(self, capsys, stair_csv):
        code, out, err = self.run(capsys, "report", "--input", str(stair_csv))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["units"]) == 4

    def test_deterministic_bytes_across_runs(self, capsys, stair_csv):
        _, out1, _ = self.run(capsys, "report", "--input", str(stair_csv))
        _, out2, _ = self.run(capsys, "report", "--input", str(stair_csv))
        assert out1 == out2

    def test_out_file(self, capsys, stair_csv, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = self.run(
            capsys, "report", "--input", str(stair_csv), "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text(encoding="utf-8"))

    def test_out_into_a_missing_directory_is_io_error(
        self, capsys, stair_csv, tmp_path
    ):
        target = tmp_path / "missing" / "report.json"
        code, out, err = self.run(
            capsys, "report", "--input", str(stair_csv), "--out", str(target)
        )
        assert code == 2 and out == "" and not target.parent.exists()
        assert err.startswith(f"error [IO_ERROR]: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_efficiency_flags(self, capsys, stair_csv):
        code, out, _ = self.run(
            capsys,
            "efficiency",
            "--input",
            str(stair_csv),
            "--technology",
            "crs",
            "--orientation",
            "output",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["technology"] == "crs" and doc["orientation"] == "output"
        assert doc["scores"][0]["value"] == 1.083333333333

    def test_classify(self, capsys, stair_csv):
        code, out, _ = self.run(capsys, "classify", "--input", str(stair_csv))
        assert code == 0
        doc = json.loads(out)
        assert [rec["grs"] for rec in doc["units"]] == [
            "G-IRS",
            "G-IRS",
            "G-IRS",
            "G-CRS",
        ]

    def test_ratios(self, capsys, stair_csv):
        code, out, _ = self.run(
            capsys, "ratios", "--input", str(stair_csv), "--dmu", "C"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma_plus"] == 8 and doc["sigma_minus"] == 0.5

    def test_response_stdout_and_emit(self, capsys, stair_csv, tmp_path):
        code, out, _ = self.run(
            capsys, "response", "--input", str(stair_csv), "--dmu", "B"
        )
        assert code == 0 and out == RESPONSE_B
        target = tmp_path / "steps.csv"
        code, out, _ = self.run(
            capsys,
            "response",
            "--input",
            str(stair_csv),
            "--dmu",
            "B",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == RESPONSE_B
        # --emit was a second spelling of --out; it is gone
        code, out, err = self.run(
            capsys,
            "response",
            "--input",
            str(stair_csv),
            "--dmu",
            "B",
            "--emit",
            str(target),
        )
        assert code == 1 and out == "" and "--emit" in err

    def test_response_alpha_max(self, capsys, stair_csv):
        code, out, _ = self.run(
            capsys,
            "response",
            "--input",
            str(stair_csv),
            "--dmu",
            "B",
            "--alpha-max",
            "1.5",
        )
        assert code == 0
        assert out == "alpha_threshold,beta_value\n0.333333333333,0.5\n1,1\n"

    def test_verify_random_only(self, capsys):
        code, out, _ = self.run(
            capsys, "verify", "--trials", "2", "--grid-steps", "100"
        )
        assert code == 0
        assert "overall" in out and "FAIL" not in out

    def test_verify_with_input(self, capsys, stair_csv):
        code, out, _ = self.run(
            capsys,
            "verify",
            "--input",
            str(stair_csv),
            "--trials",
            "0",
            "--grid-steps",
            "100",
        )
        assert code == 0
        assert out.count("PASS") == 10  # nine checks plus the overall line

    def test_verify_without_work_is_usage_error(self, capsys):
        code, _, err = self.run(capsys, "verify", "--trials", "0")
        assert code == 1 and "nothing to verify" in err

    def test_project_flag(self, capsys, tmp_path):
        path = tmp_path / "dom.csv"
        path.write_text(
            "dmu,in_x,out_y\nA,1,2\nB,3,4\nC,5,5\nD,6,13\nE,6,5\n", encoding="utf-8"
        )
        code, out, _ = self.run(
            capsys, "classify", "--input", str(path), "--project"
        )
        assert code == 0
        rec = json.loads(out)["units"][4]
        assert rec["projected"] is True and rec["grs"] == "G-CRS"

    @pytest.mark.parametrize("command", ["classify", "report"])
    def test_mpss_flag_of_dominated_unit_uses_eps(self, capsys, tmp_path, command):
        # A is dominated by B, and its crs score 1/1.0001 is within 5e-4 of 1
        path = tmp_path / "near.csv"
        path.write_text("dmu,in_x,out_y\nA,1,1\nB,1,1.0001\n", encoding="utf-8")
        code, out, _ = self.run(
            capsys, command, "--input", str(path), "--eps", "5e-4"
        )
        assert code == 0
        rec = json.loads(out)["units"][0]
        assert rec["efficient"] is False and rec["mpss"] is True

    @pytest.mark.parametrize("command", ["efficiency", "response", "verify"])
    def test_project_flag_only_where_it_applies(self, capsys, stair_csv, command):
        argv = [command, "--input", str(stair_csv), "--project"]
        if command == "response":
            argv += ["--dmu", "B"]
        code, _, err = self.run(capsys, *argv)
        assert code == 1 and "--project" in err

    @pytest.mark.parametrize(
        "command", ["efficiency", "classify", "ratios", "response", "report", "verify"]
    )
    def test_eps_flag_only_where_it_applies(self, capsys, stair_csv, command):
        # response reads no tolerance, so it refuses --eps; the rest take it
        argv = [command, "--input", str(stair_csv), "--eps", "1e-6"]
        argv += ["--dmu", "B"] if command in ("ratios", "response") else []
        argv += ["--trials", "0"] if command == "verify" else []
        code, _, err = self.run(capsys, *argv)
        assert (code, "--eps" in err) == ((1, True) if command == "response" else (0, False))

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = self.run(capsys, "report", "--input", "/no/such/file.csv")
        assert code == 2 and "PARSE_ERROR" in err

    def test_unknown_unit_is_data_error(self, capsys, stair_csv):
        code, _, err = self.run(
            capsys, "ratios", "--input", str(stair_csv), "--dmu", "Z"
        )
        assert code == 2 and "INDEX_OUT_OF_RANGE" in err

    def test_dominated_ratios_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "dom.csv"
        path.write_text(
            "dmu,in_x,out_y\nB,3,4\nE,4,4\n", encoding="utf-8"
        )
        code, _, err = self.run(capsys, "ratios", "--input", str(path), "--dmu", "E")
        assert code == 2 and "INEFFICIENT_UNIT" in err

    def test_bad_eps_is_usage_error(self, capsys, stair_csv):
        code, _, err = self.run(
            capsys, "report", "--input", str(stair_csv), "--eps", "0.01"
        )
        assert code == 1 and "eps" in err

    def test_bad_flag_is_usage_error(self, capsys, stair_csv):
        code, _, _ = self.run(capsys, "report", "--input", str(stair_csv), "--nope")
        assert code == 1

    def test_missing_command_is_usage_error(self, capsys):
        assert self.run(capsys)[0] == 1

    def test_bad_dataset_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dmu,in_x,out_y\nA,0,2\n", encoding="utf-8")
        code, _, err = self.run(capsys, "report", "--input", str(path))
        assert code == 2 and "NONPOSITIVE_VALUE" in err


class TestInputDefects:
    """Malformed or extreme input ends in one error line and a documented code."""

    def run(self, capsys, tmp_path, text, *argv):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        code = f.main([argv[0], "--input", str(path), *argv[1:]])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_byte_order_mark(self, capsys, tmp_path):
        text = "\ufeffdmu,in_x,out_y\nA,1,2\nB,3,4\nC,5,5\nD,6,13\n"
        code, out, err = self.run(capsys, tmp_path, text, "classify")
        assert code == 0 and err == ""
        assert [rec["name"] for rec in json.loads(out)["units"]] == ["A", "B", "C", "D"]

    def test_second_byte_order_mark_is_part_of_the_header(self, capsys, tmp_path):
        text = "\ufeff\ufeffdmu,in_x,out_y\nA,1,2\nB,2,3\n"
        code, out, err = self.run(capsys, tmp_path, text, "classify")
        assert code == 2 and out == ""
        assert err.startswith("error [PARSE_ERROR]: first column must be 'dmu'")
        with pytest.raises(f.ParseError):
            f.read_csv_text(text)

    def test_empty_unit_name(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "dmu,in_x,out_y\n,1,2\n", "report")
        assert code == 2 and out == ""
        assert err == "error [PARSE_ERROR]: row 2: empty unit name\n"

    @pytest.mark.parametrize("value", ["nan", "abc"])
    def test_alpha_max_that_is_no_number(self, capsys, tmp_path, value):
        text = "dmu,in_x,out_y\nA,1,2\n"
        code, out, err = self.run(
            capsys, tmp_path, text, "response", "--dmu", "A", "--alpha-max", value
        )
        assert code == 1 and out == ""
        assert err.endswith(f"argument --alpha-max: invalid float value: '{value}'\n")

    @pytest.mark.parametrize("command", ["report", "classify"])
    @pytest.mark.parametrize(
        "rows,where",
        [
            ("A,1e-150,1e150\nB,1e150,1e-150\n", "column 'in_x'"),
            ("A,1e-200,1e200\nB,1e200,1e-200\n", "column 'in_x'"),
            ("A,1,2\nB,3,1e400\n", "row 3, column 'out_y'"),
            ("A,1,2\nB,3,-1e3000000\n", "row 3, column 'out_y'"),
        ],
    )
    def test_values_outside_double_range(self, capsys, tmp_path, command, rows, where):
        code, out, err = self.run(capsys, tmp_path, "dmu,in_x,out_y\n" + rows, command)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error [VALUE_SPREAD]: {where}")

    @pytest.mark.parametrize("argv", [("report",), ("ratios", "--dmu", "A")])
    @pytest.mark.parametrize("cell", ["1e-400", "2e-324", "1e3000000", "1e-3000000"])
    def test_underflow_is_value_spread(self, capsys, tmp_path, argv, cell):
        text = f"dmu,in_x,out_y\nA,1,2\nB,3,{cell}\n"
        code, out, err = self.run(capsys, tmp_path, text, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error [VALUE_SPREAD]: row 3, column 'out_y': {cell!r} "
            "is outside the double range\n"
        )

    @pytest.mark.parametrize("argv", [("report",), ("ratios", "--dmu", "A")])
    @pytest.mark.parametrize(
        "cell,entry",
        [
            ("0", "0.0"),
            ("-0", "0.0"),
            ("-1", "-1.0"),
            ("-1e-400", "-0.0"),
            ("0e3000000", "0.0"),
            ("-1e-3000000", "-0.0"),
        ],
    )
    def test_nonpositive_stays_nonpositive(self, capsys, tmp_path, argv, cell, entry):
        text = f"dmu,in_x,out_y\nA,1,2\nB,3,{cell}\n"
        code, out, err = self.run(capsys, tmp_path, text, *argv)
        assert (code, out) == (2, "")
        assert err == f"error [NONPOSITIVE_VALUE]: unit 'B' has non-positive entry {entry}\n"

    @pytest.mark.parametrize(
        "argv,error",
        [
            (("report",), "VALUE_SPREAD"),
            (("verify", "--trials", "0", "--grid-steps", "100"), "PARSE_ERROR"),
        ],
    )
    def test_huge_exponent_is_refused_quickly(self, capsys, tmp_path, argv, error):
        # Fraction would build 10**999999999 before deciding anything
        text = "dmu,in_x,out_y\nA,1,2\nB,3,1e999999999\n"
        start = time.process_time()
        code, out, err = self.run(capsys, tmp_path, text, *argv)
        assert time.process_time() - start < 0.5
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error [{error}]: row 3, column 'out_y': '1e999999999' ")

    @pytest.mark.parametrize("argv", [("report",), ("ratios", "--dmu", "A")])
    @pytest.mark.parametrize(
        "rows,err",
        [
            # every cell is read before any entry is validated
            (
                "A,1,2\nB,-1,3\nC,4,x1\n",
                "error [PARSE_ERROR]: row 4, column 'out_y': bad number 'x1'\n",
            ),
            (
                "A,1,2\nB,1/0,3\nC,4\n",
                "error [PARSE_ERROR]: row 3, column 'in_x': bad number '1/0'\n",
            ),
            # the spread check comes before the duplicate check, in either row order
            (
                "A,1e-200,2\nA,1e200,3\n",
                "error [VALUE_SPREAD]: column 'in_x' spans 1e-200 to 1e+200; its "
                "ratios leave the double range (largest/smallest must be at most 2**511)\n",
            ),
            (
                "A,1,2\nA,2,3\nB,3,1e-300\nC,3,1e300\n",
                "error [VALUE_SPREAD]: column 'out_y' spans 1e-300 to 1e+300; its "
                "ratios leave the double range (largest/smallest must be at most 2**511)\n",
            ),
            (
                "A,1,2\nB,0,3\nC,4,1e-400\n",
                "error [VALUE_SPREAD]: row 4, column 'out_y': '1e-400' is outside "
                "the double range\n",
            ),
        ],
    )
    def test_two_faults_report_the_first_in_order(self, capsys, tmp_path, argv, rows, err):
        text = "dmu,in_x,out_y\n" + rows
        assert self.run(capsys, tmp_path, text, *argv) == (2, "", err)

    def test_invalid_utf8(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"dmu,in_x,out_y\nA\xff,1,2\n")
        code = f.main(["report", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error [PARSE_ERROR]: cannot decode {path}: invalid UTF-8 at byte 16\n"
        )

    def test_field_beyond_csv_limit(self, capsys, tmp_path):
        text = 'dmu,in_x,out_y\nA,1,2\nB,"' + "9" * 200_000 + '",2\n'
        code, out, err = self.run(capsys, tmp_path, text, "report")
        assert (code, out) == (2, "")
        assert err == (
            "error [PARSE_ERROR]: line 3: field larger than field limit (131072)\n"
        )

    def test_wide_exact_data_still_verifies(self, capsys, tmp_path):
        text = "dmu,in_x,out_y\nA,1e-200,1e200\nB,1e200,1e-200\n"
        code, out, _ = self.run(
            capsys, tmp_path, text, "verify", "--trials", "0", "--grid-steps", "100"
        )
        assert code == 0 and "FAIL" not in out


class TestEntryPoints:
    def test_module_invocation(self, stair_csv):
        # the child imports the package under test, installed or not
        src = str(Path(f.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fdhscale", "response", "--input", str(stair_csv), "--dmu", "B"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == RESPONSE_B

    def test_usage_error_then_valid_command_in_one_process(self, stair_csv, capsys):
        # main builds its parser once per process; a refused command line must
        # leave nothing behind that changes the next call
        valid = ["classify", "--input", str(stair_csv)]
        calls = ([*valid, "--eps"], valid)
        in_process = []
        for argv in calls:
            code = f.main(argv)
            in_process.append((code, *capsys.readouterr()))
        src = str(Path(f.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "fdhscale", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in in_process] == [1, 0]
        assert in_process == fresh

    def test_huge_grid_steps_do_not_slow_verify(self, stair_csv):
        # --grid-steps is accepted, not read: the curve walk visits the
        # breakpoints only, so 10^8 grid steps cost nothing
        src = str(Path(f.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["verify", "--input", str(stair_csv), "--trials", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "fdhscale", *argv, "--grid-steps", "100000000"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].split() == ["overall", "PASS"]

    def test_console_script(self, stair_csv):
        exe = shutil.which("fdhscale")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "classify", "--input", str(stair_csv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["units"][3]["grs"] == "G-CRS"


def test_tolerance_flows_from_cli(stair_csv, capsys):
    # eps is echoed in the header so downstream readers can reproduce
    code = f.main(["report", "--input", str(stair_csv), "--eps", "1e-7"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["header"]["tolerance"] == 1e-7


def test_tolerance_type_is_validated():
    with pytest.raises(ValueError):
        Tolerance(0.5)
