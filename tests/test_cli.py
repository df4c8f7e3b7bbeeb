"""Command-line surface: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import symsig.cli as cli
from symsig import selfcheck
from symsig.cyclotomic import ConsistencyError
from symsig.klein import build_group
from test_golden import COMMANDS, GROUPS, SHA256, SINGLE


def run(*argv):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def pretty_section(columns, rows):
    """One section's pretty layout, with widths taken over all of its rows."""
    widths = [max(map(len, cells)) for cells in zip(columns, *rows)]
    lines = [" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [columns] + rows]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


class TestGroupSpecParsing:
    def test_case_insensitive(self):
        assert cli.parse_group_spec("bi") == cli.parse_group_spec("BI")
        assert cli.parse_group_spec("Cyclic:5,2") == cli.parse_group_spec("cyclic:5,2")
        assert cli.parse_group_spec("bd:3") == cli.parse_group_spec("BD:3")

    @pytest.mark.parametrize("bad", ["", "frob:3", "cyclic:5", "bd:x", "cyclic:a,b"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_group_spec(bad)

    def test_q_ranges(self):
        assert cli.parse_q_range("4") == (4, 4)
        assert cli.parse_q_range("0..24") == (0, 24)
        for bad in ("banana", "5..2", "-1..3"):
            with pytest.raises(cli.UsageError):
                cli.parse_q_range(bad)


class TestExitCodes:
    def test_success(self):
        code, out, _ = run("table", "cyclic:3,2")
        assert code == 0 and "character table" in out

    def test_usage_error_on_bad_group(self):
        code, out, err = run("table", "frob:3")
        assert code == 2 and not out and "bad group spec" in err

    def test_usage_error_on_non_unit_weight(self):
        code, _, err = run("table", "cyclic:4,2")
        assert code == 2 and "coprime" in err

    def test_usage_error_on_bad_index(self):
        code, _, err = run("signature", "BT", "-i", "99", "--horizon", "5")
        assert code == 2 and "out of range" in err

    def test_usage_error_on_bad_range(self):
        code, _, _ = run("decompose", "BT", "banana")
        assert code == 2

    def test_usage_error_on_unknown_subcommand(self):
        assert run("frobnicate")[0] == 2

    def test_usage_error_on_unknown_elliptic_subcommand(self):
        code, out, err = run("elliptic", "foo")
        assert code == 2 and not out and "invalid choice" in err

    @pytest.mark.parametrize("argv", [("signature", "BT"), ("elliptic", "dsigma")])
    def test_usage_error_on_zero_horizon(self, argv):
        code, out, err = run(*argv, "--horizon", "0")
        assert code == 2 and not out and err == "error: --horizon must be at least 1\n"

    @pytest.mark.parametrize("argv", [("table", "BT"), ("decompose", "BT", "3")])
    def test_usage_error_on_horizon_without_a_sum(self, argv):
        code, out, err = run(*argv, "--horizon", "5")
        assert code == 2 and not out and "--horizon" in err

    @pytest.mark.parametrize("what", ["dsigma", "bound"])
    def test_usage_error_on_q_for_elliptic_sums(self, what):
        code, out, err = run("elliptic", what, "7")
        assert code == 2 and not out and err.startswith("error: ") and err.count("\n") == 1

    def test_usage_error_on_horizon_for_elliptic_sym(self):
        code, out, err = run("elliptic", "sym", "2", "--horizon", "3")
        assert code == 2 and not out and err.startswith("error: ") and err.count("\n") == 1
        assert "--horizon" in err

    @pytest.mark.parametrize("target", ["missing/x.txt", ""], ids=["missing-dir", "directory"])
    def test_usage_error_on_unwritable_output(self, tmp_path, target):
        code, out, err = run("table", "BT", "--output", str(tmp_path / target))
        assert code == 2 and not out and err.startswith("error: ") and err.count("\n") == 1

    def test_internal_failure_maps_to_one(self, monkeypatch):
        def boom(args):
            raise ConsistencyError("forced failure")

        monkeypatch.setattr(cli, "cmd_table", boom)
        code, out, err = run("table", "BT")
        assert code == 1 and not out and "internal consistency failure" in err

    def test_refused_decompose_writes_nothing(self, monkeypatch, tmp_path):
        def boom(G, q):
            raise ConsistencyError("forced failure")

        monkeypatch.setattr(cli, "decompose", boom)
        path = tmp_path / "report.txt"
        for extra in ((), ("--output", str(path))):
            code, out, err = run("decompose", "BT", "0..5", *extra)
            assert code == 1 and not out and err.startswith("internal consistency failure")
        assert not path.exists()


class TestClosedReader:
    """A reader that closes early ends the run with status 0 and no stderr."""

    CLI = [sys.executable, "-m", "symsig.cli"]

    def test_reader_gone_before_the_first_write(self):
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run(
                [*self.CLI, "table", "BT"], stdout=w, stderr=subprocess.PIPE, timeout=60
            )
        finally:
            os.close(w)
        assert done.returncode == 0 and not done.stderr

    def test_reader_leaves_mid_write(self):
        cmd = [*self.CLI, "decompose", "BD:5", "0..30000"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert child.stdout.read(1000)
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert child.returncode == 0 and not err


class TestHugeHorizon:
    @pytest.mark.parametrize("argv", [("signature", "BI"), ("elliptic", "dsigma")])
    def test_answers_in_a_fresh_process(self, argv):
        cmd = [sys.executable, "-m", "symsig.cli", *argv, "--horizon", str(10**12)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        assert done.returncode == 0 and not done.stderr
        assert "1000000000000" in done.stdout


class TestWarmProcess:
    SEQUENCE = [
        ("table", "BT"),
        ("signature", "BI"),
        ("signature", "BI", "--horizon", "abc"),
        ("signature", "BI"),
    ]
    SCRIPT = """
import contextlib, io, json, sys
import symsig.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

    def test_one_process_answers_as_fresh_ones(self):
        # A warm process answers each query, a rejected one included, with
        # the bytes and exit code of a fresh process.
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(self.SEQUENCE)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        warm = json.loads(done.stdout)
        fresh = []
        for argv in self.SEQUENCE:
            one = subprocess.run(
                [sys.executable, "-m", "symsig.cli", *argv], capture_output=True, text=True,
                timeout=60,
            )
            fresh.append([one.returncode, one.stdout, one.stderr])
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
        assert warm == fresh


class TestReports:
    def test_signature_frozen_values(self):
        code, out, _ = run("signature", "cyclic:2,1", "-i", "0", "--horizon", "10")
        assert code == 0
        assert "36/66" in out and "1/2" in out and "1/22" in out

    def test_decompose_frozen_column(self):
        code, out, _ = run("decompose", "cyclic:2,1", "0..4", "--format", "csv")
        rows = csv_rows(out)
        header = rows[rows.index(["section", "multiplicities"]) + 1]
        qi, ai = header.index("q"), header.index("alpha0")
        data = rows[rows.index(header) + 1 :]
        got = [(r[qi], r[ai]) for r in data]
        assert got == [("0", "1"), ("1", "0"), ("2", "3"), ("3", "0"), ("4", "5")]

    def test_decompose_reads_one_far_row(self):
        q = 10**22
        code, out, _ = run("decompose", "BT", str(q), "--format", "json")
        doc = json.loads(out)
        (row,) = next(s for s in doc["sections"] if s["name"] == "multiplicities")["rows"]
        assert code == 0 and row["q"] == str(q) and row["dimension"] == str(q + 1)

    def test_decompose_conservation_column(self):
        _, out, _ = run("decompose", "BT", "0..24", "--format", "csv")
        rows = csv_rows(out)
        header = next(r for r in rows if r and r[0] == "q")
        data = rows[rows.index(header) + 1 :]
        for r in data:
            assert int(r[-1]) == int(r[0]) + 1

    def test_table_reports_bi_shape(self):
        _, out, _ = run("table", "BI", "--format", "json")
        doc = json.loads(out)
        chars = next(s for s in doc["sections"] if s["name"] == "characters")
        assert len(chars["rows"]) == 9
        assert sorted(int(r["degree"]) for r in chars["rows"]) == [1, 2, 2, 3, 3, 4, 4, 5, 6]

    def test_table_reports_cyclic_shape(self):
        _, out, _ = run("table", "cyclic:5,2", "--format", "json")
        doc = json.loads(out)
        classes = next(s for s in doc["sections"] if s["name"] == "classes")
        chars = next(s for s in doc["sections"] if s["name"] == "characters")
        assert len(classes["rows"]) == 5
        assert all(r["degree"] == "1" for r in chars["rows"])

    def test_elliptic_sym_frozen_row(self):
        _, out, _ = run("elliptic", "sym", "2", "--format", "csv")
        rows = csv_rows(out)
        row = next(r for r in rows if r and r[0] == "2")
        assert row[1:5] == ["F_3 (x) O(2)", "3", "18", "6/1"]

    def test_elliptic_dsigma_frozen_value(self):
        _, out, _ = run("elliptic", "dsigma", "--horizon", "10", "--format", "csv")
        assert ["10", "1/66", "0.0151515151515"] in csv_rows(out)

    def test_elliptic_bound_frozen_values(self):
        _, out, _ = run("elliptic", "bound", "--horizon", "2", "--format", "csv")
        rows = csv_rows(out)
        assert ["1", "1/2", "0.5"] in rows and ["2", "1/1", "1"] in rows

    def test_signature_limit_for_binary_families(self):
        _, out, _ = run("signature", "BI", "--horizon", "50", "--format", "json")
        doc = json.loads(out)
        sig = doc["sections"][0]["rows"]
        limit = next(r for r in sig if r["quantity"] == "limit")
        assert limit["exact"] == "1/120"
        _, out, _ = run("signature", "BD:2", "--horizon", "50", "--format", "json")
        doc = json.loads(out)
        limit = next(
            r for r in doc["sections"][0]["rows"] if r["quantity"] == "limit"
        )
        assert limit["exact"] == "1/8"

    def test_json_and_csv_carry_identical_exact_fields(self):
        _, js, _ = run("signature", "cyclic:6,5", "--horizon", "30", "--format", "json")
        _, cs, _ = run("signature", "cyclic:6,5", "--horizon", "30", "--format", "csv")
        doc = json.loads(js)
        json_pairs = {
            (r["quantity"], r["exact"]) for r in doc["sections"][0]["rows"]
        }
        rows = csv_rows(cs)
        header = next(r for r in rows if r and r[0] == "quantity")
        csv_pairs = {
            (r[0], r[1]) for r in rows[rows.index(header) + 1 :]
        }
        assert json_pairs == csv_pairs


class TestStreaming:
    """Writers send rows as they are generated; the bytes are those of a
    report built whole."""

    @staticmethod
    def check_widths(name, *argv):
        # The CSV report carries every row's cells; lay them out with widths
        # over all rows and compare with the streamed pretty section.
        code, pretty, _ = run(*argv)
        _, text, _ = run(*argv, "--format", "csv")
        rows = csv_rows(text)
        start = rows.index(["section", name]) + 1
        assert code == 0
        assert pretty.split(f"\n[{name}]\n")[1] == pretty_section(rows[start], rows[start + 1 :])

    @pytest.mark.parametrize(
        "spec",
        [f"BD:{n}" for n in range(2, 13)] + ["BT", "BO", "BI", "cyclic:7,3", "cyclic:12,5"],
    )
    def test_decompose_widths_are_those_of_all_rows(self, spec):
        m = build_group(cli.parse_group_spec(spec)).m
        for lo in (0, 7, 10**12 + 7):  # far rows have cells wider than their headers
            for span in (0, 1, m - 1, m, 3 * m + 5):
                self.check_widths("multiplicities", "decompose", spec, f"{lo}..{lo + span}")

    def test_decompose_width_reached_first_in_the_last_m_rows(self):
        # BD:2 has m = 4; alpha0 reaches 8 digits at q = 39999996 only, the
        # first of the last m rows.
        self.check_widths("multiplicities", "decompose", "BD:2", "39999990..39999999")

    # slope_decimal narrows from 2.99999999999e+12 to 3e+12 within the middle range.
    @pytest.mark.parametrize(
        "q", ["0..40", "999999999998..1000000000000", "1000000000000000..1000000000000003"]
    )
    def test_elliptic_sym_widths_are_those_of_all_rows(self, q):
        self.check_widths("bundles", "elliptic", "sym", q)

    GOLDEN_PANEL = [
        [arg.format(g=g) for arg in COMMANDS[command]] for command in COMMANDS for g in GROUPS
    ] + [key.split() for key in (*SHA256, *SINGLE) if isinstance(key, str)]

    @pytest.mark.parametrize("argv", GOLDEN_PANEL, ids=" ".join)
    def test_json_is_json_dumps_of_its_document(self, argv):
        code, out, _ = run(*argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"

    def test_json_of_empty_parts_and_escaped_strings(self):
        odd = 'q"\\\n\t\x01é€'
        rep = cli.Report(
            odd,
            [],
            [
                cli.Section("empty", [odd], [], [len(odd)]),
                cli.Section(odd, ["a", odd], [["1", odd], [odd, ""]], [1, 1]),
            ],
        )
        doc = {
            "title": odd,
            "meta": {},
            "sections": [
                {"name": "empty", "columns": [odd], "rows": []},
                {"name": odd, "columns": ["a", odd],
                 "rows": [{"a": "1", odd: odd}, {"a": odd, odd: ""}]},
            ],
        }
        want = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert cli.RENDERERS["json"](rep) == want
        assert cli.RENDERERS["json"](cli.Report("t", [("k", "v")], [])) == (
            json.dumps({"title": "t", "meta": {"k": "v"}, "sections": []}, indent=2) + "\n"
        )

    SCRIPT = (
        "import resource, sys\n"
        "from symsig.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )

    def test_peak_memory_does_not_grow_with_the_rows_written(self, tmp_path):
        peaks = []
        for q in ("0..100", "0..30000"):
            argv = ["decompose", "BD:5", q, "--format", "json", "--output", str(tmp_path / "r")]
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, *argv], capture_output=True, text=True,
                timeout=60,
            )
            code, peak_kb = map(int, done.stdout.split())
            assert code == 0 and not done.stderr
            peaks.append(peak_kb)
        # ru_maxrss is in KiB on Linux.  Holding the whole report of 0..30000
        # before writing it took about 90 MB more than 0..100.
        assert peaks[1] <= peaks[0] + 3 * 1024, peaks


class TestDeterminism:
    MATRIX = [
        ("table", "BO"),
        ("decompose", "BD:3", "0..12"),
        ("signature", "cyclic:4,3", "--horizon", "64"),
        ("elliptic", "dsigma", "--horizon", "16"),
        ("elliptic", "sym", "0..5"),
    ]

    @pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
    def test_repeated_runs_are_byte_identical(self, fmt):
        for argv in self.MATRIX:
            first = run(*argv, "--format", fmt)
            second = run(*argv, "--format", fmt)
            assert first == second
            assert first[0] == 0

    def test_output_file_matches_stdout(self, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run("table", "BT", "--format", "csv")
        code2, out2, _ = run("table", "BT", "--format", "csv", "--output", str(path))
        assert code == code2 == 0 and out2 == ""
        assert path.read_bytes().decode("utf-8") == out

    def test_csv_uses_crlf_line_endings(self, tmp_path):
        path = tmp_path / "report.csv"
        run("elliptic", "bound", "--horizon", "4", "--format", "csv", "--output", str(path))
        data = path.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n")


class TestSelfcheck:
    def test_reports_on_stderr_and_passes(self):
        code, out, err = run("elliptic", "bound", "--horizon", "2", "--selfcheck")
        assert code == 0
        assert err.count("ok") == 4
        assert "selfcheck" not in out

    def test_a_corrupted_oracle_fails_before_the_command(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "molien_coefficients", lambda G, c, n: [G.ctx.zero] * (n + 1))
        code, out, err = run("table", "BT", "--selfcheck")
        assert code == 1 and out == ""
        assert err.startswith("internal consistency failure: ") and err.count("\n") == 1
