"""Tests of the benchmark itself.

    python3 -m pytest -q symbench/tests

They fork query children and run one short ade-cold pass, so they take
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import decks  # noqa: E402
import run  # noqa: E402

run.import_package()

import probe  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def golden(workload: str) -> dict:
    with open(run.GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_queries(tmp_path: Path, argvs: list[list[str]]) -> list[dict]:
    """Run queries cold, one child each; return {argv, rc, out, err} per query."""
    done = []
    for k, argv in enumerate(argvs):
        qid = f"q{k}"
        res, _, _ = run.in_child(lambda: run.session_body(tmp_path, [(qid, argv)], False))
        rc = res["results"][0]["rc"]
        out = (tmp_path / f"{qid}.out").read_text(encoding="utf-8")
        err = (tmp_path / f"{qid}.err").read_text(encoding="utf-8")
        done.append({"argv": argv, "rc": rc, "out": out, "err": err})
    return done


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_same_seed_same_queries(workload):
    first = list(islice(decks.passes(workload, 5), 3))
    again = list(islice(decks.passes(workload, 5), 3))
    other = list(islice(decks.passes(workload, 6), 3))
    assert first == again
    assert first != other


def test_every_menu_query_has_a_golden_entry():
    for workload in decks.WORKLOADS:
        entries = golden(workload)
        for deck in islice(decks.passes(workload, 1), 20):
            for session in deck:
                for argv in session:
                    check.expected(entries, argv)


def test_cold_child_starts_with_empty_caches():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; run.import_package(); "
        "from symsig.klein import build_group; from symsig.cyclotomic import get_context; "
        "res, _, _ = run.in_child(lambda: [build_group.cache_info().currsize, "
        "get_context.cache_info().currsize]); print(res)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[0, 0]"


def exact_digit_positions(q: dict, fmt: str) -> list[int]:
    """Digits whose change the check must catch.

    Every digit of a decompose report qualifies.  In a signature report every
    digit but the error bound's (checked by an inequality) does, as the shadow
    of an exact rational is fixed by it.  In a table report the shadows of
    cyclotomic values are checked to 1e-9 only, so only the digits before the
    first shadow column (title and meta) are used.
    """
    out = q["out"]
    if q["argv"][0] == "table":
        return [p for p in range(out.find("decimal")) if out[p].isdigit()]
    skip = range(0)
    if q["argv"][0] == "signature":
        rows = check.parse_report(out, fmt)["sections"][0]["rows"]
        (bound,) = [row[2] for row in rows if row[0] == "error_bound"]
        start = out.find(bound)
        skip = range(start, start + len(bound))
    return [p for p, ch in enumerate(out) if ch.isdigit() and p not in skip]


@pytest.mark.parametrize("fmt", decks.FORMATS)
def test_mutated_output_byte_is_caught(tmp_path, fmt):
    entries = golden("ade-cold")
    argvs = [
        ["decompose", "BD:3", "0..12", "--format", fmt],
        ["signature", "BT", "-i", "2", "--horizon", "200", "--format", fmt],
        ["table", "cyclic:5,2", "--format", fmt],
    ]
    for q in run_queries(tmp_path, argvs):
        check.check_output(entries, q["argv"], q["rc"], q["out"], q["err"])
        positions = exact_digit_positions(q, fmt)
        assert positions
        for p in positions[:: max(1, len(positions) // 25)]:
            bad = q["out"][:p] + str((int(q["out"][p]) + 1) % 10) + q["out"][p + 1:]
            with pytest.raises((check.Mismatch, ValueError, KeyError, IndexError)):
                check.check_output(entries, q["argv"], q["rc"], bad, q["err"])


def test_failed_query_and_stray_stderr_are_caught(tmp_path):
    entries = golden("ade-cold")
    (q,) = run_queries(tmp_path, [["table", "BT", "--format", "csv"]])
    with pytest.raises(check.Mismatch):
        check.check_output(entries, q["argv"], 1, q["out"], q["err"])
    with pytest.raises(check.Mismatch):
        check.check_output(entries, q["argv"], 0, q["out"], "Traceback (most recent call last):\n")
    with pytest.raises(check.Mismatch):
        check.check_output(entries, q["argv"], 0, q["out"], "warning: something\n")


def test_error_bound_is_checked_by_invariant_not_bytes():
    rep = {
        "title": "t", "meta": [],
        "sections": [{"name": "signature", "columns": ["quantity", "exact", "decimal"], "rows": [
            ["true_error", "1/100", "0.01"],
            ["error_bound", "-", "0.02"],
        ]}],
    }
    tighter = json.loads(json.dumps(rep))
    tighter["sections"][0]["rows"][1] = ["error_bound", "3/200", "0.015"]
    assert check.exact_form(rep) == check.exact_form(tighter)
    broken = json.loads(json.dumps(rep))
    broken["sections"][0]["rows"][1] = ["error_bound", "-", "0.005"]
    with pytest.raises(check.Mismatch):
        check.exact_form(broken)


def test_corrupted_golden_entry_is_counted(tmp_path, monkeypatch, capsys):
    corrupt = tmp_path / "golden"
    shutil.copytree(run.GOLDEN, corrupt)
    path = corrupt / "ade-cold.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    entries["table BT"]["sections"][1]["rows"][3][2] = "-2"  # every ade-cold pass has table BT
    path.write_text(json.dumps(entries), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN", corrupt)
    result = run.run_one("ade-cold", 3, 0, traced=False)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "FAILED" in capsys.readouterr().err


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END == e2e
    assert run.PER_LAYER == layers
    metrics, _ = run.per_layer({"queries": [], "spans": []})
    assert set(metrics) == set(layers)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(decks.WORKLOADS)


def test_cyclotomic_probe_fails_on_a_wrong_inverse():
    def body():
        from symsig.cyclotomic import CycloElement

        CycloElement.inv = lambda self: self  # noqa: wrong on purpose
        probe.cyclotomic_probe(0, probe.Tracer())
        return "passed"

    res, _, _ = run.in_child(body)
    assert "crash" in res and "x.inv()" in res["crash"]
