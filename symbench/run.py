"""The symsig benchmark: one command, seeded workloads, checked outputs.

    python3 symbench/run.py --workload ade-cold --seed 1 --seconds 40 --trace 0

Run it from the repository root (or give any working directory: paths are
found from this file).  ``--workload all`` runs every workload in turn.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones.  The traced run
also writes its spans to ``symbench/out/trace-<workload>-<seed>.json``.

Load model: one client in a closed loop.  Every query runs in a child forked
from this process, which has imported ``symsig.cli`` and called nothing in
it, so a cold query sees what a fresh ``symsig`` process sees.  One child at a
time; the runner waits while it runs, so at most two processes are alive.
A deep-session child runs a whole session of queries on warm caches.

See DESIGN.md next to this file for the workloads, the metrics and the
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

SETUP_REPEATS = 9
PROBES = ("cyclotomic", "selfcheck")  # one cold child each in a traced run
END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cyclotomic.mul_us": "us",
    "cyclotomic.conjugate_us": "us",
    "cyclotomic.inv_us": "us",
    "cyclotomic.context_s": "s",
    "klein.build_group_s": "s",
    "klein.elements": "count",
    "klein.table_s": "s",
    "klein.validate_s": "s",
    "klein.classes": "count",
    "sympow.mckay_s": "s",
    "sympow.series_s": "s",
    "sympow.rows_computed": "count",
    "sympow.rows_reused": "count",
    "signature.partial_s": "s",
    "signature.gap_s": "s",
    "signature.bound_s": "s",
    "cli.report_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "selfcheck.run_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# children


def _redirect(out_path: Path, err_path: Path) -> None:
    """Point fds 1 and 2, and sys.stdout/sys.stderr, at a query's files."""
    for fd, path in ((1, out_path), (2, err_path)):
        new = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(new, fd)
        os.close(new)
    sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
    sys.stderr = open(2, "w", encoding="utf-8", closefd=False)


def in_child(fn) -> tuple[object, float, float]:
    """Run fn() in a forked child; return its result, wall time and peak RSS in MB.

    The result travels back as JSON over a pipe.  A child that raises reports
    the traceback as its result's ``crash`` field.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 0
        # The runner's stream objects own fds 1 and 2: keep them referenced, or
        # collecting them after _redirect would close the query's files.
        keep = (sys.stdout, sys.stderr)  # noqa: F841
        try:
            os.close(r)
            try:
                result = fn()
            except BaseException:
                result = {"crash": traceback.format_exc()}
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(result).encode())
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if status != 0 or not data:
        return {"crash": f"child exited with status {status}"}, wall, usage.ru_maxrss / 1024
    return json.loads(data), wall, usage.ru_maxrss / 1024


def session_body(workdir: Path, session: list[tuple[str, list[str]]], traced: bool):
    """The child's side: run each (qid, argv) in turn in this one process."""
    import probe

    tracer = probe.Tracer() if traced else None
    results = []
    rows_cached = 0
    for qid, argv in session:
        _redirect(workdir / f"{qid}.out", workdir / f"{qid}.err")
        if traced:
            t0 = time.perf_counter()
            rc, rows_cached = probe.run_traced(argv, qid, tracer, rows_cached)
            latency = time.perf_counter() - t0
        else:
            rc, latency = probe.run_plain(argv)
        results.append({"qid": qid, "rc": rc, "latency": latency})
    return {"results": results, "spans": tracer.spans if traced else []}


def probe_body(kind: str, seed: int):
    import probe

    tracer = probe.Tracer()
    if kind == "cyclotomic":
        probe.cyclotomic_probe(seed, tracer)
    else:
        probe.selfcheck_probe(tracer)
    return {"results": [], "spans": tracer.spans}


# ---------------------------------------------------------------------------
# measuring


def time_setup() -> float:
    """Wall time of one fresh ``python -c "import symsig.cli"`` process."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import symsig.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
    )
    return time.perf_counter() - t0


def run_workload(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    """Run whole passes for about ``seconds``; return the raw record."""
    import decks

    queries = []   # {qid, argv, rc, latency, traced}
    sessions = []  # {wall, rss, traced}
    spans = []
    crashes = []   # tracebacks of children that died
    probes_failed = 0
    setup = []
    pass_times = []
    if not traced:
        time_setup()  # the first import writes the bytecode
    start = last_setup = time.perf_counter()
    for p, deck in enumerate(decks.passes(workload, seed)):
        t_pass = time.perf_counter()
        for s, argvs in enumerate(deck):
            # Set-up samples are spread over the run, so that a short burst of
            # load on the machine cannot move their median.
            if not traced and (not setup or time.perf_counter() - last_setup >= seconds / SETUP_REPEATS):
                setup.append(time_setup())
                last_setup = time.perf_counter()
            session = [(f"p{p}s{s}q{k}", argv) for k, argv in enumerate(argvs)]
            # In a traced run every session runs twice, untraced and traced,
            # in alternating order: the second of two identical children runs
            # on warmer machine caches.
            modes = ((False, True) if s % 2 == 0 else (True, False)) if traced else (False,)
            for mode in modes:
                tag = "t" if mode else "u"
                tagged = [(f"{qid}{tag}", argv) for qid, argv in session]
                res, wall, rss = in_child(lambda: session_body(workdir, tagged, mode))
                sessions.append({"wall": wall, "rss": rss, "traced": mode})
                if "crash" in res:
                    crashes.append(res["crash"])
                    res = {"results": [], "spans": []}
                spans += res["spans"]
                done = {r["qid"]: r for r in res["results"]}
                for qid, argv in tagged:
                    r = done.get(qid, {"rc": -1, "latency": 0.0})
                    queries.append({"qid": qid, "argv": argv, "rc": r["rc"],
                                    "latency": r["latency"], "traced": mode})
        pass_times.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(pass_times) > seconds:
            break
    while not traced and len(setup) < SETUP_REPEATS:
        setup.append(time_setup())
    if traced:
        for kind in PROBES:
            res, _, _ = in_child(lambda: probe_body(kind, seed))
            if "crash" in res:
                crashes.append(res["crash"])
                probes_failed += 1
            else:
                spans += res["spans"]
    return {"queries": queries, "sessions": sessions, "spans": spans, "setup": setup,
            "crashes": crashes, "probes": len(PROBES) if traced else 0, "probes_failed": probes_failed,
            "passes": len(pass_times)}


def check_outputs(workload: str, workdir: Path, queries: list[dict]) -> list[str]:
    """Check every query's output in a child, so the golden corpus never
    enters the runner's memory (children forked later would inherit it)."""

    def body():
        import check

        with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
            golden = json.load(fh)
        failures = []
        for q in queries:
            out = (workdir / f"{q['qid']}.out").read_text(encoding="utf-8")
            err = (workdir / f"{q['qid']}.err").read_text(encoding="utf-8")
            try:
                check.check_output(golden, q["argv"], q["rc"], out, err)
            except (check.Mismatch, ValueError, KeyError, IndexError) as exc:
                failures.append(f"{q['qid']} {' '.join(q['argv'])}: {exc}")
        return failures

    res, _, _ = in_child(body)
    if isinstance(res, dict):
        return [f"checker crashed: {res['crash']}"]
    return res


# ---------------------------------------------------------------------------
# summarising


def end_to_end(record: dict) -> dict:
    lat = [q["latency"] for q in record["queries"]]
    wall = sum(s["wall"] for s in record["sessions"])
    return {
        "queries_per_s": len(lat) / wall,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "peak_rss_mb": max(s["rss"] for s in record["sessions"]),
        "setup_s": statistics.median(record["setup"]),
    }


def per_layer(record: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the trace summary from the spans."""
    spans = record["spans"]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def mean_time(name):
        xs = by_name.get(name, [])
        return statistics.fmean(dur(s) for s in xs) if xs else 0.0

    def mean_count(name, key):
        xs = [s["counts"][key] for s in by_name.get(name, []) if key in s["counts"]]
        return statistics.fmean(xs) if xs else 0.0

    def per_op_us(name):
        xs = by_name.get(name, [])
        ops = sum(s["counts"]["ops"] for s in xs)
        return 1e6 * sum(dur(s) for s in xs) / ops if ops else 0.0

    untraced = {q["qid"][:-1]: q["latency"] for q in record["queries"] if not q["traced"]}
    traced_roots = [s for s in by_name.get("query", []) if s["qid"][:-1] in untraced]
    base = sum(untraced[s["qid"][:-1]] for s in traced_roots)
    overhead = (sum(dur(s) for s in traced_roots) - base) / base if base else 0.0

    metrics = {
        "cyclotomic.mul_us": per_op_us("cyclotomic.mul"),
        "cyclotomic.conjugate_us": per_op_us("cyclotomic.conjugate"),
        "cyclotomic.inv_us": per_op_us("cyclotomic.inv"),
        "cyclotomic.context_s": sum(dur(s) for s in by_name.get("cyclotomic.context", [])),
        "klein.build_group_s": mean_time("klein.build_group"),
        "klein.elements": mean_count("klein.build_group", "elements"),
        "klein.table_s": mean_time("klein.table"),
        "klein.validate_s": mean_time("klein.validate"),
        "klein.classes": mean_count("klein.table", "classes"),
        "sympow.mckay_s": mean_time("sympow.mckay"),
        "sympow.series_s": mean_time("sympow.series"),
        "sympow.rows_computed": mean_count("sympow.series", "rows_computed"),
        "sympow.rows_reused": mean_count("sympow.series", "rows_reused"),
        "signature.partial_s": mean_time("signature.partial"),
        "signature.gap_s": mean_time("signature.gap"),
        "signature.bound_s": mean_time("signature.bound"),
        "cli.report_s": mean_time("cli.report"),
        "cli.render_s": mean_time("cli.render"),
        "cli.output_bytes": mean_count("cli.render", "output_bytes"),
        "selfcheck.run_s": mean_time("selfcheck.run"),
        "trace.overhead_frac": overhead,
    }

    # Self time per layer, summed over the traced queries, next to the
    # untraced time of the same queries: the account the spans must balance.
    index = {(s["qid"], s["id"]): s for s in spans}
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["qid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + dur(s)
    self_totals: dict[str, float] = {}
    for s in spans:
        root = s
        while root["parent"] is not None:
            root = index[(root["qid"], root["parent"])]
        if root["name"] == "query" and root["qid"][:-1] in untraced:
            own = dur(s) - child_time.get((s["qid"], s["id"]), 0.0)
            self_totals[s["name"]] = self_totals.get(s["name"], 0.0) + own
    extensions = [
        {"qid": s["qid"], "series_s": dur(s), **s["counts"]}
        for s in by_name.get("sympow.series", [])
        if s["counts"]["rows_computed"] and s["counts"]["rows_reused"]
    ]
    summary = {
        "self_seconds": self_totals,
        "traced_seconds": sum(self_totals.values()),
        "untraced_seconds": base,
        "overhead_frac": overhead,
        "mckay_s": metrics["sympow.mckay_s"],
        "warm_extensions": extensions,
    }
    return metrics, summary


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        record = run_workload(workload, seed, seconds, traced, workdir)
        failures = check_outputs(workload, workdir, record["queries"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(record["queries"]) + record["probes"]
    failed = len(failures) + record["probes_failed"]
    for line in record["crashes"] + failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if traced:
        metrics, summary = per_layer(record)
        units = PER_LAYER
        with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "summary": summary,
                       "untraced": [q for q in record["queries"] if not q["traced"]],
                       "spans": record["spans"]}, fh)
    else:
        metrics = end_to_end(record)
        units = END_TO_END
    n = sum(1 for q in record["queries"] if not q["traced"])
    print(f"{workload}: seed {seed}, passes {record['passes']}, queries {n}"
          f"{' (each run untraced and traced)' if traced else ''}")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':26s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def import_package() -> None:
    """Import symsig.cli once, here, so every child inherits it already imported.

    ``probe`` imports nothing from symsig beyond what symsig.cli imports.
    """
    sys.path.insert(0, str(SRC))
    import symsig.cli  # noqa: F401
    import probe  # noqa: F401


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import decks

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=decks.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "symsig" / "cli.py").is_file():
        print(f"error: no symsig sources under {SRC}", file=sys.stderr)
        return 2
    import_package()

    names = decks.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
