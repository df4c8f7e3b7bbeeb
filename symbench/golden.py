"""Write the golden corpus: the exact fields of every query on every menu.

    python3 symbench/golden.py [workload ...]

Each entry is the canonical exact form (see check.exact_form) of one report,
produced by ``symsig.cli.main`` in this process.  Before anything is written
the entries are cross-checked against the package's independent oracles:

* every decompose row against ``decompose_inner`` and ``springer_series``
  (q <= 64), against ``monomial_weights`` (cyclic groups), and against
  dimension conservation ``sum(a * d) == q + 1``;
* every signature entry: ``limit == d_i / |G|``, and the partial-ratio
  numerator equals the column sum of rows that pass the same row checks
  (with ``monomial_weights`` for cyclic groups up to q = 2000).

Any disagreement aborts without writing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import decks  # noqa: E402
import symsig.cli as cli  # noqa: E402
from symsig.cyclic import monomial_weights  # noqa: E402
from symsig.klein import build_group, character_table, cyclic_weight_indices  # noqa: E402
from symsig.sympow import decompose_inner, multiplicity_series, springer_series  # noqa: E402

ORACLE_MAX_Q = 64
MONOMIAL_MAX_Q = 2000


class OracleError(Exception):
    pass


def report(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--format", "json"])
    if rc != 0 or err.getvalue():
        raise OracleError(f"{argv}: exit {rc}, stderr {err.getvalue()!r}")
    return check.exact_form(check.parse_report(out.getvalue(), "json"))


def check_rows(spec: str, rows: list[tuple[int, ...]]) -> None:
    """Oracle checks on multiplicity rows 0..len(rows)-1 of one group."""
    G = build_group(cli.parse_group_spec(spec))
    degrees = character_table(G).degrees
    for q, row in enumerate(rows):
        if sum(a * d for a, d in zip(row, degrees)) != q + 1:
            raise OracleError(f"{spec}: dimension check fails at q={q}")
    top = min(len(rows) - 1, ORACLE_MAX_Q)
    springer = [springer_series(G, i, top) for i in range(len(degrees))]
    for q in range(top + 1):
        if decompose_inner(G, q).multiplicities != rows[q]:
            raise OracleError(f"{spec}: decompose_inner disagrees at q={q}")
        if tuple(col[q] for col in springer) != rows[q]:
            raise OracleError(f"{spec}: springer_series disagrees at q={q}")
    if G.kind.family == "cyclic":
        idx = cyclic_weight_indices(G)
        n, a = G.kind.n, G.kind.a
        for q in range(min(len(rows), MONOMIAL_MAX_Q + 1)):
            counts = monomial_weights(n, a, q).counts
            if any(counts[s] != rows[q][idx[s]] for s in range(n)):
                raise OracleError(f"{spec}: monomial_weights disagrees at q={q}")


def decompose_entry(spec: str, hi: int) -> dict:
    entry = report(["decompose", spec, f"0..{hi}"])
    rows = [tuple(int(x) for x in row[1:-1]) for row in entry["sections"][0]["rows"]]
    check_rows(spec, rows)
    return entry


def signature_entries(spec: str, horizons) -> dict:
    G = build_group(cli.parse_group_spec(spec))
    degrees = character_table(G).degrees
    rows = multiplicity_series(G, max(horizons))
    check_rows(spec, rows)
    out = {}
    for i, d in enumerate(degrees):
        for N in horizons:
            entry = report(["signature", spec, "-i", str(i), "--horizon", str(N)])
            fields = {row[0]: row[1] for row in entry["sections"][0]["rows"]}
            if Fraction(fields["limit"]) != Fraction(d, G.order):
                raise OracleError(f"{spec} chi{i}: limit is not d_i/|G|")
            a_sum = int(fields["partial_ratio"].split("/")[0])
            if a_sum != sum(row[i] for row in rows[: N + 1]):
                raise OracleError(f"{spec} chi{i} N={N}: partial sum disagrees with the rows")
            out[f"signature {spec} {i} {N}"] = entry
    return out


def ade_cold() -> dict:
    golden = {}
    for spec in decks.ADE_GROUPS:
        golden[f"table {spec}"] = report(["table", spec])
        golden[f"decompose {spec}"] = decompose_entry(spec, decks.ADE_MAX_Q)
        golden.update(signature_entries(spec, decks.ADE_HORIZONS))
    golden["elliptic sym"] = report(["elliptic", "sym", f"0..{decks.ELLIPTIC_MAX_Q}"])
    for what in ("dsigma", "bound"):
        for N in decks.ADE_HORIZONS:
            golden[f"elliptic {what} {N}"] = report(["elliptic", what, "--horizon", str(N)])
    return golden


def large_group() -> dict:
    golden = {}
    hi = int(decks.LARGE_DECOMPOSE.partition("..")[2])
    for spec, command in decks.LARGE_SLOTS:
        if command == "table":
            golden[f"table {spec}"] = report(["table", spec])
        elif command == "decompose":
            golden[f"decompose {spec}"] = decompose_entry(spec, hi)
        else:
            golden.update(signature_entries(spec, (decks.LARGE_HORIZON,)))
    return golden


def deep_session() -> dict:
    golden = {}
    for spec in decks.DEEP_GROUPS:
        golden.update(signature_entries(spec, [N for N, _ in decks.DEEP_RUNGS]))
    return golden


BUILDERS = {"ade-cold": ade_cold, "large-group": large_group, "deep-session": deep_session}


def main(argv: list[str]) -> int:
    for workload in argv or decks.WORKLOADS:
        golden = BUILDERS[workload]()
        path = HERE / "golden" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(golden)} entries -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
