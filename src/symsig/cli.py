"""Command-line interface: reproducible, machine-readable reports.

Four subcommands surface the library — `table` (conjugacy classes and the
character table), `decompose` (multiplicities of Sym^q), `signature`
(partial ratios with certified error bounds), and `elliptic` (the formal
bundle calculus).  Output is deterministic: fixed orderings, fixed
serialization, no timestamps, so identical invocations are byte-identical.

Output is streamed: writers send rows one at a time, and rows whose number
grows with the input (`decompose`, `elliptic sym`) are generated as they are
written.  Every check runs while the report is built, before the first byte.

Exact rationals render as "numerator/denominator" with a separate decimal
field (12 significant digits); cyclotomic values render as polynomials in z
where z = zeta_m and m is declared in the report header.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain

from .cyclotomic import ConsistencyError, CycloElement
from .klein import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    Cyclic,
    GroupKind,
    KleinGroup,
    build_group,
    character_table,
)
from .sympow import decompose
from .signature import oscillation_gap, signature_partial
from .elliptic import (
    SYZYGY_BUNDLE,
    degree,
    dsigma_partial,
    free_rank,
    rank,
    sigma_upper_bound,
    slope,
    sym_cotangent,
)
from .selfcheck import run_selfcheck


DEFAULT_HORIZON = 1000


class UsageError(Exception):
    """Bad command-line input (exit status 2)."""


# ---------------------------------------------------------------------------
# report model: every command produces one Report; writers never reorder


@dataclass
class Section:
    name: str
    columns: list[str]
    rows: Iterable[list[str]]  # consumed once, by one writer
    reach: Iterable[list[str]]  # rows reaching every pretty width; write_pretty reads it


@dataclass
class Report:
    title: str
    meta: list[tuple[str, str]] = field(default_factory=list)
    sections: list[Section] = field(default_factory=list)


def _widths(columns: list[str], rows: Iterable[list[str]]) -> list[int]:
    """Pretty column widths over the header and rows that reach every width."""
    widths = [len(c) for c in columns]
    for row in rows:
        widths = list(map(max, widths, map(len, row)))
    return widths


def _dec(x) -> str:
    return f"{float(x):.12g}"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cyclo_dec(x: CycloElement) -> str:
    if x == x.conjugate():
        return _dec(x.embed_complex().real)
    z = x.embed_complex()
    return f"{z.real:.12g}{z.imag:+.12g}i"


# ---------------------------------------------------------------------------
# argument parsing


def parse_group_spec(text: str) -> GroupKind:
    s = text.strip().lower()
    fixed = {"bt": BinaryTetrahedral, "bo": BinaryOctahedral, "bi": BinaryIcosahedral}
    try:
        if s in fixed:
            return fixed[s]
        if s.startswith("bd:"):
            return BinaryDihedral(int(s[3:]))
        if s.startswith("cyclic:"):
            n_str, _, a_str = s[7:].partition(",")
            if not a_str:
                raise ValueError("missing ,a")
            return Cyclic(int(n_str), int(a_str))
    except ValueError as exc:
        raise UsageError(f"bad group spec {text!r}: {exc}") from exc
    raise UsageError(
        f"bad group spec {text!r}; expected cyclic:<n>,<a> | BD:<n> | BT | BO | BI"
    )


def parse_q_range(text: str) -> tuple[int, int]:
    s = text.strip()
    try:
        if ".." in s:
            lo_str, _, hi_str = s.partition("..")
            lo, hi = int(lo_str), int(hi_str)
        else:
            lo = hi = int(s)
    except ValueError as exc:
        raise UsageError(f"bad q range {text!r}; expected Q or LO..HI") from exc
    if lo < 0 or hi < lo:
        raise UsageError(f"bad q range {text!r}; need 0 <= LO <= HI")
    return lo, hi


def _build(spec: str) -> KleinGroup:
    kind = parse_group_spec(spec)
    try:
        return build_group(kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands


def cmd_table(args) -> Report:
    G = _build(args.group)
    table = character_table(G)
    rep = Report(title=f"character table of {G.kind}")
    rep.meta = [
        ("group", str(G.kind)),
        ("order", str(G.order)),
        ("conductor", str(G.m)),
        ("classes", str(G.num_classes)),
        ("values", "polynomials in z, z = primitive root of unity of order m"),
    ]
    cells = {}  # (num, den) -> [str, decimal] of each distinct value rendered

    def cell(v: CycloElement) -> list[str]:
        key = (v.num, v.den)
        got = cells.get(key)
        if got is None:
            got = cells[key] = [str(v), _cyclo_dec(v)]
        return got

    cols = ["class", "size", "element_order", "trace", "trace_decimal"]
    rows = [
        [f"c{c}", str(cls.size), str(G.class_order(c))] + cell(G.class_trace(c))
        for c, cls in enumerate(G.classes)
    ]
    rep.sections.append(Section("classes", cols, rows, reach=rows))

    cols = ["character", "degree"]
    cols += [f"c{c}{kind}" for c in range(G.num_classes) for kind in ("", "_decimal")]
    rows = [[f"chi{i}", str(chi.degree)] + [x for v in chi.values for x in cell(v)]
            for i, chi in enumerate(table)]
    rep.sections.append(Section("characters", cols, rows, reach=rows))
    return rep


def cmd_decompose(args) -> Report:
    G = _build(args.group)
    lo, hi = parse_q_range(args.q)
    table = character_table(G)
    degrees = table.degrees
    rep = Report(title=f"Sym^q multiplicities for {G.kind}")
    rep.meta = [
        ("group", str(G.kind)),
        ("order", str(G.order)),
        ("irreducible_degrees", " ".join(str(d) for d in degrees)),
    ]
    cols = ["q"] + [f"alpha{i}" for i in range(len(table))] + ["dimension"]

    def rows(first: int, last: int):
        for q in range(first, last + 1):
            row = decompose(G, q).multiplicities
            dim = sum(a * d for a, d in zip(row, degrees))
            yield [str(q)] + [str(a) for a in row] + [str(dim)]

    # The last min(m, HI - LO + 1) rows, held in O(m r), reach every width:
    # _period_rows checks each step alpha_(q+m) - alpha_q >= 0, so every alpha
    # column is non-decreasing along each residue class mod m, and q and q + 1
    # grow.  They also build the period table before the first byte is written.
    mid = max(lo, hi - G.m + 1)
    tail = list(rows(mid, hi))
    rep.sections.append(Section("multiplicities", cols, chain(rows(lo, mid - 1), tail), tail))
    return rep


def cmd_signature(args) -> Report:
    G = _build(args.group)
    N = args.horizon
    if N < 1:
        raise UsageError("--horizon must be at least 1")
    i = args.index
    try:
        series = signature_partial(G, i, N)
        gap = oscillation_gap(G, i, N) if N >= 2 else None
    except IndexError as exc:
        raise UsageError(str(exc)) from exc
    deg = character_table(G).degrees[i]
    rep = Report(title=f"symmetric signature partial sums for {G.kind}")
    rep.meta = [
        ("group", str(G.kind)),
        ("order", str(G.order)),
        ("irreducible", f"chi{i}"),
        ("degree", str(deg)),
        ("horizon", str(N)),
    ]
    if i == 0:
        rep.meta.append(
            ("note", "trivial summand: syzygy and differential signatures coincide")
        )
    b_sum = (N + 1) * (N + 2) // 2
    true_err = abs(series.partial_ratio - series.limit)
    rows = [
        ["partial_ratio", f"{series.a_sum}/{b_sum}", _dec(series.partial_ratio)],
        ["limit", _frac(series.limit), _dec(series.limit)],
        ["true_error", _frac(true_err), _dec(true_err)],
        ["error_bound", _frac(series.bound), _dec(series.bound)],
    ]
    if gap is not None:
        rows.append(["oscillation_gap", _frac(gap), _dec(gap)])
    cols = ["quantity", "exact", "decimal"]
    rep.sections.append(Section("signature", cols, rows, reach=rows))
    return rep


def _horizon_ladder(N: int) -> list[int]:
    """1, 2, 4, ... up to N, then N itself (N >= 1)."""
    out = [1 << k for k in range(N.bit_length())]
    return out if out[-1] == N else out + [N]


def _sym_rows(lo: int, hi: int):
    for q in range(lo, hi + 1):
        e = sym_cotangent(q)
        a = e.atoms[0]
        desc = f"O({a.data})" if a.variant == "line" else f"F_{a.rank} (x) O({a.data})"
        fr = free_rank(e)
        yield [str(q), desc, str(rank(e)), str(degree(e)), _frac(slope(e)), _dec(slope(e)),
               str(fr.value), "exact" if fr.exact else "upper_bound"]


def cmd_elliptic(args) -> Report:
    which = args.what
    if which == "sym":
        if args.horizon is not None:
            raise UsageError("elliptic sym takes no --horizon; give its range as Q or LO..HI")
        lo, hi = parse_q_range(args.q) if args.q is not None else (0, 8)
        rep = Report(title="symmetric powers of the restricted cotangent bundle")
        rep.meta = [("curve", "plane cubic"), ("identity", "Sym^q = F_(q+1) (x) O(q)")]
        cols = ["q", "bundle", "rank", "degree", "slope", "slope_decimal", "free_rank",
                "free_rank_kind"]
        # Pretty widths take a first pass over the rows: they are not monotone
        # in q, since %.12g turns slope_decimal into exponent form at large q.
        rep.sections.append(Section("bundles", cols, _sym_rows(lo, hi), _sym_rows(lo, hi)))
        return rep

    if args.q is not None:
        raise UsageError(f"elliptic {which} takes no q; set its range with --horizon")
    N = DEFAULT_HORIZON if args.horizon is None else args.horizon
    if N < 1:
        raise UsageError("--horizon must be at least 1")
    if which == "dsigma":
        rep = Report(title="differential symmetric signature partial sums (elliptic cone)")
        rep.meta = [("limit", "0"), ("closed_form", "2/((N+1)(N+2))")]
        name, value = "partial_sums", dsigma_partial
    else:
        rep = Report(title="upper bound for the syzygy symmetric signature (elliptic cone)")
        rep.meta = [
            ("syzygy_bundle_rank", str(rank(SYZYGY_BUNDLE))),
            ("syzygy_bundle_degree", str(degree(SYZYGY_BUNDLE))),
            ("syzygy_bundle_slope", _frac(slope(SYZYGY_BUNDLE))),
            ("limit_superior_bound", "1/2"),
            ("exact_value", "unknown"),
        ]
        name, value = "bounds", sigma_upper_bound
    ladder = _horizon_ladder(N)
    rows = [[str(h), _frac(v), _dec(v)] for h, v in zip(ladder, map(value, ladder))]
    cols = ["N", "exact", "decimal"]
    rep.sections.append(Section(name, cols, rows, reach=rows))
    return rep


# ---------------------------------------------------------------------------
# writers: each sends a report to `out` one row at a time


def write_pretty(rep: Report, out) -> None:
    section_widths = [_widths(sec.columns, sec.reach) for sec in rep.sections]
    out.write(rep.title + "\n")
    for k, v in rep.meta:
        out.write(f"{k}: {v}\n")
    for sec, widths in zip(rep.sections, section_widths):
        header = " | ".join(c.ljust(w) for c, w in zip(sec.columns, widths))
        out.write(f"\n[{sec.name}]\n{header.rstrip()}\n")
        out.write("-+-".join("-" * w for w in widths) + "\n")
        for row in sec.rows:
            out.write(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def write_csv(rep: Report, out) -> None:
    w = csv.writer(out, lineterminator="\r\n")
    w.writerow(["title", rep.title])
    for k, v in rep.meta:
        w.writerow(["meta", k, v])
    for sec in rep.sections:
        w.writerow(["section", sec.name])
        w.writerow(sec.columns)
        w.writerows(sec.rows)


_jstr = json.encoder.encode_basestring


def _json_row(columns: list[str], row: list[str]) -> str:
    """dict(zip(columns, row)) as json.dumps(..., indent=2) writes it at depth 4,
    with the escaper json.dumps uses under ensure_ascii=False."""
    body = ",\n          ".join(f"{_jstr(k)}: {_jstr(v)}" for k, v in zip(columns, row))
    return "{\n          " + body + "\n        }" if body else "{}"


def write_json(rep: Report, out) -> None:
    """Byte for byte json.dumps(doc, indent=2, ensure_ascii=False) + "\\n".

    The document is dumped with the placeholder rows [0], and each section's
    rows are written one at a time in its place.  The placeholder is found by
    its raw newlines, which no JSON string holds."""
    doc = {"title": rep.title, "meta": dict(rep.meta), "sections": [
        {"name": sec.name, "columns": sec.columns, "rows": [0]} for sec in rep.sections]}
    head, *tails = json.dumps(doc, indent=2, ensure_ascii=False).split("[\n        0\n      ]")
    out.write(head)
    for sec, tail in zip(rep.sections, tails):
        sep = "[\n        "
        for row in sec.rows:
            out.write(sep + _json_row(sec.columns, row))
            sep = ",\n        "
        out.write(("[]" if sep[0] == "[" else "\n      ]") + tail)
    out.write("\n")


WRITERS = {"pretty": write_pretty, "csv": write_csv, "json": write_json}


def _text(write, rep: Report) -> str:
    buf = io.StringIO()
    write(rep, buf)
    return buf.getvalue()


# Each writer into a string, for callers that need the whole text in memory.
RENDERERS = {fmt: partial(_text, write) for fmt, write in WRITERS.items()}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json", "pretty"), default="pretty",
        help="output format (default: pretty)",
    )
    common.add_argument("--output", help="write the report to this file instead of stdout")
    common.add_argument(
        "--selfcheck", action="store_true",
        help="run the cross-oracle suites before the command (reported on stderr)",
    )

    p = argparse.ArgumentParser(
        prog="symsig",
        description="Exact symmetric signatures of Kleinian singularities "
        "and the formal elliptic-cone calculus.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("table", parents=[common], help="conjugacy classes and character table")
    pt.add_argument("group", help="cyclic:<n>,<a> | BD:<n> | BT | BO | BI")
    pt.set_defaults(fn=cmd_table)

    pd = sub.add_parser("decompose", parents=[common], help="multiplicities of Sym^q")
    pd.add_argument("group", help="cyclic:<n>,<a> | BD:<n> | BT | BO | BI")
    pd.add_argument("q", help="exponent q, or a range LO..HI")
    pd.set_defaults(fn=cmd_decompose)

    ps = sub.add_parser("signature", parents=[common], help="signature partial sums and bounds")
    ps.add_argument("group", help="cyclic:<n>,<a> | BD:<n> | BT | BO | BI")
    ps.add_argument("-i", "--index", type=int, default=0, help="irreducible index (default 0)")
    ps.add_argument(
        "--horizon", type=int, default=DEFAULT_HORIZON, metavar="N",
        help=f"summation horizon (default: {DEFAULT_HORIZON})",
    )
    ps.set_defaults(fn=cmd_signature)

    pe = sub.add_parser("elliptic", parents=[common], help="formal elliptic-cone calculus")
    pe.add_argument("what", choices=("dsigma", "bound", "sym"))
    pe.add_argument("q", nargs="?", help="q or LO..HI (sym subcommand only)")
    # No default here, so that an explicit --horizon on `sym` can be rejected.
    pe.add_argument(
        "--horizon", type=int, metavar="N",
        help=f"summation horizon for dsigma and bound (default: {DEFAULT_HORIZON})",
    )
    pe.set_defaults(fn=cmd_elliptic)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.selfcheck:
            for line in run_selfcheck():
                print(line, file=sys.stderr)
        report = args.fn(args)
        write = WRITERS[args.format]
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8", newline="") as fh:
                    write(report, fh)
            except OSError as exc:
                raise UsageError(f"cannot write the report: {exc}") from exc
        else:
            try:
                write(report, sys.stdout)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader has gone (`symsig ... | head`), which ends the run
                # normally; on devnull, the interpreter's final flush cannot raise.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
