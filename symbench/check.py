"""Output checking: parse any of the three CLI formats, compare with the golden corpus.

A report parses into one canonical form, ``{"title", "meta", "sections"}``,
whatever its format.  The exact fields are then compared with the golden
entry byte for byte.  Decimal shadows are not stored: the shadow of a
rational must be its value printed to 12 significant digits, and the shadow
of a cyclotomic value must agree with the value at zeta_m to 1e-9.  The
``error_bound`` row is checked by the invariant ``true_error <= error_bound``,
so a tighter or exact bound is not a failure.

Nothing here imports symsig.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import re
from fractions import Fraction

WILDCARD = "*"
_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?z(?:\^(\d+))?$")


class Mismatch(Exception):
    """An output differs from what the golden corpus and invariants allow."""


# ---------------------------------------------------------------------------
# parsing


def parse_report(text: str, fmt: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        return {
            "title": doc["title"],
            "meta": [[k, v] for k, v in doc["meta"].items()],
            "sections": [
                {
                    "name": s["name"],
                    "columns": s["columns"],
                    "rows": [[row[c] for c in s["columns"]] for row in s["rows"]],
                }
                for s in doc["sections"]
            ],
        }
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows or rows[0][0] != "title":
            raise Mismatch("csv output does not start with a title row")
        rep = {"title": rows[0][1], "meta": [], "sections": []}
        k = 1
        while k < len(rows):
            row = rows[k]
            if row[0] == "meta":
                rep["meta"].append([row[1], row[2]])
            elif row[0] == "section":
                rep["sections"].append({"name": row[1], "columns": rows[k + 1], "rows": []})
                k += 1
            else:
                rep["sections"][-1]["rows"].append(row)
            k += 1
        return rep
    if fmt == "pretty":
        lines = text.split("\n")
        if lines[-1] != "":
            raise Mismatch("pretty output does not end with a newline")
        lines.pop()
        rep = {"title": lines[0], "meta": [], "sections": []}
        k = 1
        while k < len(lines) and lines[k]:
            key, sep, value = lines[k].partition(": ")
            if not sep:
                raise Mismatch(f"bad meta line {lines[k]!r}")
            rep["meta"].append([key, value])
            k += 1
        while k < len(lines):
            if lines[k] != "" or not lines[k + 1].startswith("["):
                raise Mismatch(f"bad section start at line {k + 1}")
            cols = [c.strip() for c in lines[k + 2].split(" | ")]
            sec = {"name": lines[k + 1][1:-1], "columns": cols, "rows": []}
            k += 4  # blank, [name], header, dashes
            while k < len(lines) and lines[k]:
                cells = [c.strip() for c in lines[k].split(" | ")]
                sec["rows"].append(cells + [""] * (len(cols) - len(cells)))
                k += 1
            rep["sections"].append(sec)
        return rep
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# exact values behind decimal shadows


def cyclo_value(text: str, m: int) -> complex:
    """Evaluate a rendered Q(zeta_m) element such as '-1 + 3/2*z^5' at zeta_m."""
    total = 0j
    tokens = text.split(" ")
    terms = [tokens[0]] + [s + t for s, t in zip(tokens[1::2], tokens[2::2])]
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if "z" in body:
            match = _TERM.match(body)
            if match is None:
                raise Mismatch(f"cannot read cyclotomic value {text!r}")
            coeff, power = match.groups()
            c = Fraction(coeff) if coeff else Fraction(1)
            j = int(power) if power else 1
        else:
            c, j = Fraction(body), 0
        total += sign * float(c) * cmath.exp(2j * cmath.pi * j / m)
    return total


def parse_decimal(text: str) -> complex:
    if text.endswith("i"):
        split = max(text.rfind("+", 1), text.rfind("-", 1))
        while text[split - 1] in "eE":  # exponent sign, not the imaginary part
            split = max(text.rfind("+", 1, split), text.rfind("-", 1, split))
        return complex(float(text[:split]), float(text[split:-1]))
    return complex(float(text))


def _close(shadow: str, exact: complex) -> bool:
    return abs(parse_decimal(shadow) - exact) <= 1e-9 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# canonical exact form


def exact_form(rep: dict) -> dict:
    """Drop decimal shadows after checking them; blank the error bound.

    Raises Mismatch if a shadow disagrees with its exact value or if the
    reported true error exceeds the reported error bound.
    """
    meta = dict(rep["meta"])
    m = int(meta["conductor"]) if "conductor" in meta else None
    sections = []
    for sec in rep["sections"]:
        cols = sec["columns"]
        keep = [j for j, c in enumerate(cols) if not c.endswith("decimal")]
        partner = {}
        for j, c in enumerate(cols):
            if c == "decimal":
                partner[j] = cols.index("exact")
            elif c.endswith("_decimal"):
                partner[j] = cols.index(c[: -len("_decimal")])
        rows = []
        true_error = None
        for row in sec["rows"]:
            if len(row) != len(cols):
                raise Mismatch(f"row {row!r} has {len(row)} cells for {len(cols)} columns")
            for j, p in partner.items():
                exact = row[p]
                if exact == "-":
                    continue
                if m is None:  # a rational: its 12-digit shadow is determined
                    ok = row[j] == f"{float(Fraction(exact)):.12g}"
                else:
                    ok = _close(row[j], cyclo_value(exact, m))
                if not ok:
                    raise Mismatch(f"decimal {row[j]!r} disagrees with exact {exact!r}")
            out = [row[j] for j in keep]
            if cols[:1] == ["quantity"]:
                if row[0] == "true_error":
                    true_error = Fraction(row[1])
                elif row[0] == "error_bound":
                    bound = (
                        Fraction(row[2]) if row[1] == "-" else Fraction(row[1])
                    )
                    if true_error is None or not true_error <= bound:
                        raise Mismatch(f"true_error {true_error} exceeds error_bound {bound}")
                    out = [row[0], WILDCARD]
            rows.append(out)
        sections.append({"name": sec["name"], "columns": [cols[j] for j in keep], "rows": rows})
    return {"title": rep["title"], "meta": rep["meta"], "sections": sections}


# ---------------------------------------------------------------------------
# golden lookup


def _q_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi or lo)


def golden_key(argv: list[str]) -> tuple[str, tuple[int, int] | None]:
    """Golden entry for a query, plus the q range to cut from it, if any."""
    cmd = argv[0]
    if cmd == "table":
        return f"table {argv[1]}", None
    if cmd == "decompose":
        return f"decompose {argv[1]}", _q_range(argv[2])
    if cmd == "signature":
        i = argv[argv.index("-i") + 1]
        N = argv[argv.index("--horizon") + 1]
        return f"signature {argv[1]} {i} {N}", None
    if argv[1] == "sym":
        return "elliptic sym", _q_range(argv[2])
    return f"elliptic {argv[1]} {argv[argv.index('--horizon') + 1]}", None


def expected(golden: dict, argv: list[str]) -> dict:
    key, q_range = golden_key(argv)
    if key not in golden:
        raise Mismatch(f"no golden entry {key!r}")
    entry = golden[key]
    if q_range is None:
        return entry
    lo, hi = q_range
    sec = entry["sections"][0]
    if hi >= len(sec["rows"]):
        raise Mismatch(f"golden entry {key!r} stops below q = {hi}")
    cut = dict(sec, rows=sec["rows"][lo : hi + 1])
    return dict(entry, sections=[cut])


def query_format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "pretty"


def check_output(golden: dict, argv: list[str], rc: int, out: str, err: str) -> None:
    """Raise Mismatch unless the query succeeded with exactly the golden fields."""
    if rc != 0:
        raise Mismatch(f"exit code {rc}: {err.strip()[-200:]}")
    if "Traceback" in err:
        raise Mismatch("traceback on stderr")
    lines = err.splitlines()
    suites = [ln for ln in lines if ln.startswith("selfcheck: ") and ln.endswith(": ok")]
    if "--selfcheck" not in argv:
        suites = []
    elif not suites:
        raise Mismatch("--selfcheck printed no suite results")
    stray = [ln for ln in lines if ln not in suites]
    if stray:
        raise Mismatch(f"unexpected stderr {stray[0]!r}")
    got = exact_form(parse_report(out, query_format(argv)))
    want = expected(golden, argv)
    if got != want:
        raise Mismatch(f"exact fields differ from golden entry {golden_key(argv)[0]!r}")
