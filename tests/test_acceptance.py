"""Acceptance gate: every release criterion, one test and one report line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
[PASS]/[FAIL] lines as they happen; they are replayed in the summary either
way).  Criteria 3, 5, 7 and 8 run the cross-oracle checks of
``symsig.selfcheck`` that ``--selfcheck`` runs, on larger panels.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import symsig.cli as cli
from symsig import (
    SYZYGY_BUNDLE,
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    Cyclic,
    MonomialVector,
    build_group,
    character_table,
    dsigma_partial,
    get_context,
    inner_product,
    oscillation_gap,
    relation_holds,
    sigma_upper_bound,
    signature_partial,
    sym_syzygy_free_rank_bound,
)
from symsig.cyclotomic import ConsistencyError
from symsig.selfcheck import check_characters, check_cyclotomic, check_monomial, check_syzygies

SIGNATURE_PANEL = (
    tuple(Cyclic(n, n - 1) for n in range(2, 9))
    + (Cyclic(5, 2), Cyclic(7, 3))
    + tuple(BinaryDihedral(n) for n in range(2, 6))
    + (BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral)
)

# One representative per ADE family, plus a second cyclic group with a
# non-inverse weight so the GL(2) branch is exercised.
ORACLE_PANEL = (
    Cyclic(7, 3),
    Cyclic(8, 7),
    BinaryDihedral(4),
    BinaryTetrahedral,
    BinaryOctahedral,
    BinaryIcosahedral,
)

TABLE_PANEL = (
    Cyclic(12, 11),
    Cyclic(7, 3),
    BinaryDihedral(5),
    BinaryTetrahedral,
    BinaryOctahedral,
    BinaryIcosahedral,
)


def passes(check, *args) -> bool:
    """Run one shared selfcheck function; print its message if it fails."""
    try:
        check(*args)
    except ConsistencyError as exc:
        print(exc)
        return False
    return True


def test_criterion_01_trivial_summand_signature(acceptance_report):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for kind in SIGNATURE_PANEL:
        G = build_group(kind)
        s = signature_partial(G, 0, 2000)
        ok = ok and s.limit == Fraction(1, G.order)
        ok = ok and abs(s.partial_ratio - s.limit) <= s.bound <= 0.005
        worst = max(worst, s.bound)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    acceptance_report(
        "criterion 1: trivial-summand ratio at N=2000 within bound for all "
        f"16 groups, bound <= 0.005 (worst {float(worst):.5f}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_02_every_irreducible_within_bound(acceptance_report):
    ok = True
    for kind in SIGNATURE_PANEL:
        G = build_group(kind)
        for i in range(G.num_classes):
            s = signature_partial(G, i, 2000)
            ok = ok and abs(s.partial_ratio - s.limit) <= s.bound
    acceptance_report(
        "criterion 2: every irreducible of every panel group within its "
        "error bound at N=2000",
        ok,
    )


def test_criterion_03_three_oracles_agree(acceptance_report):
    acceptance_report(
        "criterion 3: recurrence, eigenvalue, and power-series oracles agree "
        "exactly on all classes, all five families, q <= 64",
        passes(check_characters, ORACLE_PANEL, 64),
    )


def test_criterion_04_character_table_integrity(acceptance_report):
    ok = True
    for kind in TABLE_PANEL:
        G = build_group(kind)
        T = character_table(G)
        k = G.num_classes
        ok = ok and len(T) == k
        ok = ok and sum(d * d for d in T.degrees) == G.order
        for i, chi in enumerate(T):
            for j, psi in enumerate(T):
                ok = ok and inner_product(chi, psi) == (1 if i == j else 0)
        for c in range(k):
            for d in range(k):
                acc = G.ctx.zero
                for chi in T:
                    acc = acc + chi.values[c].conjugate() * chi.values[d]
                if c == d:
                    expect = Fraction(G.order, G.classes[c].size)
                    ok = ok and acc.to_rational() == expect
                else:
                    ok = ok and acc.is_zero
    acceptance_report(
        "criterion 4: table sizes, degree sums (24/48/120 included), and "
        "exact row/column orthogonality for all five families",
        ok,
    )


def test_criterion_05_cyclic_weights_equal_multiplicities(acceptance_report):
    pairs = [(n, a) for n in range(2, 13) for a in range(1, n) if gcd(a, n) == 1]
    acceptance_report(
        "criterion 5: representation multiplicities equal monomial weight "
        "counts exactly, n <= 12, every unit weight, q <= 256",
        passes(check_monomial, pairs, range(257)),
    )


def test_criterion_06_oscillation_gap(acceptance_report):
    ok = True
    gaps = []
    for n in (2, 4, 6):
        g = oscillation_gap(build_group(Cyclic(n, n - 1)), 0, 1000)
        gaps.append(float(g))
        ok = ok and g >= 2.0 / n - 0.02
    acceptance_report(
        "criterion 6: naive-ratio oscillation gap >= 2/n - 0.02 at N=1000 "
        f"for n=2,4,6 (gaps {', '.join(f'{g:.3f}' for g in gaps)})",
        ok,
    )


def test_criterion_07_syzygy_equivariance(acceptance_report):
    ok = passes(check_syzygies, range(2, 13))
    for n in (3, 7, 12):
        ctx = get_context(n)
        bad = MonomialVector.from_polys(
            n, ({}, {(1, 0): -ctx.one}, {(0, n - 2): ctx.one})
        )
        ok = ok and not relation_holds(bad)
    acceptance_report(
        "criterion 7: syzygy relation and equivariance hold for 2 <= n <= 12 "
        "and the perturbed control vector fails",
        ok,
    )


def test_criterion_08_cyclotomic_foundations(acceptance_report):
    acceptance_report(
        "criterion 8: cyclotomic polynomial products for m <= 120 and field "
        "axioms on 1000 random elements per conductor m in {12, 24, 60}",
        passes(check_cyclotomic, range(1, 121), (12, 24, 60), 1000),
    )


def test_criterion_09_formal_bundle_calculus(acceptance_report):
    ok = SYZYGY_BUNDLE.rank == 2 and SYZYGY_BUNDLE.degree == -9
    for N in range(1, 1001):
        ok = ok and dsigma_partial(N) == Fraction(2, (N + 1) * (N + 2))
    ok = ok and all(
        int(sym_syzygy_free_rank_bound(q)) == 0 for q in range(1, 1002, 2)
    )
    for N in range(2, 2001, 2):
        b = sigma_upper_bound(N)
        ok = ok and Fraction(1, 2) <= b <= Fraction(1, 2) + Fraction(2, N + 2)
    acceptance_report(
        "criterion 9: dsigma partial sums exact for N <= 1000, odd free-rank "
        "bound 0 through q=1001, even bounds in [1/2, 1/2 + 2/(N+2)], "
        "syzygy bundle (rank 2, degree -9)",
        ok,
    )


def test_criterion_10_cli_determinism(acceptance_report, tmp_path):
    matrix = [
        ["table", "BI"],
        ["decompose", "BD:3", "0..16"],
        ["signature", "cyclic:5,2", "--horizon", "100"],
        ["elliptic", "sym", "0..8"],
        ["elliptic", "dsigma", "--horizon", "32"],
        ["elliptic", "bound", "--horizon", "32"],
    ]
    ok = True
    for argv in matrix:
        for fmt in ("pretty", "csv", "json"):
            blobs = []
            for run_id in (0, 1):
                path = tmp_path / f"out_{run_id}"
                code = cli.main(argv + ["--format", fmt, "--output", str(path)])
                ok = ok and code == 0
                blobs.append(path.read_bytes())
            ok = ok and blobs[0] == blobs[1]

    cmd = [
        sys.executable,
        "-m",
        "symsig.cli",
        "signature",
        "BT",
        "--horizon",
        "200",
        "--format",
        "csv",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    acceptance_report(
        "criterion 10: repeated CLI runs byte-identical across all "
        "subcommands and formats (in-process and subprocess)",
        ok,
    )
