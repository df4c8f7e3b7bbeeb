"""What runs inside a query child: the plain query, the traced pipeline, the probes.

The traced pipeline calls the layers' public functions in pipeline order and
records one span around each call, then builds the report and renders it the
way ``symsig.cli.main`` does, on the caches the earlier calls warmed.  Spans
stay in memory (a list of dicts) and travel back to the runner with the
child's result.

Spans under a ``query`` root account for the query; spans under a ``probe``
root time a layer on its own (the signature sums, ``validate()``, the McKay
matrix, the Q(zeta_m) operations, the selfcheck suites) and are kept out of
that account.
"""

from __future__ import annotations

import copy
import random
import sys
import time
import traceback
from contextlib import contextmanager

import symsig.cli as cli
from symsig.cyclotomic import ConsistencyError, get_context
from symsig.klein import build_group, character_table
from symsig.selfcheck import run_selfcheck
from symsig.signature import error_bound, oscillation_gap, signature_partial
from symsig.sympow import multiplicity_series

CYCLO_CONDUCTORS = (12, 24, 60)
CYCLO_OPS = 400      # products and conjugates per conductor
CYCLO_INVERSES = 8   # inverses per conductor (one costs ~10 ms at m = 60)


class Tracer:
    """In-memory spans: name, start, end, parent span and query id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "qid": qid,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def run_plain(argv: list[str]) -> tuple[int, float]:
    """Run one query through ``cli.main``; return exit code and latency."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except BaseException:  # a crash is a failed query, reported on stderr
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    sys.stderr.flush()
    return rc, time.perf_counter() - t0


def _horizon(args) -> int | None:
    if args.command == "decompose":
        return cli.parse_q_range(args.q)[1]
    if args.command == "signature":
        return args.horizon
    return None


def fresh_copy(G):
    """A copy of G without the caches attached to it after construction.

    Attributes that a newly built group also has are kept, so the character
    table stays warm; any other attribute is a lazily attached cache (today
    the Sym^q row cache) and is dropped.
    """
    build = getattr(build_group, "__wrapped__", build_group)  # bypass the lru_cache
    template = vars(build(G.kind))
    G2 = copy.copy(G)
    for name in list(vars(G2)):
        if name not in template:
            delattr(G2, name)
    return G2


def run_traced(argv: list[str], qid: str, tracer: Tracer, rows_cached: int) -> tuple[int, int]:
    """Run one query layer by layer under spans.

    The ``query`` span holds, in pipeline order: selfcheck, group
    enumeration, character table, Sym^q series, the ``cmd_*`` report builder
    on the caches these warmed, and rendering.  Its duration is comparable
    with the untraced latency of the same query.  The ``probe`` span then
    times calls the query made only inside the report builder
    (``signature_partial``, ``oscillation_gap``, ``error_bound``) and re-runs
    ``validate()`` and, when the query computed rows, the McKay matrix
    (``multiplicity_series(G, 1)`` on a fresh copy of G); probes stay out of
    the query's account.

    ``rows_cached`` is the number of Sym^q multiplicity rows this process has
    computed so far for the query's group.  Returns the exit code and the new
    row count.
    """
    span = tracer.span
    rc = 0
    G = None
    N = None
    with span("query", qid):
        args = cli.build_parser().parse_args(argv)
        try:
            if args.selfcheck:
                with span("selfcheck.run", qid):
                    lines = run_selfcheck()
                for line in lines:
                    print(line, file=sys.stderr)
            if args.command != "elliptic":
                kind = cli.parse_group_spec(args.group)
                with span("klein.build_group", qid) as c:
                    G = build_group(kind)
                    c["elements"] = G.order
                with span("klein.table", qid) as c:
                    table = character_table(G)
                    c["classes"] = len(table)
                N = _horizon(args)
            if N is not None:
                computed = max(0, N + 1 - rows_cached)
                with span("sympow.series", qid) as c:
                    multiplicity_series(G, N)
                    c["rows_computed"] = computed
                    c["rows_reused"] = min(N + 1, rows_cached)
                rows_cached = max(rows_cached, N + 1)
            with span("cli.report", qid):
                report = args.fn(args)
            with span("cli.render", qid) as c:
                text = cli.RENDERERS[args.format](report)
                sys.stdout.write(text)
                sys.stdout.flush()
                c["output_bytes"] = len(text.encode("utf-8"))
        except cli.UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
        except (ConsistencyError, AssertionError) as exc:
            print(f"internal consistency failure: {exc}", file=sys.stderr)
            rc = 1
    if rc == 0 and G is not None:
        with span("probe", qid):
            with span("klein.validate", qid):
                table.validate()
            if N is not None and computed:
                G2 = fresh_copy(G)
                with span("sympow.mckay", qid):
                    multiplicity_series(G2, 1)
            if args.command == "signature":
                with span("signature.partial", qid):
                    signature_partial(G, args.index, N)
                if N >= 2:
                    with span("signature.gap", qid):
                        oscillation_gap(G, args.index, N)
                with span("signature.bound", qid):
                    error_bound(G, args.index, N)
    sys.stderr.flush()
    return rc, rows_cached


def _random_element(ctx, rng: random.Random):
    while True:
        x = ctx.from_coeffs([rng.randint(-9, 9) for _ in range(ctx.degree)])
        if not x.is_zero:
            return x


def cyclotomic_probe(seed: int, tracer: Tracer) -> None:
    """Time *, .conjugate() and .inv() on seeded elements; verify every result.

    Products are checked against the complex embedding, conjugates by
    conjugating twice, inverses by ``x * x.inv() == 1``.  Any failure raises.
    """
    rng = random.Random(f"cyclotomic:{seed}")
    qid = "probe-cyclotomic"
    with tracer.span("probe", qid):
        for m in CYCLO_CONDUCTORS:
            with tracer.span("cyclotomic.context", qid):
                ctx = get_context(m)
            xs = [_random_element(ctx, rng) for _ in range(CYCLO_OPS)]
            ys = [_random_element(ctx, rng) for _ in range(CYCLO_OPS)]
            with tracer.span("cyclotomic.mul", qid) as c:
                prods = [x * y for x, y in zip(xs, ys)]
                c["ops"] = len(prods)
            with tracer.span("cyclotomic.conjugate", qid) as c:
                conjs = [x.conjugate() for x in xs]
                c["ops"] = len(conjs)
            with tracer.span("cyclotomic.inv", qid) as c:
                invs = [x.inv() for x in xs[:CYCLO_INVERSES]]
                c["ops"] = len(invs)
            for x, y, p in zip(xs, ys, prods):
                want = x.embed_complex() * y.embed_complex()
                if abs(p.embed_complex() - want) > 1e-9 * max(1.0, abs(want)):
                    raise ConsistencyError(f"product disagrees with its embedding at m={m}")
            for x, xc in zip(xs, conjs):
                if xc.conjugate() != x:
                    raise ConsistencyError(f"conjugating twice is not the identity at m={m}")
            for x, xi in zip(xs, invs):
                if x * xi != ctx.one:
                    raise ConsistencyError(f"x * x.inv() != 1 at m={m}")


def selfcheck_probe(tracer: Tracer) -> None:
    """Time the selfcheck suites once in a cold process."""
    with tracer.span("probe", "probe-selfcheck"):
        with tracer.span("selfcheck.run", "probe-selfcheck"):
            run_selfcheck()
