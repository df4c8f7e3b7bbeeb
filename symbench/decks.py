"""Workload menus and the seeded query decks drawn from them.

A workload runs in passes.  Each pass is one deck: a seeded permutation of a
fixed composition of (group, command) slots, with the cost-neutral choices
(output format, irreducible index, order) and, on ``ade-cold``, the q range,
horizon and --selfcheck placement drawn from the seed.  A run executes whole
passes, so the mix of expensive and cheap queries does not depend on the seed
or on where the clock runs out; that is what keeps figures from ten different
seeds within a few percent of each other.

Nothing here imports symsig: the decks are plain argv lists, and the number of
irreducibles of each group is known in closed form from the group spec.
"""

from __future__ import annotations

import random

FORMATS = ("pretty", "csv", "json")

# --- ade-cold: everyday interactive use, every query cold -------------------
ADE_GROUPS = (
    [f"cyclic:{n},{n - 1}" for n in range(2, 13)]
    + ["cyclic:5,2", "cyclic:7,3", "cyclic:12,5"]
    + [f"BD:{n}" for n in range(2, 13)]
    + ["BT", "BO"]
)
ADE_HORIZONS = (200, 500, 1000, 2000)
ADE_MAX_Q = 256
ELLIPTIC_MAX_Q = 64
# One query in eight carries --selfcheck: the slowest eighth of the queries is
# then mostly selfcheck queries, so latency_p90_s falls inside that group
# rather than on its edge.
SELFCHECK_EVERY = 8

# --- large-group: exact Q(zeta_m) arithmetic at m = 36..60 dominates --------
# A fixed set of (group, command) slots costing 0.9..5 s each; the seed picks
# the order, the formats and the irreducibles.  With so few queries a run, a
# seeded choice of groups would move the pass time and the quantiles by more
# than the bounds.  There is an odd number of slots, and the middle one by
# cost (BD:22 signature) is 30% away from its neighbours, so latency_p50_s
# reads the same slot in every run.  BD:n with odd n is left out: its
# conductor is 4n (68..116), outside the m <= 60 this workload is about.
LARGE_SLOTS = (
    ("BD:16", "decompose"),
    ("BI", "signature"),
    ("cyclic:36,11", "decompose"),
    ("BD:22", "signature"),
    ("BD:30", "table"),
    ("cyclic:60,7", "table"),
    ("cyclic:48,5", "signature"),
)
LARGE_HORIZON = 2000
LARGE_DECOMPOSE = "0..32"

# --- deep-session: one warm process per group, horizons up to 10^5 ----------
# (horizon, queries) per rung; the first query on a rung extends the row
# cache, the rest read it.  The counts put the median in the middle of the
# cluster of cache hits at 10^4 (~30 ms: 7 queries a session, with 7 faster
# and 7 slower) and the 90th percentile inside the cluster of hits at 10^5
# and extensions to 10^4 (~0.3 s), away from the edges of either.
DEEP_GROUPS = ("BT", "BO", "BI", "BD:5", "cyclic:7,3", "cyclic:12,11")
DEEP_RUNGS = ((1000, 5), (3000, 4), (10000, 8), (100000, 4))

WORKLOADS = ("ade-cold", "large-group", "deep-session")


def num_irreducibles(spec: str) -> int:
    """Number of irreducible characters (= conjugacy classes) of a group spec."""
    if spec.startswith("cyclic:"):
        return int(spec[7:].partition(",")[0])
    if spec.startswith("BD:"):
        return int(spec[3:]) + 3
    return {"BT": 7, "BO": 8, "BI": 9}[spec]


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(FORMATS)]


def _ade_query(rng: random.Random, group: str | None, command: str) -> list[str]:
    if command == "table":
        return ["table", group]
    if command == "decompose":
        hi = rng.randint(0, ADE_MAX_Q)
        lo = rng.randint(0, hi)
        return ["decompose", group, str(hi) if lo == hi else f"{lo}..{hi}"]
    if command == "signature":
        return [
            "signature", group,
            "-i", str(rng.randrange(num_irreducibles(group))),
            "--horizon", str(rng.choice(ADE_HORIZONS)),
        ]
    if command == "sym":
        hi = rng.randint(0, ELLIPTIC_MAX_Q)
        lo = rng.randint(0, hi)
        return ["elliptic", "sym", f"{lo}..{hi}"]
    return ["elliptic", command, "--horizon", str(rng.choice(ADE_HORIZONS))]


def ade_cold_pass(rng: random.Random) -> list[list[str]]:
    slots = [(g, c) for g in ADE_GROUPS for c in ("table", "decompose", "signature")]
    slots += [(None, c) for c in ("sym", "dsigma", "bound")]
    rng.shuffle(slots)
    deck = [_ade_query(rng, g, c) + _fmt(rng) for g, c in slots]
    n_check = -(-len(deck) // SELFCHECK_EVERY)
    for k in rng.sample(range(len(deck)), n_check):
        deck[k].append("--selfcheck")
    return deck


def large_group_pass(rng: random.Random) -> list[list[str]]:
    deck = []
    for g, command in LARGE_SLOTS:
        if command == "table":
            argv = ["table", g]
        elif command == "decompose":
            argv = ["decompose", g, LARGE_DECOMPOSE]
        else:
            argv = [
                "signature", g,
                "-i", str(rng.randrange(num_irreducibles(g))),
                "--horizon", str(LARGE_HORIZON),
            ]
        deck.append(argv + _fmt(rng))
    rng.shuffle(deck)
    return deck


def deep_session(rng: random.Random, group: str) -> list[list[str]]:
    """One session: every irreducible at least once, climbing the ladder."""
    r = num_irreducibles(group)
    horizons = [N for N, count in DEEP_RUNGS for _ in range(count)]
    indices = rng.sample(range(r), r) + [rng.randrange(r) for _ in range(len(horizons) - r)]
    rng.shuffle(indices)
    return [
        ["signature", group, "-i", str(i), "--horizon", str(N)] + _fmt(rng)
        for i, N in zip(indices, horizons)
    ]


def deep_session_pass(rng: random.Random) -> list[list[list[str]]]:
    """A pass of deep-session is one session per group, in seeded order."""
    groups = list(DEEP_GROUPS)
    rng.shuffle(groups)
    return [deep_session(rng, g) for g in groups]


PASSES = {
    "ade-cold": ade_cold_pass,
    "large-group": large_group_pass,
    "deep-session": deep_session_pass,
}


def passes(workload: str, seed: int):
    """Endless stream of decks for one workload and seed (same seed, same decks).

    Every deck is a list of sessions; a session is a list of argv lists run in
    one process.  Cold workloads have one query per session.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = PASSES[workload]
    while True:
        deck = make(rng)
        yield deck if workload == "deep-session" else [[argv] for argv in deck]
