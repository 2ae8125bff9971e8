"""Seeded inputs for the benchmark's workloads, and the verdicts they must give.

A request is a dict with the CLI arguments (``argv``), the text fed to stdin,
step-function record files the arguments name (``files``), the exit code the
CLI contract prescribes (``exit``: 0 pass, 1 verification failure, 2 usage
error) and, for scans, the summary line the output must contain
(``verdict``). The program only ever sees ``argv``, ``stdin`` and ``files``.

Workloads:

- ``realization``: nine ``verify-w`` slices of the acceptance grid per
  session, one per k in -4..4, each with n, N in 2..7 and K = k; the seed
  picks their order.
- ``integer-scans``: exhaustive Jacobi and closure scans of both index
  families plus the oracle suites; the seed only picks the command order.
- ``interactive``: a closed-loop session of small requests drawn from a
  fixed pool. Every stratum of the mix has a fixed size and is drawn in
  slices ordered by size, so seeds change which requests run and in what
  order, not how many of each kind nor how much work they ask for.

The pool is fixed (``POOL_SEED``) so that every request a session can draw
has a stdout digest recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("realization", "integer-scans", "interactive")

# Seed kept out of tuning: later performance claims must also hold on it.
HOLDOUT_SEED = 7919

POOL_SEED = 20060816

# The sub-grid of the acceptance grid `verify-w --n 2..7 --k -4..4` (2916
# tuples, about 15 s) that one realization session checks: one request per
# k in -4..4 with n, N in 2..7 and K = k, 36 tuples each, 324 in all. A run
# then holds about ten sessions, and calibration chunks run between the
# short requests, not only around one long one.
REALIZATION_N = (2, 7)
REALIZATION_K = (-4, 4)

W_INF_SCAN = ("winfinity", (2, 8), (-6, 6))
RHPWN_SCAN = ("rhpwn", (0, 6), (0, 6))

# Interactive session: stratum -> requests per session. The shares of the
# commands are those of the CLI invocations in tests/test_cli.py and
# tests/test_acceptance.py, leaving out the scans that the other two
# workloads cover (jacobi, closure, oracle, the full verify-w grid):
#   bracket 7 (1 on stdin, 6 as an argument), malformed (exit 2) 4,
#   verify-w on small grids 4, smear 3 (1 symbolic, 2 with step files),
#   normal-order 2, theta 1, star-check 1  -- 22 in all.
# Each invocation counts 50 requests, 1100 in total, so the 99th percentile
# of one session has 11 requests beyond it. The malformed share is split over
# its pool's inputs, uniformly: 6 of its 35 inputs are the ROADMAP 4(c) holes.
# Single verify-w tuples have n = N = 2 and k = K in -4..4, the k-range of
# the acceptance grid. An n = 3 tuple takes about twice as long as the
# slowest bracket batch; with a hundred of them in a session, the 99th
# percentile would measure that one kind alone.
MIX = {
    "bracket-stdin": 50,
    "bracket-argv": 300,
    "malformed": 166,
    "malformed-4c": 34,
    "verify-w": 200,
    "smear-symbolic": 50,
    "smear-step": 100,
    "normal-order": 100,
    "theta": 50,
    "star-check": 50,
}

VERIFY_W_N = (2, 2)
VERIFY_W_K = (-4, 4)

FORMATS = ("text", "json", "latex")


def request(argv, *, expect_exit=0, stdin="", files=None, verdict=None, kind):
    return {
        "kind": kind,
        "argv": [str(a) for a in argv],
        "stdin": stdin,
        "files": dict(files or {}),
        "exit": expect_exit,
        "verdict": verdict,
    }


def request_key(req) -> str:
    """Digest of what the program sees; keys the recorded stdout digests."""
    seen = {"argv": req["argv"], "stdin": req["stdin"], "files": req["files"]}
    blob = json.dumps(seen, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:20]


def _rng(seed: int, salt: str) -> random.Random:
    digest = hashlib.sha256(f"{salt}:{seed}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- in-domain index families, restated here so verdicts are independent ----

def _pairs(kind: str, n_range, k_range) -> list[tuple[int, int]]:
    def ok(n, k):
        if kind == "rhpwn":
            return n >= 0 and k >= 0 and n + k >= 3
        if kind == "winfinity":
            return n >= 2
        return n == 2

    return [
        (n, k)
        for n in range(n_range[0], n_range[1] + 1)
        for k in range(k_range[0], k_range[1] + 1)
        if ok(n, k)
    ]


_KIND_NAMES = {"rhpwn": "RHPWN", "winfinity": "Winfinity", "witt": "Witt"}


def _span(r) -> str:
    return f"{r[0]}..{r[1]}"


def verify_w_request(n_range, k_range, fmt="text", kind="realization"):
    tuples = ((n_range[1] - n_range[0] + 1) * (k_range[1] - k_range[0] + 1)) ** 2
    argv = ["verify-w", "--n", _span(n_range), "--k", _span(k_range)]
    if fmt != "text":
        argv += ["--format", fmt]
    verdict = f"verify-w: tuples={tuples} failures=0 -> PASS" if fmt == "text" else None
    return request(argv, verdict=verdict, kind=kind)


def jacobi_request(kind, n_range, k_range):
    triples = len(_pairs(kind, n_range, k_range)) ** 3
    verdict = (
        f"jacobi {_KIND_NAMES[kind]} n={_span(n_range)} k={_span(k_range)} "
        f"[exhaustive]: triples={triples} failures=0 -> PASS"
    )
    argv = ["jacobi", "--kind", kind, "--n-range", _span(n_range), "--k-range", _span(k_range)]
    return request(argv, verdict=verdict, kind="jacobi")


def closure_request(kind, n_range, k_range):
    pairs = len(_pairs(kind, n_range, k_range)) ** 2
    verdict = (
        f"closure {_KIND_NAMES[kind]} n={_span(n_range)} k={_span(k_range)}: "
        f"pairs={pairs} violations=0 -> PASS"
    )
    argv = ["closure", "--kind", kind, "--n-range", _span(n_range), "--k-range", _span(k_range)]
    return request(argv, verdict=verdict, kind="closure")


def star_check_request(kind, n_range, k_range, fmt="text"):
    pairs = len(_pairs(kind, n_range, k_range)) ** 2
    argv = ["star-check", "--kind", kind, "--n-range", _span(n_range), "--k-range", _span(k_range)]
    verdict = None
    if fmt == "text":
        verdict = (
            f"star-check {_KIND_NAMES[kind]} n={_span(n_range)} k={_span(k_range)}: "
            f"pairs={pairs} failures=0 -> PASS"
        )
    else:
        argv += ["--format", fmt]
    return request(argv, verdict=verdict, kind="star-check")


# -- realization and integer-scans -------------------------------------------

def realization(seed: int) -> list[dict]:
    reqs = [verify_w_request(REALIZATION_N, (k, k)) for k in range(REALIZATION_K[0], REALIZATION_K[1] + 1)]
    _rng(seed, "realization").shuffle(reqs)
    return reqs


def integer_scans(seed: int) -> list[dict]:
    reqs = [
        jacobi_request(*W_INF_SCAN),
        jacobi_request(*RHPWN_SCAN),
        closure_request(*W_INF_SCAN),
        closure_request(*RHPWN_SCAN),
        request(["oracle"], verdict="oracle: PASS", kind="oracle"),
    ]
    _rng(seed, "integer-scans").shuffle(reqs)
    return reqs


# -- interactive pool ---------------------------------------------------------

_NAMES = ("f", "g", "h")


def _scalar_literal(rng: random.Random) -> str:
    """A DSL scalar: mostly complex and non-dyadic, as users type them."""
    roll = rng.random()
    num = rng.randint(1, 9)
    den = rng.choice((3, 5, 6, 7, 9, 11))
    if roll < 0.15:
        return str(rng.randint(2, 5))
    if roll < 0.3:
        return f"{num}/{den}"
    if roll < 0.4:
        return "i"
    num2 = rng.randint(1, 9)
    den2 = rng.choice((3, 5, 7, 10, 12))
    sign = rng.choice("+-")
    lead = rng.choice(("", "-"))
    return f"({lead}{num}/{den}{sign}{num2}/{den2}*i)"


def complex_operands(seed: int, count: int = 512) -> list[tuple[int, int, int, int]]:
    """(re_num, re_den, im_num, im_den) of the complex scalar literals the
    interactive generator writes, for the complex-arithmetic microbenchmark."""
    rng = _rng(seed, "complex-operands")
    out = []
    while len(out) < count:
        lit = _scalar_literal(rng)
        if not lit.startswith("("):
            continue
        body = lit[1:-3]  # strip "(" and "*i)"
        sign_at = max(body.rfind("+"), body.rfind("-"))
        re_part, im_part = Fraction(body[:sign_at]), Fraction(body[sign_at:])
        out.append((re_part.numerator, re_part.denominator, im_part.numerator, im_part.denominator))
    return out


def _label(rng: random.Random) -> str:
    factors = rng.sample(_NAMES, rng.choice((1, 1, 2)))
    factors = [("~" if rng.random() < 0.3 else "") + f for f in factors]
    if len(factors) == 1:
        return "@" + factors[0]
    return "@(" + "*".join(factors) + ")"


def _atom(rng: random.Random, head: str, labelled: bool) -> str:
    if head == "B":
        n, k = rng.choice(_pairs("rhpwn", (0, 4), (0, 4)))
    else:
        n, k = rng.randint(2, 4), rng.randint(-3, 3)
    return f"{head}[{n},{k}]" + (_label(rng) if labelled else "")


def _dsl_expr(rng: random.Random, head: str, labelled: bool, depth: int) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        node = _atom(rng, head, labelled)
    elif roll < 0.65:
        a = _dsl_expr(rng, head, labelled, depth - 1)
        b = _dsl_expr(rng, head, labelled, depth - 1)
        node = f"[{a}, {b}]"
    elif roll < 0.8:
        node = f"({_dsl_expr(rng, head, labelled, depth - 1)})^*"
    else:
        a = _dsl_expr(rng, head, labelled, depth - 1)
        b = _dsl_expr(rng, head, labelled, depth - 1)
        node = f"({a} {rng.choice('+-')} {b})"
    if rng.random() < 0.35:
        node = f"{_scalar_literal(rng)}*{node}"
    return node


def dsl_line(rng: random.Random) -> str:
    """One well-formed DSL line: a single algebra kind, labels on every atom
    or on none (mixing them is the contract hole kept in the malformed share)."""
    head = rng.choice(("B", "Bh"))
    return _dsl_expr(rng, head, rng.random() < 0.5, rng.randint(1, 3))


def _step_records(rng: random.Random) -> list[dict]:
    grid = ["-2", "-1", "-1/2", "0", "1/3", "1", "3/2", "2", "5/2"]
    points = sorted(rng.sample(grid, rng.randint(2, 4)), key=Fraction)
    records = []
    for a, b in zip(points, points[1:]):
        if rng.random() < 0.2:
            continue
        records.append(
            {
                "from": a,
                "to": b,
                "re": f"{rng.randint(-4, 4)}/{rng.choice((1, 2, 3, 5))}",
                "im": f"{rng.randint(-4, 4)}/{rng.choice((1, 3, 7))}",
            }
        )
    return records


def _file_name(text: str) -> str:
    """Named by content, so the files of one session never collide."""
    return "step-" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:12] + ".json"


def _with_format(rng: random.Random, argv: list) -> list:
    fmt = rng.choice(FORMATS)
    return argv if fmt == "text" else argv + ["--format", fmt]


def _indices(rng: random.Random, hi: int) -> list[str]:
    out = []
    for flag in ("--n", "--k", "--N", "--K"):
        out += [flag, str(rng.randint(0, hi))]
    return out


_MALFORMED_ARGV = (
    ["bracket", "[B[2,1], B[1,2]"],
    ["bracket", "B[2,1] +"],
    ["bracket", "B[2,1]]"],
    ["bracket", "3*"],
    ["bracket", "(1/0)*B[2,1]"],
    ["bracket", "B[1,1]"],
    ["bracket", "Bh[1,0]"],
    ["bracket", "B[2,1] + Bh[2,1]"],
    ["bracket", "B[2,x]"],
    ["bracket", "#"],
    ["bracket", "--format", "yaml", "B[2,1]"],
    ["bracket", "--nope"],
    ["verify-w", "--n", "1..3"],
    ["verify-w", "--k", "3..1"],
    ["theta", "--L", "1..2"],
    ["theta", "--n", "a..b"],
    ["jacobi", "--kind", "rhpwn", "--n-range", "3..1", "--k-range", "0..1"],
    ["jacobi", "--kind", "su2", "--n-range", "0..1", "--k-range", "0..1"],
    ["closure", "--kind", "winfinity", "--n-range", "2..3"],
    ["star-check", "--n-range", "2..3", "--k-range", "0..1"],
    ["normal-order", "--n", "-1", "--k", "0", "--N", "1", "--K", "1"],
    ["normal-order", "--n", "1", "--k", "2", "--N", "3"],
    ["smear", "--n", "1", "--k", "1", "--N", "1"],
    ["smear", "--n", "1", "--k", "1", "--N", "1", "--K", "1", "--g", "missing.json"],
    ["oracle", "--eq1-max", "x"],
    ["frobnicate"],
)

_BAD_STEP_FILES = (
    "{not json",
    json.dumps([{"from": "0", "re": "1"}]),
    json.dumps([{"from": "0", "to": "2", "re": "1"}, {"from": "1", "to": "3", "re": "1"}]),
)

# ROADMAP 4(c): both answer exit 1 with a traceback today; the contract says 2.
_MALFORMED_4C = (
    ["bracket", "[B[2,1]@f, B[1,2]]"],
    ["bracket", "[Bh[3,1], Bh[2,-1]@g]"],
    ["bracket", "[B[1,2]@(f*g), B[3,0]]"],
    ["smear", "--n", "-1", "--k", "0", "--N", "1", "--K", "1"],
    ["smear", "--n", "2", "--k", "-1", "--N", "1", "--K", "1"],
    ["smear", "--n", "1", "--k", "1", "--N", "-2", "--K", "0"],
)


def _pool_stratum(name: str, rng: random.Random) -> list[dict]:
    if name == "bracket-stdin":
        out = []
        for _ in range(100):
            lines = [dsl_line(rng) for _ in range(rng.randint(1, 6))]
            out.append(request(_with_format(rng, ["bracket"]), stdin="\n".join(lines) + "\n", kind=name))
        return out
    if name == "bracket-argv":
        return [request(_with_format(rng, ["bracket", dsl_line(rng)]), kind=name) for _ in range(240)]
    if name == "normal-order":
        out = []
        for _ in range(160):
            argv = ["normal-order", *_indices(rng, 4)]
            if rng.random() < 0.5:
                argv.append("--renormalize")
            out.append(request(_with_format(rng, argv), kind=name))
        return out
    if name == "smear-symbolic":
        return [request(_with_format(rng, ["smear", *_indices(rng, 5)]), kind=name) for _ in range(100)]
    if name == "smear-step":
        out = []
        for _ in range(100):
            g, f = json.dumps(_step_records(rng)), json.dumps(_step_records(rng))
            argv = ["smear", *_indices(rng, 5), "--g", _file_name(g), "--f", _file_name(f)]
            files = {_file_name(g): g, _file_name(f): f}
            out.append(request(_with_format(rng, argv), files=files, kind=name))
        return out
    if name == "theta":
        out = []
        for _ in range(80):
            argv = ["theta", "--L", f"2..{rng.randint(2, 3)}"]
            for flag in ("--n", "--k", "--N", "--K"):
                lo = rng.randint(0, 3)
                argv += [flag, f"{lo}..{lo + rng.randint(0, 2)}"]
            out.append(request(_with_format(rng, argv), kind=name))
        return out
    if name == "star-check":
        out = []
        for _ in range(60):
            kind = rng.choice(("rhpwn", "winfinity", "witt"))
            # At most 4 basis elements, 16 pairs: as slow as the slowest
            # bracket batches and single verify-w tuples, so no one kind
            # makes up the tail of the latencies.
            if kind == "rhpwn":
                lo = rng.randint(0, 2)
                k_lo = rng.randint(0, 2)
                n_range, k_range = (lo, lo + 1), (k_lo, k_lo + 1)
            else:
                lo = rng.randint(-3, 0)
                n_range = (2, 2) if kind == "witt" else (2, rng.randint(2, 3))
                k_range = (lo, lo + (2 if n_range == (2, 2) else 1))
            out.append(star_check_request(kind, n_range, k_range, rng.choice(FORMATS)))
        return out
    if name == "verify-w":
        # One request per (n, k, format): the session draws a fixed number per n.
        return [
            verify_w_request((n, n), (k, k), fmt, kind=name)
            for n in range(VERIFY_W_N[0], VERIFY_W_N[1] + 1)
            for k in range(VERIFY_W_K[0], VERIFY_W_K[1] + 1)
            for fmt in FORMATS
        ]
    if name == "malformed":
        out = [request(argv, expect_exit=2, kind=name) for argv in _MALFORMED_ARGV]
        for text in _BAD_STEP_FILES:
            argv = ["smear", "--n", "1", "--k", "2", "--N", "2", "--K", "1", "--g", _file_name(text)]
            out.append(request(argv, expect_exit=2, files={_file_name(text): text}, kind=name))
        return out
    if name == "malformed-4c":
        return [request(argv, expect_exit=2, kind=name) for argv in _MALFORMED_4C]
    raise ValueError(f"unknown stratum {name!r}")


def pool() -> dict[str, list[dict]]:
    """Every request an interactive session can draw, by stratum."""
    return {name: _pool_stratum(name, _rng(POOL_SEED, name)) for name in MIX}


def _work(req: dict) -> int:
    """How much a pool request asks for: the basis pairs of a star-check
    scan, the length of the text (arguments, stdin, files) otherwise."""
    argv = req["argv"]
    if req["kind"] == "star-check":
        n_range, k_range = (tuple(int(x) for x in argv[i].split("..")) for i in (4, 6))
        return len(_pairs(argv[2], n_range, k_range)) ** 2
    return sum(map(len, argv)) + len(req["stdin"]) + sum(map(len, req["files"].values()))


def _stratified(rng: random.Random, entries: list[dict], count: int) -> list[dict]:
    """``count`` draws, one from each of ``count`` equal slices of ``entries``
    ordered by ``_work``: every seed asks for the same spread of work, so the
    slowest 1 % of a session is the same mix of requests for every seed."""
    ordered = sorted(entries, key=_work)
    out = []
    for i in range(count):
        lo = i * len(ordered) // count
        out.append(rng.choice(ordered[lo : max(lo + 1, (i + 1) * len(ordered) // count)]))
    return out


def interactive(seed: int) -> list[dict]:
    rng = _rng(seed, "interactive")
    session = []
    for name, entries in pool().items():
        session += _stratified(rng, entries, MIX[name])
    rng.shuffle(session)
    return session


def requests_for(workload: str, seed: int) -> list[dict]:
    if workload == "realization":
        return realization(seed)
    if workload == "integer-scans":
        return integer_scans(seed)
    if workload == "interactive":
        return interactive(seed)
    raise ValueError(f"unknown workload {workload!r}")


def recorded_requests() -> list[dict]:
    """Every request any seed can produce: what expected.json must cover."""
    reqs = realization(0) + integer_scans(0)
    for entries in pool().values():
        reqs += entries
    return reqs
