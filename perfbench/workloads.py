"""The four benchmark workloads: seeded inputs, the closed loop that sends
them, and the checks applied to every output after timing.

Every workload is a closed loop with one client: the next request starts
only when the previous one has returned, so nothing ever queues.  Requests
come in rounds: a pass over the suites, one run_suite call being one
request, or a fixed mix of CLI requests.  A run always finishes the round
it is in, so each run sees the same mix.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exact
import spans

# -- suite workloads ------------------------------------------------------------

INTERLACE_SUITES = ("chain", "diamond-interlace", "sp-deletion")
DECIDE_SUITES = (
    "schur",
    "diamond-closure",
    "ferrers",
    "ns-small",
    "lphi-identity",
    "alt-product",
    "e-operator",
    "ordinal-sum",
    "log-concavity",
    "hermite-poulain",
)
# instances each suite reports at its registered defaults
SUITE_INSTANCES = {
    "chain": 100,
    "diamond-interlace": 200,
    "sp-deletion": 300,
    "schur": 200,
    "diamond-closure": 200,
    "ferrers": 29,
    "ns-small": 5378,
    "lphi-identity": 100,
    "alt-product": 200,
    "e-operator": 200,
    "ordinal-sum": 200,
    "log-concavity": 300,
    "hermite-poulain": 100,
}


@dataclass(frozen=True)
class Request:
    kind: str  # "suite" or the CLI command, e.g. "roots isolate"
    args: tuple  # (suite, seed) for a suite, else the CLI argv
    expect: object = None  # what the check needs to know about the answer


@dataclass
class Record:
    request: Request
    seconds: float
    output: tuple


def _suite_rounds(suites: tuple[str, ...]):
    """Round k is one pass over the suites with suite seed 100 * seed + k, so
    `realroots verify SUITE --seed 100*seed+k` replays any of them."""

    def build(lib, seed: int, count: int = 8) -> list[list[Request]]:
        return [[Request("suite", (name, 100 * seed + k)) for name in suites] for k in range(count)]

    return build


# -- poset-cli ------------------------------------------------------------------

# The posets every round sends, each once as DSL and once as JSON.  They are
# drawn once, straight from the generator below, with a fixed seed, so every
# --seed sends the same posets: the lattice DP's cost is heavy-tailed (a few
# wide posets take most of the time), and a sample drawn afresh per seed moves
# verdicts_per_s between seeds by more than the bound.  The seed shuffles the
# order of each round and the order of elements and covers in the JSON form.
POSET_COUNT = 48
POSET_SIZES = (12, 13, 14)
POSET_DU = (0.3, 0.9)  # per poset, the chance that a node is a disjoint union
POSET_DRAW = "poset-cli posets"


def _random_tree(rng: random.Random, n: int, p_du: float):
    if n == 1:
        return "L"
    left = rng.randint(1, n - 1)
    op = "du" if rng.random() < p_du else rng.choice(("s0", "s1"))
    return (op, _random_tree(rng, left, p_du), _random_tree(rng, n - left, p_du))


def tree_dsl(t) -> str:
    return "L" if t == "L" else f"{t[0]}({tree_dsl(t[1])},{tree_dsl(t[2])})"


def poset_trees() -> list:
    rng = random.Random(POSET_DRAW)
    return [
        _random_tree(rng, rng.choice(POSET_SIZES), rng.uniform(*POSET_DU))
        for _ in range(POSET_COUNT)
    ]


def tree_epoly(t) -> exact.Coeffs:
    """E of a series-parallel tree from the source paper's identities:
    E(P s1 Q) = E(P)E(Q), x E(P s0 Q) = (x+1)E(P)E(Q), E(P du Q) = E(P) <> E(Q)."""
    if t == "L":
        return [Fraction(0), Fraction(1)]
    a, b = tree_epoly(t[1]), tree_epoly(t[2])
    if t[0] == "du":
        return exact.diamond(a, b)
    prod = exact.multiply(a, b)
    if t[0] == "s1":
        return prod
    x, x_plus_1 = [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]
    return exact.divide(exact.multiply(prod, x_plus_1), x)[0]


def build_poset_rounds(lib, seed: int, count: int = 8) -> list[list[Request]]:
    rng = random.Random(f"poset-cli:{seed}")
    po = lib.posets
    trees = poset_trees()
    docs = [po.poset_to_json_dict(po.sp_build(po.parse_sp(tree_dsl(t)))) for t in trees]
    rounds = []
    for _ in range(count):
        batch = []
        for tree, doc in zip(trees, docs):
            doc = {**doc, "elements": list(doc["elements"]), "covers": list(doc["covers"])}
            rng.shuffle(doc["elements"])
            rng.shuffle(doc["covers"])
            as_json = json.dumps(doc, separators=(",", ":"))
            batch.append(Request("poset epoly", ("poset", "epoly", tree_dsl(tree)), tree))
            batch.append(Request("poset epoly", ("poset", "epoly", as_json), tree))
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


# -- locate ---------------------------------------------------------------------

# Image degrees of one round: one `roots isolate` request and one interlacing
# pair per degree, the pair sent to `interlace alternates` as is and with its
# lower image spoiled.
LOCATE_DEGREES = range(6, 16)


def _distinct(rng: random.Random, k: int, lo: Fraction, hi: Fraction, den: int) -> list[Fraction]:
    """k distinct rationals in [lo, hi] with denominators up to den, sorted."""
    got: set[Fraction] = set()
    while len(got) < k:
        d = rng.randint(1, den)
        a, b = math.ceil(lo * d), math.floor(hi * d)
        if a <= b:
            got.add(Fraction(rng.randint(a, b), d))
    return sorted(got)


def _lead(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def _image_pair(rng: random.Random, degree: int) -> tuple[exact.Coeffs, exact.Coeffs]:
    """(A, B): diamond images of a strictly interlacing pair against a
    multiplier with simple roots inside (-1, 0); deg A = degree and B
    strictly interlaces A."""
    df = (degree + 1) // 2
    values = _distinct(rng, 2 * df - 1, Fraction(-8), Fraction(8), 6)
    f = exact.from_roots(values[0::2], _lead(rng))
    g = exact.from_roots(values[1::2], _lead(rng))
    h_roots = _distinct(rng, degree - df, Fraction(-11, 12), Fraction(-1, 12), 12)
    h = exact.from_roots(h_roots, _lead(rng))
    return exact.diamond(f, h), exact.diamond(g, h)


def poly_arg(cs: exact.Coeffs) -> str:
    return json.dumps([str(c) for c in cs])


def parse_poly_arg(text: str) -> exact.Coeffs:
    return exact.trim(Fraction(c) for c in json.loads(text))


def build_locate_rounds(lib, seed: int, count: int = 4) -> list[list[Request]]:
    rng = random.Random(f"locate:{seed}")
    rounds = []
    for _ in range(count):
        batch = []
        for degree in LOCATE_DEGREES:
            a, _ = _image_pair(rng, degree)
            batch.append(Request("roots isolate", ("roots", "isolate", poly_arg(a)), a))
        for degree in LOCATE_DEGREES:
            a, b = _image_pair(rng, degree)
            r = Fraction(rng.randint(-63, 63), rng.randint(1, 8))
            while exact.evaluate(a, r) == 0:
                r += Fraction(1, 97)
            spoiled = exact.multiply(b, [r * r, -2 * r, Fraction(1)])
            for lower, holds in ((b, True), (spoiled, False)):
                pair = [poly_arg(a), poly_arg(lower)]
                lower_first = rng.random() < 0.5
                if lower_first:
                    pair.reverse()
                expect = {"holds": holds, "swapped": lower_first}
                argv = ("interlace", "alternates", *pair)
                batch.append(Request("interlace alternates", argv, expect))
        rounds.append(batch)
    return rounds


# -- running --------------------------------------------------------------------


def execute(lib, request: Request) -> tuple:
    """Send one request; the output is consumed (rendered) before returning."""
    if request.kind == "suite":
        name, seed = request.args
        try:
            report = lib.suites.run_suite(name, seed=seed)
        except Exception as err:  # an exception is a failed suite run
            return ("exception", repr(err))
        return (report.to_json(), report.instances, len(report.failures))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(list(request.args))
    except SystemExit as exit_:
        code = exit_.code
    except Exception as exc:  # an exception is a failed request
        code = f"exception {exc!r}"
    return (code, out.getvalue())


def closed_loop(
    lib, rounds, seconds: float, n_rounds: int | None = None, tracer=None, between=None
):
    """Send whole rounds until `seconds` of requests have been timed (or
    exactly `n_rounds`).  `between` is called after each round, outside the
    timed requests.

    Returns the records, the timed seconds and the number of rounds sent.
    """
    records: list[Record] = []
    clock = time.perf_counter
    timed = 0.0
    done = 0
    while (done < n_rounds) if n_rounds is not None else (done == 0 or timed < seconds):
        start = clock()
        for request in rounds[done % len(rounds)]:
            if tracer is not None:
                tracer.begin_request()
            t0 = clock()
            output = execute(lib, request)
            records.append(Record(request, clock() - t0, output))
        timed += clock() - start
        done += 1
        if between is not None:
            between()
    return records, timed, done


def traced_loop(lib, rounds, seconds: float, tracer):
    """Send each round twice, plain and traced, until `seconds` of plain
    requests have been timed.  The two runs of a round are adjacent in time
    and take turns going first, so the difference of their times is the
    tracing overhead even when the machine's speed drifts.

    Returns the plain records and seconds, the traced records and seconds,
    and the number of rounds.
    """
    plain: list[Record] = []
    traced: list[Record] = []
    plain_s = traced_s = 0.0
    done = 0

    def run_traced(batch):
        tracer.install(lib.modules)
        try:
            return closed_loop(lib, batch, 0, 1, tracer)[:2]
        finally:
            tracer.uninstall()

    while done == 0 or plain_s < seconds:
        batch = [rounds[done % len(rounds)]]
        if done % 2:
            t_records, t_s = run_traced(batch)
        p_records, p_s, _ = closed_loop(lib, batch, 0, 1)
        if not done % 2:
            t_records, t_s = run_traced(batch)
        plain += p_records
        plain_s += p_s
        traced += t_records
        traced_s += t_s
        done += 1
    return plain, plain_s, traced, traced_s, done


def verdicts(record: Record) -> int:
    """Certified verdicts a request delivered: a suite's instances, else one."""
    if record.request.kind == "suite":
        return record.output[1] if record.output[0] != "exception" else 0
    return 1


# -- checks ---------------------------------------------------------------------


def _check_suite(request: Request, output: tuple, first: dict) -> tuple[int, int, str]:
    name, seed = request.args
    expected = SUITE_INSTANCES[name]
    if output[0] == "exception":
        return expected, expected, f"{name} --seed {seed}: {output[1]}"
    rendered, instances, failures = output
    if instances != expected:
        message = f"{name} --seed {seed}: {instances} instances, expected {expected}"
        return expected, expected, message
    if first.setdefault(request.args, rendered) != rendered:
        return instances, instances, f"{name} --seed {seed}: report differs between passes"
    if failures:
        return instances, failures, f"{name} --seed {seed}: {failures} failed instances"
    return instances, 0, ""


def _check_isolate(request: Request, payload: dict) -> str:
    problems = exact.isolation_errors(request.expect, payload["roots"])
    return "; ".join(problems)


def _check_alternates(request: Request, payload: dict) -> str:
    expect = request.expect
    if expect["holds"]:
        relation, swapped = payload.get("relation"), payload.get("swapped")
        if relation != "strictly_interlaces" or swapped != expect["swapped"]:
            return f"expected strict interlacing (swapped={expect['swapped']}), got {payload}"
        return ""
    witness = payload.get("witness") or []
    if payload.get("relation") != "none" or payload.get("holds") or len(witness) != 2:
        return f"expected relation none with a witness, got {payload}"
    # the witness is two root locations, one of a root of each input
    inputs = [parse_poly_arg(text) for text in request.args[2:]]
    holds = [{k for k, cs in enumerate(inputs) if exact.locates_root_of(cs, loc)} for loc in witness]
    if not ((0 in holds[0] and 1 in holds[1]) or (1 in holds[0] and 0 in holds[1])):
        return f"witness {witness} does not locate a root of each input"
    return ""


def _check_epoly(request: Request, payload: dict) -> str:
    tree = request.expect
    got = exact.trim(Fraction(c) for c in payload["coefficients"])
    if not exact.all_roots_in(got, Fraction(-1), Fraction(0)):
        return "roots outside [-1, 0]"
    op, left, right = tree
    a, b = tree_epoly(left), tree_epoly(right)
    if op == "du":
        ok = got == exact.diamond(a, b)
    elif op == "s1":
        ok = got == exact.multiply(a, b)
    else:
        x, x1 = [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]
        ok = exact.multiply(x, got) == exact.multiply(x1, exact.multiply(a, b))
    return "" if ok else f"root identity for {op} fails"


_CLI_CHECKS = {
    "roots isolate": _check_isolate,
    "interlace alternates": _check_alternates,
    "poset epoly": _check_epoly,
}


def check(records: list[Record]) -> tuple[int, int, list[str]]:
    """(verdicts attempted, verdicts failed, messages) over all records."""
    attempted = failed = 0
    messages: list[str] = []
    first_report: dict = {}
    seen: dict[tuple, tuple] = {}
    checked: dict[tuple, str] = {}  # CLI argv -> problem found, "" if none
    for rec in records:
        if rec.request.kind == "suite":
            n, bad, msg = _check_suite(rec.request, rec.output, first_report)
        else:
            n, bad, msg = 1, 0, ""
            key = rec.request.args
            if seen.setdefault(key, rec.output) != rec.output:
                msg = "output differs from an earlier identical request"
            elif rec.output[0] != 0:
                msg = f"exit code {rec.output[0]}"
            elif key not in checked:
                try:
                    payload = json.loads(rec.output[1])
                    checked[key] = _CLI_CHECKS[rec.request.kind](rec.request, payload)
                except Exception as err:  # malformed output fails its check, not the run
                    checked[key] = f"unreadable output: {err!r}"
            msg = msg or checked.get(key, "")
            if msg:
                bad = 1
                msg = f"{rec.request.kind} {' '.join(rec.request.args)[:120]}: {msg}"
        attempted += n
        failed += bad
        if msg:
            messages.append(msg)
    # every form of one poset must give the same polynomial
    by_tree: dict[str, set] = {}
    for rec in records:
        if rec.request.kind == "poset epoly" and rec.output[0] == 0:
            by_tree.setdefault(tree_dsl(rec.request.expect), set()).add(rec.output[1])
    for dsl, outputs in by_tree.items():
        if len(outputs) > 1:
            failed += 1
            messages.append(f"poset {dsl}: DSL and JSON forms disagree")
    return attempted, min(failed, attempted), messages


# The suites' reports only say that every instance got the expected answer
# from the library's own decision functions.  So after timing, one suite of
# the first round (chosen by the seed: a whole pass again would double the
# run) runs once more with these functions recorded, a seeded sample of
# their answers is decided again by exact.py, and each function is asked a
# few questions whose answer is known to be no.
DECISIONS = ("interlacing.interlaces", "roots.is_real_rooted", "roots.roots_in_interval")
SAMPLED = 8  # recorded calls of each decision function


def _redecide(name: str, args: tuple, kwargs: dict):
    polys = [list(a.coeffs) for a in args if hasattr(a, "coeffs")]
    if name == "roots.is_real_rooted":
        return exact.rootedness(polys[0])
    if name == "roots.roots_in_interval":
        closed = kwargs.get("closed", args[3] if len(args) > 3 else True)
        return exact.roots_within(polys[0], Fraction(args[1]), Fraction(args[2]), closed)
    strict = kwargs.get("strict", args[2] if len(args) > 2 else False)
    return exact.interlaces(polys[0], polys[1], strict)


def known_negatives(rng: random.Random) -> list[tuple[str, tuple, object]]:
    """(decision, exact arguments, answer) for questions answered no."""
    f_roots = _distinct(rng, 5, Fraction(-6), Fraction(6), 4)
    between = [(u + v) / 2 for u, v in zip(f_roots, f_roots[1:])]
    f = exact.from_roots(f_roots, _lead(rng))
    below = exact.from_roots([f_roots[0] - 1, *between[1:]], _lead(rng))  # g_1 < f_1
    complex_pair = [Fraction(rng.randint(1, 5)), Fraction(0), Fraction(1)]  # x^2 + c
    unreal = exact.multiply(exact.from_roots(between[2:], _lead(rng)), complex_pair)
    outside = exact.from_roots([Fraction(-1, 3), Fraction(rng.randint(1, 5), 7)], _lead(rng))
    at_zero = exact.from_roots([Fraction(-1, rng.randint(2, 9)), Fraction(0)], _lead(rng))
    return [
        ("interlacing.interlaces", (below, f, False), False),
        ("interlacing.interlaces", (unreal, f, False), False),
        ("roots.is_real_rooted", (exact.multiply(f, complex_pair),), "not_real_rooted"),
        ("roots.roots_in_interval", (outside, Fraction(-1), Fraction(0), True), False),
        ("roots.roots_in_interval", (at_zero, Fraction(-1), Fraction(0), False), False),
    ]


def _answer(result):
    return getattr(result, "value", result)  # Rootedness members by value


def check_decisions(lib, records: list[Record], batch: list[Request], seed: int):
    """(answers re-decided, messages) for one suite request of `batch`."""
    rng = random.Random(f"decisions:{seed}")
    request = batch[seed % len(batch)]
    timed = {rec.request.args: rec.output for rec in records}
    messages: list[str] = []
    recorder = spans.Recorder(DECISIONS)
    recorder.install(lib.modules)
    try:
        output = execute(lib, request)
    finally:
        recorder.uninstall()
    if output != timed.get(request.args, output):
        messages.append(f"{request.args}: report differs when the decisions are recorded")
    sample = []
    for name in DECISIONS:
        calls = [c for c in recorder.calls if c[0] == name]
        sample += rng.sample(calls, min(SAMPLED, len(calls)))
    for name, args, kwargs, result in sample:
        expected = _redecide(name, args, kwargs)
        if _answer(result) != expected:
            messages.append(f"{name}{args!r}: answered {_answer(result)}, exact says {expected}")
    Polynomial = lib.polynomial.Polynomial
    negatives = known_negatives(rng)
    for name, args, expected in negatives:
        fn = getattr(lib.modules[name.split(".")[0]], name.split(".")[1])
        lib_args = [Polynomial(a) if isinstance(a, list) else a for a in args]
        got = _answer(fn(*lib_args))
        exact_says = _redecide(name, tuple(lib_args), {})
        if got != expected or exact_says != expected:
            messages.append(f"{name} on a known negative: answered {got}, "
                            f"exact says {exact_says}, expected {expected}")
    return len(sample) + len(negatives), messages


def compare(plain: list[Record], traced: list[Record]) -> list[str]:
    """Traced and plain runs of the same requests must answer identically."""
    if len(plain) != len(traced):
        return [f"traced run sent {len(traced)} requests, plain run {len(plain)}"]
    return [
        f"request {i} ({p.request.kind}) answered differently when traced"
        for i, (p, t) in enumerate(zip(plain, traced))
        if p.output != t.output
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[list[Request]]]  # (lib, seed) -> rounds
    suites: bool  # requests are run_suite calls, whose decisions get re-checked


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-interlace", _suite_rounds(INTERLACE_SUITES), True),
        Workload("verify-decide", _suite_rounds(DECIDE_SUITES), True),
        Workload("poset-cli", build_poset_rounds, False),
        Workload("locate", build_locate_rounds, False),
    )
}
