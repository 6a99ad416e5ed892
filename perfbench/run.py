"""realroots benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else.  Workloads (see workloads.py):

  verify-interlace  run_suite for chain, diamond-interlace, sp-deletion
  verify-decide     run_suite for the other ten suites
  poset-cli         `realroots poset epoly` requests (DSL and JSON forms)
  locate            `realroots roots isolate` / `interlace alternates` requests

Set-up (importing realroots and generating the seeded inputs) is timed five
times: once before the first round, then after each round until there are
five, so the samples are spread over the run, and the median is reported.
Whole rounds of requests are sent in a closed loop until `--seconds` have
been timed, and every output is checked afterwards; on the suite workloads
one suite of the first round then runs once more, untimed, so that a sample
of the answers of its decision functions can be decided again exactly.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 each round
is sent plain and then again with every public function of the library
wrapped in spans (spans.py); the per-layer metrics come from the traced
requests, the spans are written to perfbench/out/, the traced answers must
equal the plain ones, and the difference of the two times is the tracing
overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

# functions whose inclusive share of the traced time a traced run prints:
# the decision functions, plus isolation and the ideal-lattice DP
SHARES = (
    "roots.is_real_rooted",
    "roots.roots_in_interval",
    "roots.count_roots",
    "interlacing.interlaces",
    "interlacing.alternates",
    "interlacing.chain_check",
    "roots.isolate_roots",
    "posets.e_polynomial",
)
CLI_COMMANDS = ("roots isolate", "interlace alternates", "poset epoly")
END_TO_END = {
    "verdicts_per_s": "1/s",
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in order."""
    out = []
    for op in ("mul", "divmod", "gcd"):
        out += [(f"polynomial.{op}.calls", "count"), (f"polynomial.{op}.self_s", "s")]
    for fn in ("is_real_rooted", "roots_in_interval", "count_roots", "isolate_roots",
               "yun_decomposition", "squarefree_part"):
        out += [(f"roots.{fn}.calls", "count"), (f"roots.{fn}.incl_s", "s")]
    out.append(("roots.isolate_roots.exact_frac", "ratio"))
    for fn in ("interlaces", "alternates", "merged_profile", "chain_check"):
        out += [(f"interlacing.{fn}.calls", "count"), (f"interlacing.{fn}.incl_s", "s")]
    out += [
        ("interlacing.interlaces.true_frac", "ratio"),
        ("interlacing.alternates.none_frac", "ratio"),
    ]
    for fn in ("diamond", "alt_diamond"):
        out += [(f"transforms.{fn}.calls", "count"), (f"transforms.{fn}.self_s", "s")]
    out += [("posets.e_polynomial.calls", "count"), ("posets.e_polynomial.self_s", "s")]
    for fn in ("sp_build", "delete_element", "e_operator", "e_inverse"):
        out.append((f"posets.{fn}.self_s", "s"))
    for fn in ("verify_cover_interlacing", "ferrers_e_poly"):
        out.append((f"ferrers.{fn}.incl_s", "s"))
    out.append(("generators.self_s", "s"))
    out += [(f"suites.{name}.s", "s") for name in wl.SUITE_INSTANCES]
    out.append(("cli.main.self_s", "s"))
    out += [(f"cli.{cmd.replace(' ', '_')}.ms.p50", "ms") for cmd in CLI_COMMANDS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


# -- set-up -------------------------------------------------------------------


def load_library() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "realroots" or m.startswith("realroots.")]:
        del sys.modules[name]
    modules = {"package": importlib.import_module("realroots")}
    for short in tracing.LAYER_MODULES:
        modules[short] = importlib.import_module(f"realroots.{short}")
    return SimpleNamespace(modules=modules, **modules)


def setup(workload: wl.Workload, seed: int, times: list[float]):
    """Import realroots afresh and build the inputs; appends the time taken."""
    t0 = time.perf_counter()
    lib = load_library()
    rounds = workload.build(lib, seed)
    times.append(time.perf_counter() - t0)
    gc.collect()  # the modules replaced by the re-import are garbage now
    return lib, rounds


def environment(seed: int) -> dict:
    sources = sorted((ROOT / "src" / "realroots").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def by_round(records: list[wl.Record], n_rounds: int) -> list[list[wl.Record]]:
    size = len(records) // n_rounds
    return [records[i : i + size] for i in range(0, len(records), size)]


def layer_metrics(
    tracer: tracing.Tracer, stats: dict, records, traced_wall: float, plain_wall: float
) -> dict:
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def stat(name: str, field: str):
        return stats.get(name, zero)[field]

    values: dict[str, float] = {}
    for name, _unit in per_layer_metrics():
        base, _, field = name.rpartition(".")
        if field in ("calls", "incl_s", "self_s"):
            values[name] = stat(base, field)
        elif field == "s" and base.startswith("suites."):
            values[name] = stat(base, "incl_s")
        elif field.endswith("_frac"):
            hits, total = tracer.observed.get(base, (0, 0))
            values[name] = hits / total if total else 0.0
    values["generators.self_s"] = sum(
        s["self_s"] for n, s in stats.items() if n.startswith("generators.")
    )
    by_request = dict(tracer.durations("cli.main"))
    for cmd in CLI_COMMANDS:
        times = [1000 * t for i, t in by_request.items() if records[i].request.kind == cmd]
        values[f"cli.{cmd.replace(' ', '_')}.ms.p50"] = statistics.median(times) if times else 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.spans"] = len(tracer)
    return values


# -- main ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    setup_times: list[float] = []
    try:
        lib, rounds = setup(workload, args.seed, setup_times)
    except ImportError as err:
        print(f"error: cannot import realroots from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    origin = Path(lib.package.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"error: realroots was imported from {origin}, not from this checkout",
              file=sys.stderr)
        return 2

    def sample_setup():
        # the requests keep using `lib`; the fresh import only gets timed
        if len(setup_times) < SETUP_REPEATS:
            setup(workload, args.seed, setup_times)

    if args.trace:
        tracer = tracing.Tracer()
        records, wall, traced, traced_wall, n_rounds = wl.traced_loop(
            lib, rounds, args.seconds, tracer
        )
    else:
        records, wall, n_rounds = wl.closed_loop(lib, rounds, args.seconds, between=sample_setup)
        while len(setup_times) < SETUP_REPEATS:
            sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, messages = wl.check(records)
    if workload.suites:
        redecided, wrong = wl.check_decisions(lib, records, rounds[0], args.seed)
        messages += wrong
        failed = min(attempted, failed + len(wrong))

    print(f"# realroots benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = environment(args.seed)
    print("# environment: " + json.dumps(env, sort_keys=True))
    print("# closed loop, one client, one thread: a request starts when the previous one "
          "returns, so nothing queues and there are no wait-time metrics")

    if args.trace:
        mismatches = wl.compare(records, traced)
        messages += mismatches
        failed = min(attempted, failed + len(mismatches))
        out_path = HERE / "out" / f"spans-{workload.name}.bin"
        tracer.write(out_path, {"workload": workload.name, **env})
        stats = tracer.summary()
        metrics = layer_metrics(tracer, stats, traced, traced_wall, wall)
        units = dict(per_layer_metrics())
        print(f"# {n_rounds} round(s), each sent plain and traced: plain {wall:.3f} s, "
              f"traced {traced_wall:.3f} s, "
              f"overhead {traced_wall - wall:+.3f} s ({100 * (traced_wall / wall - 1):+.1f}%); "
              f"{len(tracer)} spans written to {out_path.relative_to(ROOT)}")
        if not mismatches:
            print("# traced and plain runs gave identical reports and CLI outputs")
        print("# inclusive share of the traced time: " + ", ".join(
            f"{name} {100 * stats[name]['incl_s'] / traced_wall:.1f}%"
            for name in SHARES
            if name in stats))
    else:
        # Each figure is a median over rounds of that round's own figure.
        # Every round has the same mix of requests, so seconds in which the
        # machine runs slower spoil the rounds they fall in, not the median.
        rounds_done = by_round(records, n_rounds)
        rates = [sum(wl.verdicts(r) for r in b) / sum(r.seconds for r in b) for b in rounds_done]
        lat = [[1000 * r.seconds for r in batch] for batch in rounds_done]
        metrics = {
            "verdicts_per_s": statistics.median(rates),
            "request_ms.p50": statistics.median(statistics.median(x) for x in lat),
            "request_ms.p90": statistics.median(percentile(x, 90) for x in lat),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(f"# {attempted} verdicts in {len(records)} requests, {n_rounds} round(s), "
              f"{wall:.3f} s timed")
        print(f"# verdicts_per_s: median over {n_rounds} round(s) "
              f"(min {min(rates):.5g}, max {max(rates):.5g})")
        pooled = [x for batch in lat for x in batch]
        unit = "run_suite call" if workload.suites else "CLI request"
        print(f"# request_ms: one request is one {unit}; median over rounds of each round's "
              f"percentile, {len(lat[0])} request(s) a round; pooled over {len(pooled)} requests "
              f"p50 {statistics.median(pooled):.1f}, p90 {percentile(pooled, 90):.1f}")
        print(f"# setup_s: median of {SETUP_REPEATS} spread over the run "
              f"(min {min(setup_times):.4f}, max {max(setup_times):.4f})")
    if workload.suites:
        print(f"# decisions re-decided by exact.py: {redecided} (a seeded sample of the "
              f"calls made by one suite of the first round, plus known negatives)")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} verdicts)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for message in messages[:20]:
        print(f"# FAILED: {message}")

    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
