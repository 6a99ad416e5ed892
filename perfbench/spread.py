"""Run the benchmark over several seeds, in one or more sets, and print for
each workload and end-to-end metric the median and the spread (distance
between the first and third quartile as a share of the median) of every
set, next to the bound in BENCHMARK.json.  With two or more sets it also
prints how much worse each set's median is than the first set's, as a share
of the first: the bound allows at most that much between two sets of the
same code.

    python3 perfbench/spread.py [--workload NAME|all] [--seeds 0-9] [--sets 2] [--seconds S]

Runs are sequential, one process at a time, each waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(spec: dict, workload: str, seed_list: list[int], seconds: int):
    """{metric: [value per seed]}, {metric: unit}, and whether all runs were
    correct; None if a run failed."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in seed_list:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode:
            print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            return None
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"correct={result['correct']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return values, units, ok


def spread(vals: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med


def report(spec: dict, workload: str, sets: list[dict], units: dict) -> bool:
    """Print the table for one workload; False if a bound is exceeded."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{workload}: {'metric':16} {'unit':5} {'bound':>6}  per set: median spread"
          f"{'  worse than set 1' if len(sets) > 1 else ''}")
    for name in sets[0]:
        bound, lower = metrics[name]["bound"], metrics[name]["better"] == "lower"
        cells, notes = [], []
        first_median = None
        for k, values in enumerate(sets):
            med, spr = spread(values[name])
            cell = f"{med:.5g} {spr:.3f}"
            if first_median is None:
                first_median = med
            else:
                worse = (med - first_median) / first_median * (1 if lower else -1)
                cell += f" {worse:+.3f}"
                if worse > bound:
                    notes.append(f"set {k + 1} worse than set 1 by more than the bound")
                    ok = False
            cells.append(cell)
            if name != "setup_s" and spr > bound:
                notes.append(f"set {k + 1} spread above the bound")
                ok = False
            elif spr > bound / 3:
                notes.append(f"set {k + 1} spread above a third of the bound")
        print(f"{workload}: {name:16} {units[name]:5} {bound:6.2f}  " + " | ".join(cells)
              + (f"  ({'; '.join(notes)})" if notes else ""))
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    chosen = names if args.workload == "all" else [args.workload]
    results: dict[str, list[dict]] = {name: [] for name in chosen}
    units: dict[str, dict] = {}
    ok = True
    for k in range(args.sets):
        print(f"# set {k + 1} of {args.sets}", flush=True)
        for name in chosen:
            measured = measure(spec, name, args.seeds, args.seconds)
            if measured is None:
                return 1
            values, units[name], correct = measured
            results[name].append(values)
            ok = ok and correct
    if len(args.seeds) >= 2:
        for name in chosen:
            ok = report(spec, name, results[name], units[name]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
