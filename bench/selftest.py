"""Self-test of the benchmark itself.

For each workload, runs ``bench/run.py`` twice with --trace 1 and once
with --trace 0, all with the same seed, and checks that:

- every run passes its output checks;
- the counts that do not depend on timing repeat exactly across the two
  traced runs;
- the per-layer self times add up to the traced wall time;
- the metric names are exactly those BENCHMARK.json lists.

Run from the repository root (about seven minutes for all workloads):

    python3 bench/selftest.py [--seed N] [--workload NAME ...]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPEAT_EXACTLY = (
    "verified_feasible",
    "direct_feasible_pairs",
    "rho_star",
    "sdp.iterations",
    "sdp.rate.probes",
    "simulate.coupled_steps",
)


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    problems = []
    for workload in args.workload:
        untraced = _run(workload, args.seed, 0)
        traced = [_run(workload, args.seed, 1) for _ in range(2)]
        for res in (untraced, *traced):
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} jobs failed")
        if set(untraced["metrics"]) != end_to_end:
            problems.append(f"{workload}: untraced metrics differ from BENCHMARK.json")
        first, second = (res["metrics"] for res in traced)
        if set(first) != per_layer:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        for name in REPEAT_EXACTLY:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} read {a!r} then {b!r}")
        wall = first["trace.wall_s"]["value"]
        layers = sum(first[f"{layer}.self_s"]["value"] for layer in LAYERS)
        if abs(layers - wall) > 0.01 * wall:
            problems.append(f"{workload}: layer self times sum to {layers:.4g} s of {wall:.4g} s")
        counts = "  ".join(f"{n}={first[n]['value']:g}" for n in REPEAT_EXACTLY)
        print(f"{workload}: wall {untraced['metrics']['wall_s']['value']:.3f} s, traced "
              f"{wall:.3f} s, overhead {first['trace.overhead_s']['value']:+.3f} s; {counts}")

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
