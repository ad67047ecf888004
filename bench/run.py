"""stabcert benchmark: three seeded closed-loop workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

Workloads: certify-sweep, rate-bisect, coupled-experiments (see
bench/README.md).  With --trace 0 the run times set-up in fresh
interpreters, then repeats untraced passes over the workload's job list
for about --seconds (at least one pass, and no pass that would end past
the budget) and reports the end-to-end metrics.  With --trace 1 it runs
one untraced pass and one traced pass and reports the per-layer metrics,
with the tracing overhead as their difference.

Every job's output is checked after its pass, outside the timed region.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
provenance and every metric by name and unit.  stabcert is imported from
this checkout's src/ and nowhere else; without it the run exits with
status 1 and prints no result.
"""

import os

# One thread everywhere, pinned before numpy loads, for this process and
# the set-up interpreters it starts.
for _var in ("STABCERT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
NAMES = ("certify-sweep", "rate-bisect", "coupled-experiments")


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the inputs, then exit (times set-up)")
    return parser.parse_args(argv)


def _load_package() -> None:
    """Put this checkout's src/ first on the path, or stop."""
    package = SRC / "stabcert"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no stabcert source at {package}")
    sys.path.insert(0, str(SRC))
    import stabcert

    if Path(stabcert.__file__).resolve().parent != package:
        sys.exit(f"bench: imported stabcert from {stabcert.__file__}, not {package}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(args, inputs: dict) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "stabcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def _setup_seconds(args) -> float:
    """Median wall time of fresh interpreters doing imports plus input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _timed_passes(workload, seconds: float) -> list:
    passes = []
    measured = 0.0
    while True:
        passes.append(workload.run_pass())
        measured += passes[-1].wall
        if measured + passes[-1].wall > seconds:
            return passes


def main(argv=None) -> int:
    args = _parse(argv)
    _load_package()
    import layers
    import workloads
    from tracing import Tracer, patched

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        make = workloads.WORKLOADS[args.workload]
        if args.setup_only:
            make(args.seed, Path(tmp))
            return 0

        setup_s = _setup_seconds(args) if args.trace == 0 else None
        workload = make(args.seed, Path(tmp))
        print("provenance " + json.dumps(_provenance(args, workload.inputs), sort_keys=True))

        if args.trace == 0:
            passes = _timed_passes(workload, args.seconds)
            per_pass = [workload.pass_metrics(p) for p in passes]
            summary = {name: (statistics.median(m[name] for m in per_pass),
                              workloads.SUMMARY_UNITS[name]) for name in per_pass[0]}
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(p.wall for p in passes), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            shown = {**metrics, **summary}
        else:
            plain = workload.run_pass()
            tracer = Tracer()
            with patched(layers.instrument(tracer)):
                traced = workload.run_pass(tracer)
            passes = [plain, traced]
            for k, rec in enumerate(traced.records):
                layers_s = tracer.layer_self_seconds(job=k)
                busy = "  ".join(f"{layer}={s:.4g}" for layer, s in layers_s.items() if s > 0.0)
                print(f"span job {k} {rec.job.name}: {rec.seconds:.4g} s  self {busy}")
            metrics = {
                **workload.summary(plain),
                "trace.wall_s": (traced.wall, "s"),
                "trace.overhead_s": (traced.wall - plain.wall, "s"),
                **layers.metrics(tracer, workload.setup_seconds),
            }
            shown = metrics

    for rec in passes[-1].records:
        print(f"job {rec.job.name}: {rec.seconds:.4g} s, {rec.verdict()}")
    records = [rec for p in passes for rec in p.records]
    failed = [rec for rec in records if rec.errors]
    for rec in failed:
        for err in rec.errors:
            print(f"FAIL {rec.job.name}: {err}")
    shown = {**shown, "error_rate": (len(failed) / len(records), "ratio")}
    print(f"passes {len(passes)}  jobs {len(records)}  failed {len(failed)}  pass walls "
          + " ".join(f"{p.wall:.4g}" for p in passes))
    for name, (value, unit) in shown.items():
        print(f"metric {name:<34} {value:>16.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
