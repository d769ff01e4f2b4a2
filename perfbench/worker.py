"""Child process of the benchmark: set up one workload, run it, report JSON.

Run by ``run.py``, never directly by a user.  The worker imports pdivgen
from ``<root>/src``, builds the workload's inputs, and then either exits
(``--setup-only``, for timing set-up), runs a closed loop of untraced solves
for ``--seconds`` (``--trace 0``), or alternates untraced and traced units of
work for ``--seconds`` (``--trace 1``).  Its last stdout line is one JSON
object that ``run.py`` reads.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# failure reasons kept per run; the rest are only counted
MAX_PROBLEMS = 5
# least seconds of solving per group of solves adjusted together
ROUND_S = 2.0


def solve_once(workload, i, sampler=None):
    """Run solve i; return (wall seconds, output, error or None).

    Time the sampler's probes took during the solve is not counted.
    """
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        output, error = workload.solve(i), None
    except Exception as exc:  # a failed solve is counted, not fatal
        output, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if sampler:
        seconds -= sampler.spent - spent
    return seconds, output, error


def timed_run(workload, seconds):
    """Closed loop with one client: solve i+1 starts when solve i has ended.

    Solves are grouped in rounds of at least ROUND_S seconds; solve i
    belongs to round ``rounds[i]``, whose mean host-speed probe time is
    ``round_probe_s[rounds[i]]``.  Outputs are checked after the loop, so
    that checking does not count toward the run's time.
    """
    samples, rounds, round_probes, outputs = [], [], [], []
    with hostspeed.Sampler() as sampler:
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            first = len(sampler.samples)
            while True:
                seconds_i, output, error = solve_once(workload, len(samples), sampler)
                outputs.append((output, error))
                samples.append(seconds_i)
                rounds.append(len(round_probes))
                if time.perf_counter() - round_start >= ROUND_S:
                    break
            round_probes.append(sampler.mean_since(first))
            if time.perf_counter() >= deadline:
                break
    failures = []
    for i, (output, error) in enumerate(outputs):
        problem = error or workload.check(i, output)
        if problem:
            failures.append((i, problem))
    return {
        "samples": samples,
        "rounds": rounds,
        "round_probe_s": round_probes,
        "probe_count": len(sampler.samples),
        "failures": failures,
    }


def run_unit(workload, failures):
    """Solves 0 .. unit_size-1 with inline checks; return their summed time."""
    total = 0.0
    for i in range(workload.unit_size):
        seconds_i, output, error = solve_once(workload, i)
        total += seconds_i
        problem = error or workload.check(i, output)
        if problem:
            failures.append((i, problem))
    return total


def traced_run(workload, seconds):
    """Pairs of one untraced and one traced unit of work until time is up.

    A unit is solves 0 .. unit_size-1, so every traced unit does the same
    work and its counts must repeat exactly.  Times are medians over units.
    """
    failures = []
    untraced, traced, snapshots = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_unit(workload, failures))
        with Tracer() as tracer:
            traced.append(run_unit(workload, failures))
        snapshots.append(tracer.snapshot())
        if time.perf_counter() >= deadline:
            break
    return {
        "untraced_unit_s": untraced,
        "traced_unit_s": traced,
        "snapshots": snapshots,
        "unit_size": workload.unit_size,
        "failures": failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root)
    src = root / "src"
    if not (src / "pdivgen" / "__init__.py").is_file():
        sys.exit(f"no pdivgen sources under {src}")
    sys.path.insert(0, str(src))

    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as scratch:
        workload = workloads.load(args.workload, root, args.seed, scratch)
        ready = time.monotonic()
        ready_probe = hostspeed.probe(hostspeed.SETUP_REPEATS)
        if args.setup_only:
            result = {}
        elif args.trace:
            result = traced_run(workload, args.seconds)
        else:
            result = timed_run(workload, args.seconds)
    result["ready_monotonic"] = ready
    result["ready_probe_s"] = ready_probe
    failures = result.pop("failures", [])
    result["failed"] = len(failures)
    result["problems"] = [f"solve {i}: {why}" for i, why in failures[:MAX_PROBLEMS]]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
