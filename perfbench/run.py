"""pdivgen benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload plane-general --seed 2026 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere; it uses the sources under ``src/`` next to this
directory and writes only under ``.bench_build/`` there.  Each workload runs
in fresh child processes (``worker.py``): twenty that only set up, to time
set-up, and one that measures.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The human
readable report comes first; the last line of stdout is one JSON object per
workload with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of every run, with its provenance, is written to
``.bench_build/results/``.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import EDGES, TARGETS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# set-up is timed in this many set-up-only children plus the measuring one
SETUP_CHILDREN = 20
# a percentile is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100
# seconds a worker may take beyond its measuring time
WORKER_GRACE_S = 120

LAYERS = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)
# Per-layer times that the JSON result carries.  They are the ones every
# workload spends time in, so none reads 0 on every run of a workload; the
# times of all wrapped functions are in the printed table and the record.
LAYER_TIMES = (
    ("intlinalg.hnf", "self_s"),
    ("intlinalg.kernel_lattice", "self_s"),
    ("polyhedra.cone_from_rays", "total_s"),
    ("polyhedra.generators_of_dual", "self_s"),
    ("polyhedra.hilbert_basis", "total_s"),
    ("polyhedra.tailed_polyhedron", "total_s"),
    ("mpoly.MPoly.content_normalized", "self_s"),
    ("pdivisor.linearity_subdivision", "total_s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn_worker(root, workload, seed, seconds, trace, setup_only=False):
    """Run worker.py in a fresh interpreter and return its result.

    ``setup_s`` is the time from just before the child starts until it is
    ready to solve; both ends read the system-wide monotonic clock.
    ``setup_factor`` scales it to reference host speed, from a probe here
    just before the start and one in the child just after it is ready.
    """
    cmd = [
        sys.executable,
        "-I",
        "-X",
        f"pycache_prefix={root / '.bench_build' / 'pycache'}",
        str(HERE / "worker.py"),
        "--root",
        str(root),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ] + (["--setup-only"] if setup_only else [])
    before = hostspeed.probe(hostspeed.SETUP_REPEATS)
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker did not finish in time")
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - start
    result["setup_factor"] = hostspeed.factor((before + result["ready_probe_s"]) / 2)
    return result


def build(root):
    """Byte-compile the sources once, so that set-up times imports, not compiling."""
    cache = root / ".bench_build" / "pycache"
    subprocess.run(
        [sys.executable, "-I", "-X", f"pycache_prefix={cache}", "-m", "compileall",
         "-q", str(root / "src" / "pdivgen"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def provenance(root, seed):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pdivgen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(root, workload, seed, seconds):
    """Untraced run: end-to-end metrics, in seconds at reference host speed."""
    setups = [
        spawn_worker(root, workload, seed, seconds, 0, setup_only=True)
        for _ in range(SETUP_CHILDREN)
    ]
    run = spawn_worker(root, workload, seed, seconds, 0)
    setups.append(run)
    setup_raw = [s["setup_s"] for s in setups]
    setup_adj = [s["setup_s"] * s["setup_factor"] for s in setups]
    probes = run["round_probe_s"]
    raw = run["samples"]
    adjusted = [t * hostspeed.factor(probes[r]) for t, r in zip(raw, run["rounds"])]
    n = len(raw)
    done = n - run["failed"]
    metrics = {
        "solve_s.p50": (statistics.median(adjusted), "s"),
        "solves_per_s": (done / sum(adjusted), "1/s"),
        "setup_s": (statistics.median(setup_adj), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }
    extra = {}
    notes = {
        "solve_s.p50": f"median of {n} solves; raw {statistics.median(raw):.4g} s",
        "solves_per_s": f"{done} completed; raw {done / sum(raw):.4g} 1/s",
        "setup_s": f"median of {len(setups)} start-ups; "
                   f"raw {statistics.median(setup_raw):.4g} s",
    }
    if n >= P90_MIN_SAMPLES:
        extra["solve_s.p90"] = (statistics.quantiles(adjusted, n=10)[8], "s")
        notes["solve_s.p90"] = f"{n} solves, {n - int(0.9 * n)} beyond it"
    else:
        notes["solve_s.p90"] = f"not reported: {n} solves, needs {P90_MIN_SAMPLES}"
    record = {
        "sample_counts": {"solve_s.p50": n, "solve_s.p90": n if "solve_s.p90" in extra else 0,
                          "setup_s": len(setups)},
        "solve_raw_s": raw, "solve_adjusted_s": adjusted, "rounds": run["rounds"],
        "round_probe_s": probes, "probe_count": run["probe_count"],
        "setup_raw_s": setup_raw, "setup_adjusted_s": setup_adj,
    }
    return dict(run=run, attempted=n, metrics=metrics, extra=extra, notes=notes,
                record=record)


def per_layer(root, workload, seed, seconds):
    """Traced run: per-layer metrics, and the table of every wrapped function.

    Counts come from the first traced unit (all units do the same work);
    times are medians over the traced units and are raw seconds.
    """
    run = spawn_worker(root, workload, seed, seconds, 1)
    snaps = run["snapshots"]
    first = snaps[0]["functions"]

    def median_of(name, field):
        return statistics.median(s["functions"][name][field] for s in snaps)

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (first[name]["calls"], "count")
        metrics[f"{name}.raised"] = (first[name]["raised"], "count")
    metrics["intlinalg.rref.cells"] = (first["intlinalg.rref"]["cells"], "count")
    dual = first["polyhedra.generators_of_dual"]
    metrics["polyhedra.generators_of_dual.rays_per_subset"] = (
        ratio(dual["generators"], dual["subsets"]), "ratio")
    metrics["polyhedra.hilbert_basis.elements"] = (
        first["polyhedra.hilbert_basis"]["elements"], "count")
    for name in ("varieties.in_span", "engine.algebra_membership"):
        metrics[f"{name}.hit_ratio"] = (
            ratio(first[name]["hits"], first[name]["calls"]), "ratio")
    for parent, child in EDGES:
        metrics[f"{parent}.{child.split('.', 1)[1]}.calls"] = (
            snaps[0]["edges"].get(f"{parent}->{child}", 0), "count")
    for name, field in LAYER_TIMES:
        metrics[f"{name}.{field}"] = (median_of(name, field), "s")
    unit = run["unit_size"]
    metrics["trace.overhead_s"] = (
        (statistics.median(run["traced_unit_s"])
         - statistics.median(run["untraced_unit_s"])) / unit, "s")

    def counts(snap):
        return {k: {f: v for f, v in d.items() if not f.endswith("_s")}
                for k, d in snap["functions"].items()}, snap["edges"]

    table = {
        name: {"calls": first[name]["calls"], "raised": first[name]["raised"],
               "total_s": median_of(name, "total_s"),
               "self_s": median_of(name, "self_s")}
        for name in LAYERS
    }
    notes = {"trace.overhead_s": f"per solve, {len(snaps)} traced units of {unit}"}
    record = {"traced_units": len(snaps), "unit_size": unit,
              "counts_repeat": all(counts(s) == counts(snaps[0]) for s in snaps),
              "functions": table, "edges": snaps[0]["edges"],
              "untraced_unit_s": run["untraced_unit_s"],
              "traced_unit_s": run["traced_unit_s"]}
    return dict(run=run, attempted=2 * len(snaps) * unit, metrics=metrics, extra={},
                notes=notes, record=record)


def run_workload(root, workload, seed, seconds, trace):
    measured = (per_layer if trace else end_to_end)(root, workload, seed, seconds)
    run, metrics, notes, record = (measured[k] for k in ("run", "metrics", "notes", "record"))
    attempted, failed = measured["attempted"], run["failed"]
    extra = {"failed_ratio": (ratio(failed, attempted), "1"), **measured["extra"]}
    notes["failed_ratio"] = f"{failed} of {attempted}"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(root, seed)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    shown = {k: v for k, v in {**metrics, **extra}.items()
             if not k.endswith((".calls", ".raised"))}
    for name, (value, unit) in shown.items():
        print(f"  {name:50s} {value:>12.6g} {unit:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in shown:
            print(f"  {name:50s} {'-':>12s} {'':6s} {note}")
    if trace:
        print(f"  calls repeat across traced units: {record['counts_repeat']}")
        print(f"  {'wrapped function':40s} {'calls':>9s} {'total_s':>10s} "
              f"{'self_s':>10s} {'raised':>6s}")
        for name, row in record["functions"].items():
            print(f"  {name:40s} {row['calls']:9d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {row['raised']:6d}")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    print("  " + "  ".join(f"{k} {v}" for k, v in prov.items()))
    results = root / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seconds": seconds, "trace": trace, **prov,
         **result, "extra": {k: v for k, (v, _) in extra.items()}, **record},
        indent=1))
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="pdivgen benchmark", formatter_class=argparse.RawTextHelpFormatter,
        epilog="workloads: " + ", ".join(WORKLOADS))
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pdivgen" / "__init__.py").is_file():
        print(f"error: no pdivgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    try:
        build(ROOT)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            run_workload(ROOT, name, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
