"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _bindings():
    """Every attribute of every pdivgen module and of its classes, by identity."""
    import pdivgen.cli  # noqa: F401  (loads every module)

    out = {}
    for key, module in sorted(sys.modules.items()):
        if not key.startswith("pdivgen"):
            continue
        for attr, value in vars(module).items():
            out[(key, attr)] = value
            if isinstance(value, type) and value.__module__ == key:
                for name, member in vars(value).items():
                    out[(key, attr, name)] = member
    return out


def test_tracer_restores_every_original(tmp_path):
    before = _bindings()
    workload = workloads.load("plane-torus", ROOT, 1, str(tmp_path))
    tracer = Tracer()
    with tracer:
        patched = list(tracer.patches)
        output = workload.solve(0)
    assert workload.check(0, output) is None
    assert len({f"{m}.{q}" for m, q in TARGETS}) == len(tracer.stats) == len(TARGETS)
    # from-imports are patched too, not only the defining modules
    namespaces = {getattr(ns, "__name__", "") for ns, _, _ in patched}
    assert {"pdivgen.engine", "pdivgen.coxs5", "pdivgen.torus", "pdivgen.cli"} <= namespaces
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    for namespace, attr, original in patched:
        assert getattr(namespace, attr) is original


def test_tracer_computes_self_time_from_child_spans(tmp_path):
    workload = workloads.load("plane-torus", ROOT, 1, str(tmp_path))
    with Tracer() as tracer:
        workload.solve(0)
    funcs = tracer.snapshot()["functions"]
    main = funcs["cli.main"]
    assert main["calls"] == 1
    assert 0 <= main["self_s"] < main["total_s"]
    assert funcs["torus.run_torus"]["total_s"] <= main["total_s"]
    assert funcs["polyhedra.hilbert_basis"]["elements"] > 0


def test_golden_outputs_hold_the_pinned_counts():
    general = (workloads.GOLDEN / "plane-general.txt").read_text()
    assert "raw pool size: 77" in general and "pruned size: 75" in general
    assert "normalization status: ExportedForNormalization" in general
    torus = (workloads.GOLDEN / "plane-torus.txt").read_text()
    assert "total generators: 130" in torus
    cox = (workloads.GOLDEN / "cox-s5.txt").read_text()
    for line in ("76 subcones", "20 rays", "10 generators",
                 "minors certificate: pass", "normalization: Normal, 0 elements added"):
        assert line in cox
    assert len((workloads.GOLDEN / "plane-torus.gens.txt").read_text().splitlines()) == 130


def test_seed_changes_only_random_cone_inputs(tmp_path):
    for name in workloads.JOB_WORKLOADS:
        a = workloads.load(name, ROOT, 1, str(tmp_path))
        b = workloads.load(name, ROOT, 2, str(tmp_path))
        assert (a.argv, a.golden) == (b.argv, b.golden)
    assert workloads.generate_cones(1, 2) == workloads.generate_cones(1, 2)
    assert workloads.generate_cones(1, 2) != workloads.generate_cones(2, 2)
    cones = workloads.generate_cones(7, 1)
    assert len(cones) == workloads.CONES_PER_PASS
    assert [len(c) for c in cones] == [2] * 30 + [3] * 20


def test_hilbert_basis_checks_catch_wrong_answers():
    rays = ((1, 0), (1, 3))
    good = ((1, 0), (1, 1), (1, 2), (1, 3))
    assert workloads.check_hilbert_basis(rays, good) is None
    assert "missing" in workloads.check_hilbert_basis(rays, good[:-1])
    assert "lies in the cone" in workloads.check_hilbert_basis(rays, good + ((2, 1),))
    assert "not a nonzero point" in workloads.check_hilbert_basis(rays, good + ((0, 1),))
    rays3 = ((2, 0, 1), (0, -1, 1), (1, 1, 0))
    for i, normal in enumerate(workloads._facet_normals(rays3)):
        pairings = [sum(a * b for a, b in zip(normal, r)) for r in rays3]
        assert pairings[i] > 0 and all(p == 0 for j, p in enumerate(pairings) if j != i)


def _checkout(tmp_path, with_sources=True):
    """A copy of what the benchmark needs, as the driver would check it out."""
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "jobs", dest / "jobs")
    return dest


def _bench(checkout, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=300)


def test_corrupted_golden_output_raises_failed_ratio(tmp_path):
    checkout = _checkout(tmp_path)
    golden = checkout / "perfbench" / "golden" / "plane-torus.gens.txt"
    golden.write_text(golden.read_text().replace("(-2, 2)", "(-2, 3)", 1))
    proc = _bench(checkout, "--workload", "plane-torus", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "failed_ratio" in proc.stdout and "sidecar differs" in proc.stdout


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    checkout = _checkout(tmp_path, with_sources=False)
    proc = _bench(checkout, "--workload", "plane-general", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reported_metrics_match_benchmark_json_and_counts_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(ROOT, "random-cones", 3, 0.2)["metrics"]
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    first = run.per_layer(ROOT, "random-cones", 3, 0.1)
    second = run.per_layer(ROOT, "random-cones", 3, 0.1)
    layers = first["metrics"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert first["record"]["counts_repeat"] and second["record"]["counts_repeat"]
    exact = [k for k, (_, unit) in layers.items() if unit != "s"]
    assert any(k.endswith(".hit_ratio") for k in exact)
    assert {k: layers[k] for k in exact} == {k: second["metrics"][k] for k in exact}
    for m in spec["end_to_end"] + spec["per_layer"]:
        reported = e2e.get(m["name"]) or layers[m["name"]]
        assert reported[1] == m["unit"], m["name"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_solves_correctly_once(name, tmp_path):
    workload = workloads.load(name, ROOT, workloads.DEFAULT_SEED, str(tmp_path))
    for i in range(workload.unit_size):
        assert workload.check(i, workload.solve(i)) is None
