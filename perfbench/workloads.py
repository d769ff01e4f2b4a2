"""The four benchmark workloads: their inputs, one solve each, and output checks.

Everything here runs inside the worker process.  Importing this module
imports nothing from ``pdivgen``; ``load`` does, so that the imports count
toward set-up time.

Workloads:

plane-general  ``cli.main`` on ``jobs/p2.pdiv`` with the general pipeline.
               Dominated by ``engine.reduce_generators`` -> ``varieties.in_span``
               -> ``intlinalg.rref``: the span layer.
cox-s5         ``cli.main --pipeline cox-s5``.  Dominated by brute-force cone
               construction in dimension 5 (``polyhedra.cone_from_rays``,
               ``generators_of_dual``, ``intlinalg.hnf``): the cone layer.
plane-torus    ``cli.main`` on ``jobs/p2.pdiv`` with the torus pipeline.
               Dominated by ``polyhedra.hilbert_basis`` on rank-4 cones; no
               span tests.
random-cones   ``engine.run_general`` on random full-dimensional cones over a
               point, built from the seed.  Same cone and Hilbert layers as
               cox-s5 and plane-torus, but on many tiny inputs, where per-call
               overhead counts more than asymptotics.  One solve is one cone.
"""

import hashlib
import math
import os
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

JOB_WORKLOADS = {
    "plane-general": ("jobs/p2.pdiv", "general"),
    "cox-s5": (None, "cox-s5"),
    "plane-torus": ("jobs/p2.pdiv", "torus"),
}
WORKLOADS = tuple(JOB_WORKLOADS) + ("random-cones",)

# The acceptance-6 generator: per pass, 30 cones in dimension 2 then 20 in
# dimension 3, ray entries in [-5, 5], degenerate draws rejected.  With the
# default seed, pass 0 is exactly the cone list of acceptance criterion 6.
DEFAULT_SEED = 2026
CONES_PER_PASS = 50
DIM2_PER_PASS = 30
ENTRY_RANGE = 5
# Enough passes that a run never cycles back to cones it already solved:
# 5000 cones take well over a minute at the seed commit.
PASSES = 100


class Workload:
    """Inputs of one workload plus its solve and its output check.

    ``solve(i)`` runs solve number ``i`` and returns its output; ``check(i,
    output)`` returns ``None`` when the output is right and a one-line reason
    when it is not.  ``unit_size`` is the number of solves in one traced unit.
    """

    unit_size = 1

    def solve(self, i):
        raise NotImplementedError

    def check(self, i, output):
        raise NotImplementedError


class JobWorkload(Workload):
    """``pdivgen`` on a job, in-process, checked against the stored output."""

    def __init__(self, name, root, scratch):
        from pdivgen import cli

        self.cli = cli
        jobfile, pipeline = JOB_WORKLOADS[name]
        self.out = os.path.join(scratch, f"{name}.txt")
        self.argv = ([str(root / jobfile)] if jobfile else []) + [
            "--pipeline",
            pipeline,
            "--output",
            self.out,
        ]
        self.golden = (
            (GOLDEN / f"{name}.txt").read_text(),
            (GOLDEN / f"{name}.gens.txt").read_text(),
        )

    def solve(self, i):
        # look main up on each call, so that the traced run's wrapper is used
        code = self.cli.main(self.argv)
        with open(self.out) as fh:
            report = fh.read()
        with open(self.out + ".gens.txt") as fh:
            gens = fh.read()
        return code, report, gens

    def check(self, i, output):
        code, report, gens = output
        if code != 0:
            return f"exit code {code}"
        if report != self.golden[0]:
            return "report differs from the stored output"
        if gens != self.golden[1]:
            return "generator sidecar differs from the stored output"
        return None


# ---------------------------------------------------------------------------
# random cones


def _det(rows):
    """Integer determinant by cofactor expansion; rows are 2x2 or 3x3."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def _primitive(vec):
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def generate_cones(seed, passes=PASSES):
    """Ray lists of ``passes * CONES_PER_PASS`` random simplicial cones."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        count = 0
        while count < CONES_PER_PASS:
            dim = 2 if count < DIM2_PER_PASS else 3
            rays = [
                tuple(rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(dim))
                for _ in range(dim)
            ]
            if any(not any(r) for r in rays) or _det(rays) == 0:
                continue
            out.append(tuple(rays))
            count += 1
    return out


def _facet_normals(rays):
    """Inward normals of the simplicial cone spanned by linearly independent rays.

    Normal i is the cofactor row of ray i, signed by the determinant: it
    pairs to zero with every other ray and positively with ray i.
    """
    sign = 1 if _det(rays) > 0 else -1
    normals = []
    for i in range(len(rays)):
        rest = [r for k, r in enumerate(rays) if k != i]
        normals.append(
            tuple(
                sign * (-1) ** (i + j) * _det([r[:j] + r[j + 1 :] for r in rest])
                for j in range(len(rays))
            )
        )
    return normals


def check_hilbert_basis(rays, elements):
    """Structural checks of a claimed Hilbert basis of cone(rays).

    Every element is a nonzero lattice point of the cone, every primitive ray
    is an element, and no element minus another lies in the cone.  These are
    necessary conditions; the stored digest of the default seed covers
    completeness.
    """
    normals = _facet_normals(rays)

    def inside(v):
        return all(sum(a * b for a, b in zip(f, v)) >= 0 for f in normals)

    dim = len(rays)
    if len(set(elements)) != len(elements):
        return "repeated element"
    for e in elements:
        if len(e) != dim or not all(isinstance(x, int) for x in e):
            return f"{e} is not a lattice point of dimension {dim}"
        if not any(e) or not inside(e):
            return f"{e} is not a nonzero point of the cone"
    present = set(elements)
    for r in rays:
        if _primitive(r) not in present:
            return f"primitive ray {_primitive(r)} missing"
    for a in elements:
        for b in elements:
            if a != b and inside(tuple(x - y for x, y in zip(a, b))):
                return f"{a} - {b} lies in the cone"
    return None


def cones_digest(outputs):
    """Digest of the generator lists of a sequence of cones."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


class RandomCones(Workload):
    """Solve i is cone i of the seed's stream, through ``engine.run_general``."""

    unit_size = CONES_PER_PASS

    def __init__(self, seed):
        from pdivgen import engine, pdivisor, polyhedra, varieties

        # functions are looked up on the modules at each call, so that the
        # traced run's wrappers are used
        self.engine = engine
        self.pdivisor = pdivisor
        self.polyhedra = polyhedra
        self.varieties = varieties
        self.cones = generate_cones(seed)
        self.first = {}
        self.digest = None
        if seed == DEFAULT_SEED:
            self.digest = (GOLDEN / "random-cones.sha256").read_text().split()[0]

    def solve(self, i):
        rays = self.cones[i % len(self.cones)]
        dim = len(rays)
        cone = self.polyhedra.cone_from_rays(rays, dim)
        d = self.pdivisor.PDivisor(self.varieties.PointBase(), cone, {})
        result = self.engine.run_general(d.variety, d)
        return tuple(sorted(e.weight for e in result.elements))

    def check(self, i, output):
        k = i % len(self.cones)
        if k in self.first:
            if output != self.first[k]:
                return f"cone {k} gave a different answer when solved again"
            return None
        self.first[k] = output
        problem = check_hilbert_basis(self.cones[k], output)
        if problem:
            return f"cone {k} {self.cones[k]}: {problem}"
        if self.digest and k == CONES_PER_PASS - 1:
            got = cones_digest(self.first.get(j) for j in range(CONES_PER_PASS))
            if got != self.digest:
                return "first pass of the default seed differs from the stored digest"
        return None


def load(name, root, seed, scratch):
    """Import the program and build the named workload's inputs."""
    if name in JOB_WORKLOADS:
        return JobWorkload(name, root, scratch)
    if name == "random-cones":
        return RandomCones(seed)
    raise ValueError(f"unknown workload {name!r}")
