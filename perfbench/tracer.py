"""Outside-in tracing: time calls into pdivgen's public functions from outside.

``Tracer.install`` replaces each target function by a wrapper in every
``pdivgen`` module namespace that binds it, because the from-imports in
``engine``, ``coxs5``, ``torus`` and ``cli`` hold their own references and
patching only the defining module would miss their calls.  Methods are
replaced on their class.  ``Tracer.remove`` puts every original back.

Each wrapped call is a span with a parent, the innermost wrapped call it
runs under.  A span's self time is its duration minus the durations of its
direct child spans.  Spans are aggregated as they close: per function
(calls, total, self, raised) and per parent -> child edge (calls), so a
traced solve with hundreds of thousands of calls keeps a few hundred numbers
in memory.

Hot leaf helpers (``intlinalg.primitive``, ``polyhedra.dot``,
``MPoly.__init__``) are deliberately left unwrapped: they run millions of
times per solve, a wrapper would multiply their cost, and their time shows up
as self time of the wrapped function that calls them.

This is meant to be replaced by an in-program trace (ROADMAP item 1).
"""

import importlib
import sys
from math import comb
from time import perf_counter

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = (
    ("intlinalg", "rref"),
    ("intlinalg", "hnf"),
    ("intlinalg", "kernel_lattice"),
    ("polyhedra", "cone_from_rays"),
    ("polyhedra", "generators_of_dual"),
    ("polyhedra", "hilbert_basis"),
    ("polyhedra", "tailed_polyhedron"),
    ("polyhedra", "hyperplane_subdivision"),
    ("polyhedra", "unimodular_triangulation"),
    ("mpoly", "MPoly.content_normalized"),
    ("mpoly", "MPoly.__mul__"),
    ("varieties", "in_span"),
    ("varieties", "numerator_vectors"),
    ("varieties", "sections"),
    ("varieties", "is_basepoint_free"),
    ("pdivisor", "linearity_subdivision"),
    ("pdivisor", "PDivisor.evaluate"),
    ("pdivisor", "restrict"),
    ("engine", "run_general"),
    ("engine", "reduce_generators"),
    ("engine", "algebra_membership"),
    ("engine", "GradedElement.key"),
    ("engine", "zariski_generators"),
    ("engine", "weight_lattice_completion"),
    ("engine", "quotient_field_complete"),
    ("engine", "normalize_or_export"),
    ("torus", "run_torus"),
    ("torus", "invariantize_cell"),
    ("torus", "upgrade"),
    ("torus", "downgrade_generators"),
    ("coxs5", "run_cox"),
    ("coxs5", "build_cox_pdivisor"),
    ("coxs5", "reduce_rays"),
    ("coxs5", "presentation_text"),
    ("coxs5", "minors_certificate"),
    ("cli", "main"),
    ("cli", "parse_job"),
    ("cli", "build_pdivisor"),
    ("cli", "run_job"),
)

# parent -> child edges reported as their own counts
EDGES = (("engine.algebra_membership", "polyhedra.cone_from_rays"),)


def _rref_cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _dual_subsets(args, result):
    vectors, dim = args[0], args[1]
    distinct = {tuple(v) for v in vectors if any(v)}
    return comb(len(distinct), dim - 1) if dim >= 1 else 0


# Extra per-call counters: span name -> ((counter, value of one call), ...).
COUNTERS = {
    "intlinalg.rref": (("cells", _rref_cells),),
    "polyhedra.generators_of_dual": (
        ("generators", lambda args, result: len(result)),
        ("subsets", _dual_subsets),
    ),
    "polyhedra.hilbert_basis": (("elements", lambda args, result: len(result)),),
    "varieties.in_span": (("hits", lambda args, result: int(bool(result))),),
    "engine.algebra_membership": (("hits", lambda args, result: int(bool(result))),),
}


class Stat:
    __slots__ = ("calls", "total", "self", "raised", "active", "counters")

    def __init__(self, counter_names):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.raised = 0
        self.active = 0
        self.counters = dict.fromkeys(counter_names, 0)


class Tracer:
    """Wraps the targets while installed and aggregates their spans."""

    def __init__(self):
        self.stats = {}
        self.edges = {}
        self.stack = []  # open spans: [name, time covered by child spans]
        self.patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, ())
        self.stats[name] = Stat(c for c, _ in counters)
        stats = self.stats
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            s = stats[name]
            s.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.raised += 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                s.active -= 1
                s.calls += 1
                s.self += duration - frame[1]
                if not s.active:  # recursion: count the outermost span only
                    s.total += duration
                if parent is not None:
                    parent[1] += duration
                    edge = (parent[0], name)
                    tracer.edges[edge] = tracer.edges.get(edge, 0) + 1
            for counter, value in counters:
                s.counters[counter] += value(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        for module_name, _ in TARGETS:
            importlib.import_module(f"pdivgen.{module_name}")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "pdivgen" or key.startswith("pdivgen."))
        ]
        for module_name, qualname in TARGETS:
            module = sys.modules[f"pdivgen.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, namespace, attr, original, wrapper):
        self.patches.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def remove(self):
        while self.patches:
            namespace, attr, original = self.patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def snapshot(self):
        """Per-function and per-edge numbers of the spans closed so far."""
        funcs = {
            name: {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self,
                "raised": s.raised,
                **s.counters,
            }
            for name, s in self.stats.items()
        }
        edges = {f"{p}->{c}": n for (p, c), n in sorted(self.edges.items())}
        return {"functions": funcs, "edges": edges}
