"""Generating sets of the multigraded section algebra of a p-divisor.

The pipeline mirrors the structure of the computation: make the divisor
linear on cells, harvest ray sections, complete the weight lattice,
certify the quotient field, prune dependent elements, and finally either
saturate (when the algebra is toric in disguise) or export a
presentation for an external normalization.
"""

from math import gcd
from operator import sub
from typing import NamedTuple

from .intlinalg import (
    hnf,
    hnf_basis,
    invert_unimodular,
    kernel_lattice,
    lattice_member,
    solve_in_lattice,
)
from .mpoly import MPoly
from .pdivisor import IterationLimitExceeded, PDivisor, linearity_subdivision
from .polyhedra import (
    NonPointedCone,
    cone_from_rays,
    dot,
    hilbert_basis,
    primitive,
    ray_sum,
)
from .varieties import (
    PointBase,
    QDivisor,
    ffe,
    in_span,
    is_basepoint_free,
    sections,
    sections_of_floor,
)


class GradedElement:
    """A section with its weight; equality and hash come from the two."""

    __slots__ = ("section", "weight", "_key")

    def __init__(self, section, weight):
        self.section = section  # FunctionFieldElement
        self.weight = weight
        self._key = None

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (self.section, self.weight) == (other.section, other.weight)

    def __hash__(self):
        return hash((self.section, self.weight))

    def __repr__(self):
        return f"GradedElement(section={self.section!r}, weight={self.weight!r})"

    def key(self):
        # computed on the first call; section and weight are never reassigned
        if self._key is None:
            num = self.section.num.content_normalized()
            self._key = (self.weight, self.section.den, tuple(sorted(num.terms.items())))
        return self._key


class GeneratorSet(NamedTuple):
    elements: tuple
    normalization_status: str  # Normal | SaturatedToric | ExportedForNormalization
    report: tuple = ()
    presentation: str = ""


def _dedupe(elements):
    seen = set()
    out = []
    for e in elements:
        k = e.key()
        if k not in seen:
            seen.add(k)
            out.append(e)
    return out


def _sorted_elements(elements):
    return sorted(elements, key=lambda e: e.key())


# ---------------------------------------------------------------------------
# steps 4-6: ray sections


def find_k_rho(d: PDivisor, rho, max_iterations=64):
    """Smallest k with evaluate(d, k*rho) integral and base point free."""
    for k in range(1, max_iterations + 1):
        div = d.evaluate(tuple(k * x for x in rho))
        if not div.is_integral():
            continue
        if is_basepoint_free(d.variety, div):
            return k, sections(d.variety, div)
    raise IterationLimitExceeded(
        f"no integral base point free multiple of {tuple(rho)} up to {max_iterations}"
    )


def zariski_generators(d: PDivisor, rays, max_iterations=64):
    """Elements eta_j * chi^(k*rho) for every distinct primitive ray.

    Each ray is visited once, in the order ``rays`` first lists it.  D(u)
    is read from the p-divisor itself, so a ray's sections do not depend
    on the cell it comes from, and distinct primitive rays give distinct
    weights k*rho.  Returns (elements, twisted weights): a ray weight is
    twisted when its divisor is not effective but has sections.
    """
    elements = []
    twisted = set()
    for rho in dict.fromkeys(primitive(r) for r in rays):
        k, basis = find_k_rho(d, rho, max_iterations)
        weight = tuple(k * x for x in rho)
        div = d.evaluate(weight)
        if any(c < 0 for c in div.coeffs.values()) and basis:
            twisted.add(weight)
        for eta in basis:
            elements.append(GradedElement(eta, weight))
    return elements, twisted


# ---------------------------------------------------------------------------
# steps 7-11: weight lattice completion


def interior_lattice_basis(cone):
    """Lattice basis of Z^n inside the weight cone, first vector interior.

    Start from a primitive interior point, complete it to a basis of the
    lattice, then push the remaining vectors into the cone by adding the
    smallest multiple of the interior one that satisfies every facet.
    """
    n = cone.dim
    u = primitive(ray_sum(cone))
    if n == 1:
        return [u]
    comp = kernel_lattice([u])
    candidates = [u] + [tuple(r) for r in comp]
    if hnf_basis(candidates) != tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n)
    ):
        # complete u to a basis via the HNF transform of the column vector
        h, tr = hnf([[x] for x in u])
        uinv = invert_unimodular(tr)
        cols = list(zip(*uinv))
        candidates = [u] + [tuple(c) for c in cols[1:]]
    basis = [u]
    for b in candidates[1:]:
        # f.(b + t*u) >= 0 holds for t >= ceil(-f.b / f.u) when f.u > 0, and
        # for no t when f.u == 0 > f.b (a cone that is not full-dimensional)
        t = 0
        for f in cone.facets:
            fb, fu = dot(f, b), dot(f, u)
            if fu:
                t = max(t, -(fb // fu))
            elif fb < 0:
                raise IterationLimitExceeded(
                    f"cannot push basis vector {b} into the weight cone"
                )
        basis.append(tuple(x + t * y for x, y in zip(b, u)))
    return basis


def _pick_section(y, basis, div: QDivisor):
    """Deterministic nonzero section choice; 1 when the divisor is effective."""
    if all(c >= 0 for c in div.floor().coeffs.values()):
        return y.one()
    return min(basis, key=lambda s: GradedElement(s, ()).key())


def weight_lattice_completion(d: PDivisor, elements, max_iterations=64):
    """Add elements until the collected weights generate the full lattice."""
    y = d.variety
    added = []
    weights = [e.weight for e in elements]
    basis = interior_lattice_basis(d.weight_cone)
    for b in basis:
        g = []
        j = 0
        while gcd(*g) != 1:
            j += 1
            if j > max_iterations:
                raise IterationLimitExceeded(
                    f"weight lattice completion stalled along {b}"
                )
            u = tuple(j * x for x in b)
            div = d.evaluate(u)
            sec = sections_of_floor(y, div)
            if not sec:
                continue
            g.append(j)
            h = hnf_basis(weights) if weights else ()
            if h and lattice_member(u, h):
                continue
            s = _pick_section(y, sec, div)
            el = GradedElement(s, u)
            added.append(el)
            weights.append(u)
    return added


# ---------------------------------------------------------------------------
# exponent vectors over the backend atoms


def extended_vector(y, element: GradedElement):
    """Exponents of the section over ``y.atoms`` followed by the weight.

    None unless the section is, up to a scalar, a product of coordinates
    and defining forms with integer exponents.
    """
    vec, rest = y.exponents(element.section)
    if not rest.is_term():
        return None
    return tuple(vec) + tuple(element.weight)


# ---------------------------------------------------------------------------
# step 12: quotient field completion


def _interior_ray(cone):
    """Lexicographically smallest interior Hilbert basis element."""
    try:
        hb = hilbert_basis(cone)
    except NonPointedCone:
        hb = ()
    interior = [h for h in hb if cone.contains_interior(h)]
    if interior:
        return min(interior)
    return primitive(ray_sum(cone))


def quotient_field_complete(d: PDivisor, elements, pool=(), max_iterations=64):
    """Ensure the function field generators are ratios of collected elements.

    Returns the added elements, after which each backend coordinate
    ratio is an integer combination of factorable elements.
    """
    y = d.variety
    gens = y.function_field_generators()
    if not gens:
        return []
    kept = list(elements)
    kept_keys = {x.key() for x in kept}
    reserve = [e for e in _dedupe(pool) if e.key() not in kept_keys]
    rho = _interior_ray(d.weight_cone)
    natoms = len(y.atoms)
    rank = d.weight_cone.dim
    added = []
    j = 1

    def factorable(pool):
        usable, vectors = [], []
        for e in pool:
            v = extended_vector(y, e)
            if v is not None:
                usable.append(e)
                vectors.append(v)
        return usable, vectors

    def targets():
        for i_num, i_den in gens:
            t = [0] * natoms
            t[i_num] += 1
            t[i_den] -= 1
            yield (i_num, i_den), tuple(t) + tuple([0] * rank)

    while True:
        _, vectors = factorable(kept)
        missing = next(
            (pair for pair, target in targets() if solve_in_lattice(target, vectors) is None),
            None,
        )
        if missing is None:
            return added
        # try again with the reserve pool and keep only what the witness uses
        usable2, vectors2 = factorable(kept + reserve)
        grabbed = set()
        feasible = True
        for pair, target in targets():
            combo = solve_in_lattice(target, vectors2)
            if combo is None:
                feasible = False
                break
            for e, c in zip(usable2, combo):
                if c:
                    grabbed.add(e.key())
        if feasible and grabbed:
            kept_keys = {x.key() for x in kept}
            moved = [e for e in reserve if e.key() in grabbed and e.key() not in kept_keys]
            if moved:
                kept.extend(moved)
                added.extend(moved)
                reserve = [e for e in reserve if e.key() not in grabbed]
                continue
        if j > max_iterations:
            raise IterationLimitExceeded(
                f"no quotient field witness for coordinate ratio {missing}"
            )
        u = tuple(j * x for x in rho)
        div = d.evaluate(u)
        kept_keys = {x.key() for x in kept}
        for s in sections_of_floor(y, div):
            el = GradedElement(s, u)
            if el.key() not in kept_keys:
                kept.append(el)
                added.append(el)
        j += 1


# ---------------------------------------------------------------------------
# pruning


def _facet_values(values, facets, v):
    """The values of the facet normals on v, cached in ``values``."""
    vals = values.get(v)
    if vals is None:
        vals = values[v] = tuple([dot(f, v) for f in facets])
    return vals


def _nn_decompositions(u, weights, limit=20000, cone=None, values=None):
    """All multisets of weights with nonnegative integer sum u.

    Weights live in a pointed cone, so the search tree is finite; a hard
    node limit guards degenerate inputs.  A remainder is kept while it
    lies in the pruning cone, which is the cone of the weights unless the
    caller passes one that contains them.  Such a cone prunes only
    subtrees without a decomposition, so the search finds the same
    decompositions in the same order and may visit more nodes; when it
    stops at the node limit it is run again on the weights' own cone.
    ``values`` caches the facet values of each weight on ``cone``, so a
    caller can share it across searches on one cone.
    """
    u = tuple(u)
    weights = tuple(sorted(set(weights)))
    if not weights:
        return [()] if not any(u) else []
    if any(len(w) != len(u) for w in weights):
        raise ValueError(f"weights of a width other than that of {u}")
    own = cone is None
    if own:
        cone, values = cone_from_rays(weights, len(u)), {}
    elif values is None:
        values = {}
    facets = cone.facets
    wvals = [_facet_values(values, facets, w) for w in weights]
    out = []
    # preorder depth-first search; children are pushed in reverse so they
    # pop in weight order, and the search stops after `limit` visited nodes.
    # A child's facet values are its parent's less the weight's.
    stack = [(u, _facet_values(values, facets, u), 0, ())]
    for _ in range(limit):
        if not stack:
            return out
        remaining, vals, start, chosen = stack.pop()
        if not any(remaining):
            out.append(chosen)
            continue
        for i in range(len(weights) - 1, start - 1, -1):
            nvals = tuple(map(sub, vals, wvals[i]))
            if min(nvals, default=0) >= 0:
                w = weights[i]
                stack.append((tuple(map(sub, remaining, w)), nvals, i, chosen + (w,)))
    if stack and not own:
        # cut off on the wider cone: the weights' own cone visits fewer nodes
        return _nn_decompositions(u, weights, limit)
    return out


def algebra_membership(y, element: GradedElement, gens, product_cap=600, cone=None, values=None):
    """Whether the element's section is spanned by generator products.

    ``cone`` and ``values`` are passed to ``_nn_decompositions``.
    """
    u = element.weight
    by_weight = {}
    for g in gens:
        by_weight.setdefault(g.weight, []).append(g)
    decomps = _nn_decompositions(u, list(by_weight), cone=cone, values=values)
    products = []
    one = ffe(MPoly.constant(y.nvars, 1))
    for parts in decomps:
        partials = [one]
        for w in parts:
            partials = [p * g.section for p in partials for g in by_weight[w]]
            if len(partials) > product_cap:
                partials = partials[:product_cap]
        products.extend(partials)
        if len(products) > 4 * product_cap:
            break
    if not products:
        return False
    return in_span(y, element.section, products)


def reduce_generators(y, elements):
    """Sound pruning: drop an element when its section is provably in the
    subalgebra generated by the remaining ones."""
    kept = _sorted_elements(_dedupe(elements))
    # try to remove the "largest" elements first
    order = sorted(
        kept, key=lambda e: (sum(abs(x) for x in e.weight), e.key()), reverse=True
    )
    # one pruning cone for every search: each weight set searched is part
    # of the pool, so the cone of the pool's weights contains it
    cone = cone_from_rays([e.weight for e in kept], len(kept[0].weight)) if kept else None
    values = {}
    for e in order:
        rest = [g for g in kept if g.key() != e.key()]
        if algebra_membership(y, e, rest, cone=cone, values=values):
            kept = rest
    return _sorted_elements(kept)


# ---------------------------------------------------------------------------
# step 13: saturation or export


def _saturate_semigroup(vectors):
    """Hilbert basis of cone(vectors) in the lattice generated by them.

    Returns saturated vectors expressed back in the ambient coordinates.
    """
    span = hnf_basis(vectors)
    coords = [solve_in_lattice(v, span) for v in vectors]
    r = len(span)
    cone = cone_from_rays(coords, r)
    hb = []
    for h in hilbert_basis(cone):
        hb.append(
            tuple(
                sum(h[i] * span[i][j] for i in range(r)) for j in range(len(span[0]))
            )
        )
    return sorted(hb)


def _vector_to_element(y, vec):
    """Rebuild a graded element from an extended exponent vector."""
    n = len(y.atoms)
    return GradedElement(y.from_exponents(vec[:n]), tuple(vec[n:]))


def normalize_or_export(y, elements):
    """Saturate toric-like collections exactly; export everything else."""
    elements = _sorted_elements(_dedupe(elements))
    if isinstance(y, PointBase):
        weights = [e.weight for e in elements]
        sat = _saturate_semigroup(weights)
        out = [GradedElement(y.one(), tuple(w)) for w in sat]
        status = "Normal" if sorted(weights) == sat else "SaturatedToric"
        return GeneratorSet(tuple(_sorted_elements(out)), status)
    vectors = [extended_vector(y, e) for e in elements]
    usable = [v for v in vectors if v is not None]
    # relations live in the left kernel: integer combinations of the
    # vectors themselves
    relations = kernel_lattice(list(zip(*usable))) if usable else ()
    if len(usable) == len(vectors) and not relations:
        sat = _saturate_semigroup(vectors)
        if sorted(set(vectors)) == sat:
            return GeneratorSet(tuple(elements), "Normal")
        out = [_vector_to_element(y, v) for v in sat]
        return GeneratorSet(tuple(_sorted_elements(out)), "SaturatedToric")
    text = _presentation(y, elements, vectors, relations)
    return GeneratorSet(tuple(elements), "ExportedForNormalization", presentation=text)


def format_section(section, names):
    """'section (numerator) / (factored denominator)' for reports."""
    den = " * ".join(f"{l}^{k}" for l, k in section.den) or "1"
    return f"section ({section.num.format(names)}) / ({den})"


def _presentation(y, elements, extended_vectors, relations):
    """Plain-text presentation for an external normalization system.

    ``extended_vectors`` holds ``extended_vector(y, e)`` of each element,
    and ``relations`` the left kernel of the vectors that are not None.
    """
    lines = ["# presentation of the collected generator algebra"]
    lines.append(f"# {len(elements)} generators; variables g0..g{len(elements) - 1}")
    for i, e in enumerate(elements):
        lines.append(f"g{i} : weight {e.weight} {format_section(e.section, y.coordinates)}")
    usable = [i for i, v in enumerate(extended_vectors) if v is not None]
    if usable:
        lines.append("# toric relations among factorable generators")
        for row in relations:
            pos = " * ".join(
                f"g{usable[i]}^{c}" for i, c in enumerate(row) if c > 0
            )
            neg = " * ".join(
                f"g{usable[i]}^{-c}" for i, c in enumerate(row) if c < 0
            )
            lines.append(f"relation: {pos or '1'} = {neg or '1'}  (up to scalar)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# full pipeline


def run_general(y, d: PDivisor, max_iterations=64) -> GeneratorSet:
    domain = linearity_subdivision(d)
    cell_rays = [r for cell in domain.cells for r in cell.rays]
    pool, twisted = zariski_generators(d, cell_rays, max_iterations)
    pool.extend(weight_lattice_completion(d, pool, max_iterations))
    raw_count = len(pool)
    pruned = reduce_generators(y, pool)
    readded = quotient_field_complete(d, pruned, pool, max_iterations)
    final = _sorted_elements(pruned + readded)
    result = normalize_or_export(y, final)
    report = (
        f"linearity cells: {len(domain.cells)}",
        f"subdivision rays: {len(domain.rays())}",
        f"raw pool size: {raw_count}",
        f"pruned size: {len(pruned)}",
        f"re-added for quotient field: {len(readded)}",
        f"normalization status: {result.normalization_status}",
    ) + tuple(f"twist at weight {w}" for w in sorted(twisted))
    return result._replace(report=report)
