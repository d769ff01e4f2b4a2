"""Generating sets of the multigraded section algebra of a p-divisor.

``run_general`` runs the steps of the computation, each a function that
returns its data: ``linearity_subdivision`` makes the divisor linear on
cells, ``harvest_rays`` finds each ray's base point free multiple,
``zariski_generators`` builds the ray sections, and ``complete_generators``
completes the weight lattice, prunes dependent elements, completes the
quotient field and normalizes or exports.  ``coxs5.run_cox`` runs the same
steps.  The weight cone of the p-divisor is the one cone a solve needs:
pruning searches in it, and on a point base, where saturation runs, the
generators are its Hilbert basis.  On any other base an independent
factorable set is normal, and anything else is exported as a presentation
for an external normalization.
"""

from itertools import islice
from math import gcd
from typing import NamedTuple

from .intlinalg import (
    hnf,
    hnf_basis,
    identity,
    invert_unimodular,
    kernel_lattice,
    solve_in_lattice,
)
from .pdivisor import IterationLimitExceeded, PDivisor, find_k_rho, linearity_subdivision
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
    common_denominator,
    in_span,
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
    # Normal | SaturatedToric | ExportedForNormalization; the general route
    # saturates only on a point base, the torus route always
    normalization_status: str
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


def harvest_rays(d: PDivisor, rays, max_iterations=64):
    """Each distinct primitive ray, in the order ``rays`` first lists it,
    mapped to (k, D(rho)) from ``find_k_rho``: D is read from the p-divisor
    itself, not from the cell a ray comes from."""
    rays = dict.fromkeys(primitive(r) for r in rays)
    return {rho: find_k_rho(d, rho, max_iterations) for rho in rays}


def zariski_generators(d: PDivisor, harvest):
    """Elements eta_j * chi^(k*rho) for every ray of the harvest.

    Distinct primitive rays give distinct weights k*rho.  Returns
    (elements, twisted weights): a ray weight is twisted when its divisor
    is not effective but has sections.
    """
    elements = []
    twisted = set()
    for rho, (k, base) in harvest.items():
        weight = tuple(k * x for x in rho)
        div = base * k
        basis = sections(d.variety, div)
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
    u = primitive(ray_sum(cone))
    if not any(u):
        raise NonPointedCone(
            f"the rays {cone.rays} of the weight cone sum to zero, so it has no interior ray"
        )
    if cone.dim == 1:
        return [u]
    # the saturated basis K of u-perp has maximal minors +-u: |det([u] + K)| = |u|^2
    if sum(x * x for x in u) == 1:
        candidates = [u] + [tuple(r) for r in kernel_lattice([u])]
    else:
        # complete u to a basis via the HNF transform of the column vector
        _, tr = hnf([[x] for x in u])
        cols = list(zip(*invert_unimodular(tr)))
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


def weight_lattice_completion(d: PDivisor, elements, harvest, max_iterations=64):
    """Add elements until the collected weights generate the full lattice.

    D(j*b) = j*D(b), with D(b) read from the ray ``harvest`` when b is a ray.
    """
    y = d.variety
    weights = [e.weight for e in elements]
    # the Hermite basis is the identity when the weights generate Z^n
    if hnf_basis(weights) == identity(d.weight_cone.dim):
        return []
    added = []
    for b in interior_lattice_basis(d.weight_cone):
        base = harvest[b][1] if b in harvest else d.evaluate(b)
        g = 0  # gcd of the multiples j with sections
        j = 0
        while g != 1:
            j += 1
            if j > max_iterations:
                raise IterationLimitExceeded(
                    f"weight lattice completion stalled along {b}"
                )
            u = tuple(j * x for x in b)
            div = base * j
            sec = sections_of_floor(y, div)
            if not sec:
                continue
            g = gcd(g, j)
            if solve_in_lattice(u, weights) is not None:
                continue
            added.append(GradedElement(_pick_section(y, sec, div), u))
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


def _extended_vectors(y, elements, cache):
    """Each element's ``extended_vector``, once per key (equal keys, equal vectors)."""
    out = []
    for e in elements:
        k = e.key()
        if k not in cache:
            cache[k] = extended_vector(y, e)
        out.append(cache[k])
    return out


def _factorable(y, elements, cache):
    """The elements that have an extended vector, and those vectors."""
    vectors = _extended_vectors(y, elements, cache)
    pairs = [(e, v) for e, v in zip(elements, vectors) if v is not None]
    return [e for e, _ in pairs], [v for _, v in pairs]


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


def quotient_field_complete(d: PDivisor, elements, pool=(), max_iterations=64, vectors=None):
    """Ensure the function field generators are ratios of collected elements.

    Returns the added elements, after which each backend coordinate
    ratio is an integer combination of factorable elements.  A missing
    ratio is first sought in the reserve ``pool``, then along an interior
    ray.  ``vectors`` caches extended vectors by key, as in ``normalize_or_export``.
    """
    y = d.variety
    zeros = (0,) * d.weight_cone.dim
    targets = []
    for i_num, i_den in y.function_field_generators():
        t = [0] * len(y.atoms)
        t[i_num] += 1
        t[i_den] -= 1
        targets.append(((i_num, i_den), tuple(t) + zeros))
    if not targets:
        return []
    vectors = {} if vectors is None else vectors
    elements = list(elements)
    keys = {e.key() for e in elements}
    reserve = [e for e in _dedupe(pool) if e.key() not in keys]
    added = []
    rho = None
    j = 1
    while True:
        kept = _factorable(y, elements + added, vectors)[1]
        missing = next(
            (pair for pair, t in targets if solve_in_lattice(t, kept) is None), None
        )
        if missing is None:
            return added
        usable, every = _factorable(y, elements + added + reserve, vectors)
        combos = [solve_in_lattice(t, every) for _, t in targets]
        if None not in combos:
            # keep what the witness uses; the missing ratio's combination
            # uses a reserve element whose key is not kept, since equal keys
            # give equal vectors and the kept elements alone do not solve it
            grabbed = {e.key() for combo in combos for e, c in zip(usable, combo) if c}
            fresh = [e for e in reserve if e.key() in grabbed]
            reserve = [e for e in reserve if e.key() not in grabbed]
        else:
            if j > max_iterations:
                raise IterationLimitExceeded(
                    f"no quotient field witness for coordinate ratio {missing}"
                )
            if rho is None:
                rho = _interior_ray(d.weight_cone)
            u = tuple(j * x for x in rho)
            fresh = [GradedElement(s, u) for s in sections_of_floor(y, d.evaluate(u))]
            j += 1
        for e in fresh:
            if e.key() not in keys:
                keys.add(e.key())
                added.append(e)


# ---------------------------------------------------------------------------
# pruning


def _facet_values(values, facets, v):
    """The values of the facet normals on v, cached in ``values``."""
    vals = values.get(v)
    if vals is None:
        vals = values[v] = tuple([dot(f, v) for f in facets])
    return vals


def _pack(vals, width):
    """The facet values as one integer, a field of ``width`` bits per facet."""
    packed = 0
    for v in reversed(vals):
        packed = packed << width | v
    return packed


# nodes a decomposition search visits before it stops
NODE_LIMIT = 20000


def _search(roots, weights, limit, cone, values, first=False):
    """Each root's decompositions over the sorted distinct weights, and
    whether its search ended before the node limit, as a list of pairs.

    A remainder is kept while it lies in the pruning ``cone``, a pointed
    cone that contains the weights; ``values`` caches facet values on it.
    A search emits decompositions in lexicographic order of their weight
    sequences, and with ``first`` it ends at the first one.

    A remainder's facet values lie between 0 and its root's, and a
    weight's are at least 0, so each tuple packs into one integer with a
    field per facet wide enough for all of them, plus a guard bit on top;
    the weights are packed once for every root.  With every guard bit G
    set, subtracting a weight borrows from no neighbouring field, and a
    field's guard survives exactly when the remainder stays on that
    facet's side: a child is kept exactly when ``(p | G) - q`` keeps all
    of G, and its packed values are then p - q.  A node carries no
    remainder: on a pointed cone only 0 has all facet values 0, so p = 0
    marks a decomposition."""
    facets = cone.facets
    wvals = [_facet_values(values, facets, w) for w in weights]
    rvals = [_facet_values(values, facets, u) for u in roots]
    flat = [x for v in wvals for x in v]
    if min(flat, default=0) < 0:
        raise ValueError("a weight lies outside the pruning cone")
    bits = max(flat + [x for v in rvals for x in v], default=0).bit_length()
    width = bits + 1
    guard = _pack([1 << bits] * len(facets), width)
    packed = [_pack(v, width) for v in wvals]
    found = []
    for root in rvals:
        out = []
        # a root outside the cone has every remainder below it outside too;
        # otherwise a preorder depth-first search, whose children are pushed
        # in reverse so they pop in weight order, stops after `limit` nodes
        stack = [(_pack(root, width), 0, ())] if min(root, default=0) >= 0 else []
        for _ in range(limit):
            if not stack:
                break
            p, start, chosen = stack.pop()
            if not p:
                out.append(chosen)
                if first:
                    stack.clear()
                    break
                continue
            p |= guard
            for i in range(len(weights) - 1, start - 1, -1):
                left = p - packed[i]
                if left & guard == guard:
                    stack.append((left ^ guard, i, chosen + (weights[i],)))
        found.append((out, not stack))
    return found


def _nn_decompositions(u, weights, limit=NODE_LIMIT, cone=None, values=None, first=False):
    """All multisets of weights with nonnegative integer sum u, or with
    ``first`` the first of them only.

    Weights live in a pointed cone, so the search tree is finite; a hard
    node limit guards degenerate inputs, and weights whose cone is not
    pointed are refused.  A remainder is kept while it lies in the pruning
    cone, which is the cone of the weights unless the caller passes a
    pointed one that contains them.  Such a cone prunes only
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
    own = cone is None or not cone.is_pointed()
    if own:
        cone, values = cone_from_rays(weights, len(u)), {}
        if not cone.is_pointed():
            raise NonPointedCone(f"the weights {weights} span a cone that is not pointed")
    values = {} if values is None else values
    [(out, complete)] = _search([u], weights, limit, cone, values, first)
    if not complete and not own:
        # cut off on the wider cone: the weights' own cone visits fewer nodes
        return _nn_decompositions(u, weights, limit, first=first)
    return out


# products kept per decomposition; the search stops past four times as many
PRODUCT_CAP = 600


def _weight_denominators(gens):
    """The common denominator of the generators of each weight."""
    by_weight = {}
    for g in gens:
        by_weight.setdefault(g.weight, []).append(g.section)
    return {w: common_denominator(sections) for w, sections in by_weight.items()}


def _times(level, gens):
    """The first PRODUCT_CAP products p * g, p from ``level`` and g from
    ``gens``, in that order, each built when it is read."""
    return islice((p * g.section for p in level for g in gens), PRODUCT_CAP)


def _products(one, by_weight, decomps):
    """The products of each decomposition, in order, each built when it
    is read; no more decompositions once past 4 * PRODUCT_CAP products."""
    built = 0
    for parts in decomps:
        level = (one,)
        for w in parts:
            level = _times(level, by_weight[w])
        for p in level:
            built += 1
            yield p
        if built > 4 * PRODUCT_CAP:
            return


def algebra_membership(
    y, element: GradedElement, gens, cone=None, values=None, decomps=None, dens=None
):
    """Whether the element's section is spanned by generator products.

    ``cone`` and ``values`` are passed to ``_nn_decompositions``, unless
    the caller has the decompositions of the weight over the generators'
    weights in ``decomps``.  The span test reads the products one at a
    time and stops at the first that completes the span, so a later
    decomposition is never multiplied out.  Its denominator is fixed
    before any product is built: the element's own, and for each
    decomposition the sum over its weights of the largest generator
    denominator of that weight, read from ``dens`` (weight -> {label:
    exponent}, at least the generators' maxima) when the caller has it.
    """
    u = element.weight
    by_weight = {}
    for g in gens:
        by_weight.setdefault(g.weight, []).append(g)
    if decomps is None:
        decomps = _nn_decompositions(u, list(by_weight), cone=cone, values=values)
    if not decomps:
        return False
    if dens is None:
        dens = _weight_denominators(gens)
    common = dict(element.section.den)
    for parts in decomps:
        total = {}
        for w in parts:
            for l, k in dens[w].items():
                total[l] = total.get(l, 0) + k
        for l, k in total.items():
            if k > common.get(l, 0):
                common[l] = k
    return in_span(y, element.section, _products(y.one(), by_weight, decomps), common)


def reduce_generators(y, elements, cone):
    """Sound pruning: drop an element when its section is provably in the
    subalgebra generated by the remaining ones.

    ``cone`` contains every weight of the pool, as the weight cone of a
    solve does, and prunes every search; it finds the decompositions a
    search on the cone of the searched weights finds, in the same order.
    Each distinct weight is searched once, over all the pool's weights,
    and each test keeps the decompositions whose weights all lie in its
    rest.  The search emits them in lexicographic order of their weight
    sequences, and a test's own search tree is a subtree of the pooled
    one, so a test gets the decompositions its own search would give, in
    the same order.  When the pooled search stops at its node limit, the
    test runs its own search, which visits fewer nodes.  The largest
    denominator of each weight is read once, over the whole pool: a
    larger common denominator leaves every span test's answer as it is.
    A cone that is not pointed is refused, since a weight has endless
    decompositions along its lineality space.
    """
    if not cone.is_pointed():
        raise NonPointedCone(
            f"the weight cone with rays {cone.rays} is not pointed; pruning needs one"
        )
    kept = _sorted_elements(_dedupe(elements))
    if not kept:
        return kept
    # try to remove the "largest" elements first
    order = sorted(
        kept, key=lambda e: (sum(abs(x) for x in e.weight), e.key()), reverse=True
    )
    values = {}
    weights = tuple(sorted({e.weight for e in kept}))
    pooled = dict(zip(weights, _search(weights, weights, NODE_LIMIT, cone, values)))
    dens = _weight_denominators(kept)
    for e in order:
        # kept holds one object per key, e among them
        rest = [g for g in kept if g is not e]
        out, complete = pooled[e.weight]
        decomps = None
        if complete:
            present = {g.weight for g in rest}
            decomps = [parts for parts in out if present.issuperset(parts)]
        if algebra_membership(y, e, rest, cone=cone, values=values, decomps=decomps, dens=dens):
            kept = rest
    return _sorted_elements(kept)


# ---------------------------------------------------------------------------
# step 13: normalization or export


def normalize_or_export(y, elements, weight_cone, vectors=None):
    """Saturate on a point base; elsewhere an independent factorable set is
    normal, and everything else is exported; ``vectors`` caches by key.

    On a point base the elements' weights saturate to the Hilbert basis of
    the ``weight_cone``, which is read off that cone with no cone built.
    Two facts make this exact.  The weights generate Z^n: weight lattice
    completion makes the pool's weights generate it, and pruning drops
    only a weight that is a sum of kept ones.  And their cone is the
    weight cone: the pool holds a multiple of each of its rays, and
    pruning keeps the smallest on each ray, since a weight of the cone on
    an extreme ray is a sum only of weights on that ray.
    """
    elements = _sorted_elements(_dedupe(elements))
    if isinstance(y, PointBase):
        sat = hilbert_basis(weight_cone)
        status = "Normal" if tuple(sorted(e.weight for e in elements)) == sat else "SaturatedToric"
        return GeneratorSet(tuple(GradedElement(y.one(), w) for w in sat), status)
    vectors = _extended_vectors(y, elements, {} if vectors is None else vectors)
    usable = [v for v in vectors if v is not None]
    # relations live in the left kernel: integer combinations of the
    # vectors themselves
    relations = kernel_lattice(list(zip(*usable))) if usable else ()
    if len(usable) == len(vectors) and not relations:
        # Z-independent vectors are a basis of the lattice they span, so
        # their cone meets that lattice in their own semigroup
        return GeneratorSet(tuple(elements), "Normal")
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


def complete_generators(y, d: PDivisor, pool, harvest, max_iterations=64):
    """Steps 7-13 on the ray sections ``pool``.  Returns the raw pool size,
    the pruned and the re-added elements, and the GeneratorSet."""
    pool = pool + weight_lattice_completion(d, pool, harvest, max_iterations)
    pruned = reduce_generators(y, pool, d.weight_cone)
    vectors = {}
    readded = quotient_field_complete(d, pruned, pool, max_iterations, vectors)
    result = normalize_or_export(y, pruned + readded, d.weight_cone, vectors)
    return len(pool), pruned, readded, result


def run_general(y, d: PDivisor, max_iterations=64, domain=None) -> GeneratorSet:
    """Generators of the section algebra of d over y.

    ``domain`` is the linearity subdivision of d when the caller has it.
    """
    if domain is None:
        domain = linearity_subdivision(d)
    harvest = harvest_rays(d, [r for cell in domain.cells for r in cell.rays], max_iterations)
    pool, twisted = zariski_generators(d, harvest)
    raw_count, pruned, readded, result = complete_generators(y, d, pool, harvest, max_iterations)
    report = (
        f"linearity cells: {len(domain.cells)}",
        f"subdivision rays: {len(domain.rays())}",
        f"raw pool size: {raw_count}",
        f"pruned size: {len(pruned)}",
        f"re-added for quotient field: {len(readded)}",
        f"normalization status: {result.normalization_status}",
    ) + tuple(f"twist at weight {w}" for w in sorted(twisted))
    return result._replace(report=report)
