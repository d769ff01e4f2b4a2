"""Job files: the text format, its parser and the objects it describes.

A job file is sectioned key/value text with exact rational literals.
Sections: [variety], [pdivisor], optional [cone], and [job].  See the
README for the full format.
"""

import ast
from fractions import Fraction
from math import comb

from .mpoly import MPoly, _rational
from .pdivisor import PDivisor
from .polyhedra import QCone, cone_from_rays, dual_cone, tailed_polyhedron
from .varieties import BlowupOfP2, PointBase, ProjectiveSpace, UnsupportedBackend

# Bounds on a polynomial in a job file, read off its syntax tree before
# anything is built: the largest exponent (the exponents of nested powers
# multiply) and the most terms any subexpression may have.
MAX_EXPONENT = 64
MAX_TERMS = 5000


class JobParseError(ValueError):
    def __init__(self, line, col, message):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class JobSemanticError(ValueError):
    pass


class JobDescription:
    """Parsed job file: per-section key/value pairs."""

    def __init__(self, sections):
        self.sections = sections

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section, key):
        value = self.get(section, key)
        if value is None:
            raise JobSemanticError(f"missing key '{key}' in section [{section}]")
        return value


def parse_job(text) -> JobDescription:
    sections = {}
    current = None
    seen_content = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        seen_content = True
        stripped = line.strip()
        col = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise JobParseError(line_no, col, "malformed section header")
            current = stripped[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if current is None:
            raise JobParseError(line_no, col, "content before any section header")
        if "=" not in stripped:
            raise JobParseError(line_no, col, "expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise JobParseError(line_no, col, "empty key")
        if key in sections[current]:
            raise JobParseError(line_no, col, f"duplicate key '{key}'")
        sections[current][key] = value
    if not seen_content:
        raise JobParseError(1, 1, "empty job description")
    return JobDescription(sections)


# ---------------------------------------------------------------------------
# value parsers


def parse_fraction(text):
    """An exact rational literal, as an int when it is integral.

    Decimal digits, maybe after a minus sign, are read by ``int``, which
    accepts the same digits as ``Fraction`` and skips its regular
    expression.
    """
    text = text.strip()
    try:
        return int(text) if text.removeprefix("-").isdecimal() else _rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise JobSemanticError(f"bad rational literal '{text}': {exc}")


def parse_vector(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise JobSemanticError(f"expected a parenthesized vector, got '{text}'")
    return tuple(map(parse_fraction, text[1:-1].split(",")))


def parse_vector_list(text):
    vectors = []
    depth = 0
    start = None
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise JobSemanticError("unbalanced parentheses in vector list")
            if depth == 0:
                vectors.append(parse_vector(text[start : i + 1]))
        elif depth == 0 and not ch.isspace():
            raise JobSemanticError(f"unexpected character '{ch}' in vector list")
    if depth != 0:
        raise JobSemanticError("unbalanced parentheses in vector list")
    if not vectors:
        raise JobSemanticError("empty vector list")
    widths = {len(v) for v in vectors}
    if len(widths) != 1:
        raise JobSemanticError("vectors of mixed dimensions")
    return vectors


def parse_polynomial(text, names):
    """Polynomial expression over the named coordinates, via the ast module."""
    try:
        node = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise JobSemanticError(f"bad polynomial '{text}': {exc.msg}")
    nvars = len(names)
    _size_bound(node, text, nvars)
    index = {n: i for i, n in enumerate(names)}

    def ev(n):
        if isinstance(n, ast.BinOp):
            if isinstance(n.op, ast.Add):
                return ev(n.left) + ev(n.right)
            if isinstance(n.op, ast.Sub):
                return ev(n.left) - ev(n.right)
            if isinstance(n.op, ast.Mult):
                return ev(n.left) * ev(n.right)
            if isinstance(n.op, ast.Pow):
                e = n.right
                if not (isinstance(e, ast.Constant) and isinstance(e.value, int)):
                    raise JobSemanticError("exponents must be integer literals")
                return ev(n.left) ** e.value
            if isinstance(n.op, ast.Div):
                den = n.right
                if isinstance(den, ast.Constant) and isinstance(den.value, int):
                    if not den.value:
                        raise JobSemanticError(f"division by zero in polynomial '{text}'")
                    return ev(n.left) * MPoly.constant(nvars, Fraction(1, den.value))
                raise JobSemanticError("division only by integer literals")
        if isinstance(n, ast.UnaryOp):
            if isinstance(n.op, ast.USub):
                return -ev(n.operand)
            if isinstance(n.op, ast.UAdd):
                return ev(n.operand)
        if isinstance(n, ast.Constant) and isinstance(n.value, int):
            return MPoly.constant(nvars, Fraction(n.value))
        if isinstance(n, ast.Name):
            if n.id not in index:
                raise JobSemanticError(f"unknown coordinate '{n.id}'")
            return MPoly.variable(nvars, index[n.id])
        raise JobSemanticError(f"unsupported expression in polynomial '{text}'")

    return ev(node)


def _size_bound(node, text, nvars, power=1):
    """(degree, terms): upper bounds for a polynomial expression tree.

    ``power`` is the product of the exponents the node sits under.  Raises
    JobSemanticError when it exceeds MAX_EXPONENT or a subexpression may
    have more than MAX_TERMS terms.  Nodes that ``parse_polynomial``
    rejects count as constants.
    """
    degree, terms = 0, 1
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            e = node.right
            if isinstance(e, ast.Constant) and isinstance(e.value, int):
                # the base is built in full even under an exponent of 0
                power *= max(e.value, 1)
                if power > MAX_EXPONENT:
                    raise JobSemanticError(
                        f"exponent {power} in '{text}' is above the bound {MAX_EXPONENT}"
                    )
                degree, terms = _size_bound(node.left, text, nvars, power)
                degree, terms = degree * e.value, terms**e.value
        else:
            dl, tl = _size_bound(node.left, text, nvars, power)
            dr, tr = _size_bound(node.right, text, nvars, power)
            if isinstance(node.op, ast.Mult):
                degree, terms = dl + dr, tl * tr
            else:
                degree, terms = max(dl, dr), tl + tr
        # no more terms than monomials of degree at most `degree`
        terms = min(terms, comb(degree + nvars, nvars))
    elif isinstance(node, ast.UnaryOp):
        degree, terms = _size_bound(node.operand, text, nvars, power)
    elif isinstance(node, ast.Name):
        degree = 1
    if terms > MAX_TERMS:
        raise JobSemanticError(
            f"polynomial '{text}' may have {terms} terms, above the bound {MAX_TERMS}"
        )
    return degree, terms


def parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise JobSemanticError(f"bad boolean literal '{text}'")


# ---------------------------------------------------------------------------
# semantic build


def build_variety(job: JobDescription):
    backend = job.require("variety", "backend")
    if backend == "point":
        return PointBase()
    try:
        if backend == "projective-space":
            coords = tuple(job.require("variety", "coordinates").split())
            n = int(job.get("variety", "dim", str(len(coords) - 1)))
            if n != len(coords) - 1:
                raise JobSemanticError("dim must equal number of coordinates minus one")
            y = ProjectiveSpace(n, coords)
            forms = _collect_forms(job, coords)
        elif backend == "blowup-p2":
            coords = tuple(job.get("variety", "coordinates", "x0 x1 x2").split())
            points = parse_vector_list(job.require("variety", "points"))
            forms = _collect_forms(job, coords)
            if "H" not in forms:
                raise JobSemanticError("blowup-p2 needs form.H, the line to blow down to")
            y = BlowupOfP2(points, forms.pop("H"), coords)
        else:
            raise UnsupportedBackend(f"unknown backend '{backend}'")
        for label, poly in sorted(forms.items()):
            y.register_divisor(label, poly)
    except UnsupportedBackend:
        raise
    except ValueError as exc:  # e.g. a defining form that is zero or not homogeneous
        raise JobSemanticError(str(exc)) from exc
    return y


def _collect_forms(job, coords):
    forms = {}
    for key, value in job.sections.get("variety", {}).items():
        if key.startswith("form."):
            forms[key[5:]] = parse_polynomial(value, coords)
    return forms


def build_pdivisor(job: JobDescription, y) -> PDivisor:
    """The p-divisor of the job over y; every coefficient's tail is the
    dual of the weight cone."""
    section = job.sections.get("pdivisor")
    if section is None:
        raise JobSemanticError("missing section [pdivisor]")
    for key in section:
        if key.startswith("tail."):
            raise JobSemanticError(
                f"{key}: a job cannot set a tail, which is always the dual of the weight cone"
            )
    rays = parse_vector_list(job.require("pdivisor", "rays"))
    dim = len(rays[0])
    omega = cone_from_rays(rays, dim)
    tail = dual_cone(omega)
    # the dual is pointed exactly when the weight cone is full-dimensional
    if not tail.is_pointed():
        raise JobSemanticError(
            f"the weight cone with rays {omega.rays} is not full-dimensional, "
            "so its dual tail cone is not pointed"
        )
    coeffs = {}
    for key, value in section.items():
        if not key.startswith("coefficient."):
            continue
        label = key[len("coefficient.") :]
        if not y.has_label(label):
            raise JobSemanticError(f"{key}: the {y.name} base has no prime divisor {label}")
        vertices = parse_vector_list(value)
        if len(vertices[0]) != dim:
            raise JobSemanticError(
                f"{key} has vectors of width {len(vertices[0])}, rays have width {dim}"
            )
        coeffs[label] = tailed_polyhedron(vertices, tail)
    try:
        return PDivisor(y, omega, coeffs)
    except ValueError as exc:
        raise JobSemanticError(str(exc))


def build_cone(job: JobDescription) -> QCone:
    rays = parse_vector_list(job.require("cone", "rays"))
    cone = cone_from_rays(rays, len(rays[0]))
    if parse_bool(job.get("cone", "dualize", "false")):
        cone = dual_cone(cone)
    return cone
