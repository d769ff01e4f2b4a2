"""Batch front end: job descriptions in, deterministic reports out.

A job file is sectioned key/value text with exact rational literals.
Sections: [variety], [pdivisor], optional [cone], and [job].  See the
README for the full format.
"""

import argparse
import ast
import sys
from fractions import Fraction
from math import comb

from .coxs5 import build_cox_pdivisor, cox_surface, run_cox
from .engine import format_section, run_general
from .intlinalg import primitive
from .mpoly import MPoly, _rational
from .pdivisor import (
    IterationLimitExceeded,
    PDivisor,
    WeightOutsideCone,
    bigness_checks,
    linearity_subdivision,
)
from .polyhedra import (
    NonPointedCone,
    QCone,
    cone_from_rays,
    dual_cone,
    hilbert_basis,
    tailed_polyhedron,
)
from .torus import run_torus
from .varieties import (
    BlowupOfP2,
    NotTMoveable,
    PointBase,
    ProjectiveSpace,
    UnsupportedBackend,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_ITERATION = 4
EXIT_BACKEND = 5

PIPELINES = ("general", "torus", "cox-s5", "hilbert", "subdivide", "eval")

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


# exception -> (exit code, stderr prefix); run_job tags the message with its stage
EXIT_CODES = {
    JobParseError: (EXIT_PARSE, "parse error"),
    JobSemanticError: (EXIT_SEMANTIC, "semantic error"),
    WeightOutsideCone: (EXIT_SEMANTIC, "semantic error"),
    NotTMoveable: (EXIT_SEMANTIC, "semantic error"),
    NonPointedCone: (EXIT_SEMANTIC, "semantic error"),
    IterationLimitExceeded: (EXIT_ITERATION, "iteration cap"),
    UnsupportedBackend: (EXIT_BACKEND, "unsupported backend"),
}


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
    """An exact rational literal, as an int when it is integral."""
    try:
        return _rational(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise JobSemanticError(f"bad rational literal '{text.strip()}': {exc}")


def parse_vector(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise JobSemanticError(f"expected a parenthesized vector, got '{text}'")
    return tuple(parse_fraction(p) for p in text[1:-1].split(","))


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
    section = job.sections.get("pdivisor")
    if section is None:
        raise JobSemanticError("missing section [pdivisor]")
    rays = parse_vector_list(job.require("pdivisor", "rays"))
    dim = len(rays[0])
    omega = cone_from_rays(rays, dim)
    if not omega.is_full_dim():
        raise JobSemanticError(
            f"the weight cone with rays {omega.rays} is not full-dimensional, "
            "so its dual tail cone is not pointed"
        )
    tail = dual_cone(omega)
    coeffs = {}
    for key, value in section.items():
        if not key.startswith("coefficient."):
            continue
        label = key[len("coefficient.") :]
        if not y.has_label(label):
            raise JobSemanticError(f"{key}: the {y.name} base has no prime divisor {label}")
        vertices = _vectors_of_width(section, key, dim)
        tail_key = f"tail.{label}"
        own_tail = tail
        if tail_key in section:
            own_tail = cone_from_rays(_vectors_of_width(section, tail_key, dim), dim)
        coeffs[label] = tailed_polyhedron(vertices, own_tail)
    try:
        return PDivisor(y, omega, coeffs)
    except ValueError as exc:
        raise JobSemanticError(str(exc))


def _vectors_of_width(section, key, dim):
    vectors = parse_vector_list(section[key])
    if len(vectors[0]) != dim:
        raise JobSemanticError(
            f"{key} has vectors of width {len(vectors[0])}, rays have width {dim}"
        )
    return vectors


def build_cone(job: JobDescription) -> QCone:
    rays = parse_vector_list(job.require("cone", "rays"))
    cone = cone_from_rays(rays, len(rays[0]))
    if parse_bool(job.get("cone", "dualize", "false")):
        cone = dual_cone(cone)
    return cone


# ---------------------------------------------------------------------------
# pipelines


def _generator_lines(elements, names):
    return [f"weight {tuple(e.weight)}  {format_section(e.section, names)}" for e in elements]


def _pipeline_eval(job, d):
    weight = parse_vector(job.require("job", "weight"))
    if len(weight) != d.weight_cone.dim:
        raise JobSemanticError(
            f"weight has width {len(weight)}, rays have width {d.weight_cone.dim}"
        )
    div = d.evaluate(weight)
    pretty = "(" + ", ".join(str(x) for x in weight) + ")"
    return [f"D({pretty}) = {div.format()}"], []


def _pipeline_subdivide(d):
    domain = linearity_subdivision(d)
    lines = [
        f"linearity subdivision: {len(domain.cells)} maximal cones, "
        f"{len(domain.rays())} rays"
    ]
    for i, cell in enumerate(sorted(domain.cells, key=lambda c: c.rays)):
        lines.append(f"cone {i}: rays {tuple(sorted(cell.rays))}")
    lines.append(f"rays: {tuple(sorted(primitive(r) for r in domain.rays()))}")
    return lines, []


def _pipeline_hilbert(job):
    cone = build_cone(job)
    basis = sorted(hilbert_basis(cone))
    lines = [f"hilbert basis: {len(basis)} elements"]
    lines.extend(str(tuple(v)) for v in basis)
    return lines, []


def _pipeline_general(y, d, max_iterations, domain):
    result = run_general(y, d, max_iterations, domain)
    lines = list(result.report)
    lines.append(f"{len(result.elements)} generators")
    lines.append(f"normalization status: {result.normalization_status}")
    gen_lines = _generator_lines(result.elements, y.coordinates)
    lines.extend(gen_lines)
    if result.presentation:
        lines.append(result.presentation.rstrip("\n"))
    return lines, gen_lines


def _pipeline_torus(y, d, domain):
    result = run_torus(y, d, domain)
    lines = list(result.report)
    lines.append(f"{len(result.elements)} generators")
    lines.append(f"normalization status: {result.normalization_status}")
    degrees = sorted({e.weight for e in result.elements})
    lines.append(f"degrees: {degrees}")
    gen_lines = _generator_lines(result.elements, y.coordinates)
    lines.extend(gen_lines)
    return lines, gen_lines


def _pipeline_cox(y, d, max_iterations, domain):
    if not isinstance(y, BlowupOfP2):
        raise UnsupportedBackend("the cox-s5 pipeline needs the blowup-p2 base")
    if d.weight_cone.dim != 5:
        raise JobSemanticError(
            f"the cox-s5 pipeline grades by the class basis (H, E1..E4): "
            f"rays have width {d.weight_cone.dim}, not 5"
        )
    if set(d.weight_cone.rays) != set(y.negative_curve_classes()):
        raise JobSemanticError(
            "the cox-s5 pipeline needs the effective cone, spanned by the ten "
            "negative curve classes, as its weight cone"
        )
    result = run_cox(y, d, max_iterations, domain)
    lines = list(result.report)
    lines.append(f"{len(result.cells)} subcones")
    lines.append(f"{len(result.rays)} rays")
    lines.append(f"{len(result.reduced_rays)} rays after reduction")
    lines.append(f"{len(result.generators.elements)} generators")
    lines.append(result.presentation.rstrip("\n"))
    gen_lines = _generator_lines(result.generators.elements, y.coordinates)
    lines.extend(gen_lines)
    return lines, gen_lines


def _require_big(d):
    """Reject a p-divisor that is definitely not big on some linearity cell,
    and return the linearity subdivision it checked.

    An UNVERIFIABLE verdict passes: no criterion decides it.
    """
    domain = linearity_subdivision(d)
    for check in bigness_checks(d, domain):
        if check.verdict == "fail":
            raise JobSemanticError(f"the p-divisor is not {check.name}: {check.detail}")
    return domain


# ---------------------------------------------------------------------------
# driver


def run_job(job: JobDescription, args) -> int:
    """Run the job; no job stands for the built-in Cox p-divisor."""
    pipeline = args.pipeline or job.get("job", "pipeline")
    if pipeline is None:
        raise JobSemanticError("no pipeline given (job section or --pipeline)")
    if pipeline not in PIPELINES:
        raise JobSemanticError(f"unknown pipeline '{pipeline}'")
    stage = "setup"
    try:
        if pipeline == "hilbert":
            stage = "hilbert"
            lines, gen_lines = _pipeline_hilbert(job)
        else:
            if job is None:  # the built-in Cox p-divisor, which is big
                stage = "cox-s5"
                y = cox_surface()
                d = build_cox_pdivisor(y)
            else:
                stage = "variety"
                y = build_variety(job)
                stage = "pdivisor"
                d = build_pdivisor(job, y)
            domain = None
            if job is not None and pipeline in ("general", "torus", "cox-s5"):
                stage = "bigness"
                domain = _require_big(d)
            stage = pipeline
            if pipeline == "eval":
                lines, gen_lines = _pipeline_eval(job, d)
            elif pipeline == "subdivide":
                lines, gen_lines = _pipeline_subdivide(d)
            elif pipeline == "general":
                lines, gen_lines = _pipeline_general(y, d, args.max_iterations, domain)
            elif pipeline == "cox-s5":
                lines, gen_lines = _pipeline_cox(y, d, args.max_iterations, domain)
            else:
                lines, gen_lines = _pipeline_torus(y, d, domain)
    except tuple(EXIT_CODES) as exc:
        exc.args = (f"[stage {stage}] {exc}",)
        raise
    text = "\n".join(lines) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
        if gen_lines:
            with open(args.output + ".gens.txt", "w") as fh:
                fh.write("\n".join(gen_lines) + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="pdivgen",
        description="Generators of multigraded section algebras of polyhedral divisors",
    )
    parser.add_argument("jobfile", nargs="?", help="job description file")
    parser.add_argument("--pipeline", choices=PIPELINES, default=None)
    parser.add_argument("--output", default=None, help="report file (default stdout)")
    parser.add_argument("--max-iterations", type=int, default=64)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.max_iterations < 1:
        parser.error(f"argument --max-iterations: must be at least 1, got {args.max_iterations}")
    try:
        job = None
        if args.jobfile is not None:
            try:
                with open(args.jobfile, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            job = parse_job(text)
        elif args.pipeline != "cox-s5":
            print("error: a job file is required", file=sys.stderr)
            return EXIT_SEMANTIC
        return run_job(job, args)
    except tuple(EXIT_CODES) as exc:
        code, prefix = next(v for t, v in EXIT_CODES.items() if isinstance(exc, t))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
