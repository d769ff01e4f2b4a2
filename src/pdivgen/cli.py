"""Batch front end: job descriptions in, deterministic reports out.

``jobfile`` reads a job and builds what it describes; this module runs
the job's pipeline, writes its report and maps each error to an exit code.
"""

import argparse
import sys

from .coxs5 import build_cox_pdivisor, run_cox
from .engine import format_section, run_general
from .intlinalg import primitive
from .jobfile import (
    JobDescription,
    JobParseError,
    JobSemanticError,
    build_cone,
    build_pdivisor,
    build_variety,
    parse_job,
    parse_vector,
)
from .pdivisor import (
    IterationLimitExceeded,
    WeightOutsideCone,
    linearity_subdivision,
    validate,
)
from .polyhedra import NonPointedCone, hilbert_basis
from .torus import run_torus
from .varieties import BlowupOfP2, NotTMoveable, UnsupportedBackend

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_ITERATION = 4
EXIT_BACKEND = 5

PIPELINES = ("general", "torus", "cox-s5", "hilbert", "subdivide", "eval")

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
    result = run_cox(d, max_iterations, domain)
    lines = list(result.report)
    lines.append(f"{len(result.cells)} subcones")
    lines.append(f"{len(result.rays)} rays")
    lines.append(f"{len(result.reduced_rays)} rays after reduction")
    lines.append(f"{len(result.generators.elements)} generators")
    lines.append(result.presentation.rstrip("\n"))
    gen_lines = _generator_lines(result.generators.elements, y.coordinates)
    lines.extend(gen_lines)
    return lines, gen_lines


def _require_valid(d, max_iterations):
    """Reject a p-divisor with a ray that has no base point free multiple up
    to the cap, or definitely not big on a linearity cell (UNVERIFIABLE
    passes: no criterion decides it); return the subdivision it checked."""
    domain = linearity_subdivision(d)
    # a cell that is not big is named before a ray
    for check in sorted(validate(d, max_iterations, domain), key=lambda c: "ray" in c.name):
        if check.verdict == "fail":
            raise JobSemanticError(f"the p-divisor is not {check.name}: {check.detail}")
    return domain


# ---------------------------------------------------------------------------
# driver


def run_job(job: JobDescription, args) -> int:
    """Run the job; no job stands for the packaged Cox job, ``coxs5.build_cox_pdivisor``."""
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
            if job is None:  # the packaged Cox p-divisor, which is big
                stage = "cox-s5"
                d = build_cox_pdivisor()
                y = d.variety
            else:
                stage = "variety"
                y = build_variety(job)
                stage = "pdivisor"
                d = build_pdivisor(job, y)
            domain = None
            if job is not None and pipeline in ("general", "torus", "cox-s5"):
                stage = "bigness"
                domain = _require_valid(d, args.max_iterations)
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
