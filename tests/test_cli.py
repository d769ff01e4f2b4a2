"""Job files and the command line front end."""

import hashlib
import io
import tempfile
import time
from collections import Counter
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGMA_TILDE_RAYS, degreewise_check, format_job, one_shot_algebra_membership
from pdivgen import cli
from pdivgen.cli import EXIT_BACKEND, EXIT_OK, EXIT_PARSE, EXIT_SEMANTIC, main
from pdivgen.jobfile import (
    MAX_EXPONENT,
    JobParseError,
    JobSemanticError,
    build_pdivisor,
    build_variety,
    parse_fraction,
    parse_job,
    parse_polynomial,
    parse_vector,
    parse_vector_list,
)
from pdivgen.engine import GradedElement, _dedupe, run_general
from pdivgen.polyhedra import cone_from_rays, hilbert_basis
from pdivgen.torus import run_torus

# the packaged Cox job
COX_JOB = "src/pdivgen/cox-s5.pdiv"

JOB_TEXT = """\
# the plane with two marked cubics
[variety]
backend = projective-space
coordinates = x y z
form.D = x*y*z
form.E = (y - z)*(x - z)*(x - y)

[pdivisor]
rays = (-1,1) (1,1)
coefficient.D = (0,1/2)
coefficient.E = (-1,1) (1,1)

[job]
pipeline = eval
weight = (0,1)
"""


def test_parse_scalars_and_vectors():
    assert parse_fraction("1/2") == pytest.approx(0.5)
    assert parse_vector("(0, 1/2)") == (0, pytest.approx(0.5))
    assert parse_vector_list("(-1,1) (1,1)") == [(-1, 1), (1, 1)]
    # integral literals are ints, as polynomial and divisor coefficients are
    assert [type(parse_fraction(t)) for t in ("3", "4/2", "-0", "1/2")] == [int, int, int, Fraction]


def test_a_weight_outside_the_cone_is_named_with_int_entries(tmp_path, capsys):
    job = tmp_path / "outside.pdiv"
    job.write_text(JOB_TEXT.replace("weight = (0,1)", "weight = (1,0)"))
    assert main([str(job)]) == EXIT_SEMANTIC
    err = capsys.readouterr().err
    assert err == "semantic error: [stage eval] (1, 0) is not in the weight cone\n"


def test_parse_polynomial():
    p = parse_polynomial("(y - z)*(x - z)*(x - y)", ("x", "y", "z"))
    assert p.total_degree() == 3
    assert len(p.terms) == 6
    with pytest.raises(JobSemanticError):
        parse_polynomial("x**y", ("x", "y"))
    with pytest.raises(JobSemanticError):
        parse_polynomial("x/0", ("x", "y"))


def test_parse_polynomial_bounds_powers_and_terms():
    xyz = ("x", "y", "z")
    assert parse_polynomial(f"(x + y)**{MAX_EXPONENT}", ("x", "y")).total_degree() == MAX_EXPONENT
    assert len(parse_polynomial("(x + y + z)**28", xyz).terms) == 435
    for text in (
        f"(x + y)**{MAX_EXPONENT + 1}",
        "(x + y)**100000",
        "((x + y)**8)**9",  # nested exponents multiply
        "((x + y)**100000)**0",
        "((2**8)**8)**8",
        "(x + y + z)**64",  # 47,905 monomials of degree at most 64
        "(x + y + z)**20 * (x + y + z)**20",
    ):
        with pytest.raises(JobSemanticError):
            parse_polynomial(text, xyz)


def test_parse_job_round_trip():
    job = parse_job(JOB_TEXT)
    assert job.get("job", "pipeline") == "eval"
    again = parse_job(format_job(job))
    assert again.sections == job.sections


def test_parse_job_errors_carry_positions():
    with pytest.raises(JobParseError) as exc:
        parse_job("")
    assert exc.value.line == 1 and exc.value.col == 1
    with pytest.raises(JobParseError):
        parse_job("[variety]\nkind = point\nkind = point\n")
    with pytest.raises(JobParseError):
        parse_job("[variety\nkind = point\n")


def test_build_objects():
    job = parse_job(JOB_TEXT)
    y = build_variety(job)
    d = build_pdivisor(job, y)
    assert d.weight_cone.rays == ((-1, 1), (1, 1))
    assert sorted(d.coefficients) == ["D", "E"]


def test_missing_required_key():
    job = parse_job("[variety]\nbackend = projective-space\n")
    with pytest.raises(JobSemanticError):
        build_variety(job)


def test_eval_golden_output(tmp_path, capsys):
    jobfile = tmp_path / "plane.pdiv"
    jobfile.write_text(JOB_TEXT)
    assert main([str(jobfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "D((0, 1)) = 1/2 D + 1 E\n"


def test_shipped_job_file(capsys):
    assert main(["jobs/p2.pdiv", "--pipeline", "subdivide"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (
        "linearity subdivision: 2 maximal cones, 3 rays\n"
        "cone 0: rays ((-1, 1), (0, 1))\n"
        "cone 1: rays ((0, 1), (1, 1))\n"
        "rays: ((-1, 1), (0, 1), (1, 1))\n"
    )
    assert main(["jobs/p2.pdiv", "--pipeline", "eval"]) == EXIT_OK
    assert capsys.readouterr().out == "D((0, 1)) = 1/2 D + 1 E\n"


def test_cox_subdivide_report_is_the_stored_one(capsys):
    # every cone of the hyperplane subdivision of the shipped Cox p-divisor
    assert main([COX_JOB, "--pipeline", "subdivide"]) == EXIT_OK
    assert capsys.readouterr().out == Path("tests/golden/cox-s5.subdivide.txt").read_text()


# Jobs whose coefficients have three vertices, so the linearity subdivision
# is the common refinement of their normal fans, which keeps a piece when its
# span rank is the weight cone's.  The second weight cone is a half-plane.
REFINED_JOBS = {
    "triangle": (
        "[variety]\nbackend = projective-space\ncoordinates = x y z\nform.D = x*y*z\n"
        "[pdivisor]\nrays = (1,0) (0,1)\ncoefficient.D = (0,2) (1,1) (3,0)\n",
        "linearity subdivision: 3 maximal cones, 4 rays\n"
        "cone 0: rays ((0, 1), (1, 2))\n"
        "cone 1: rays ((1, 0), (1, 1))\n"
        "cone 2: rays ((1, 1), (1, 2))\n"
        "rays: ((0, 1), (1, 0), (1, 1), (1, 2))\n",
    ),
    "half-plane": (
        "[variety]\nbackend = projective-space\ncoordinates = x y z\n"
        "form.E = (y - z)*(x - z)*(x - y)\n"
        "[pdivisor]\nrays = (1,0) (-1,0) (0,1)\ncoefficient.E = (-1,1) (1,1) (0,3)\n",
        "linearity subdivision: 2 maximal cones, 3 rays\n"
        "cone 0: rays ((-1, 0), (0, 1))\n"
        "cone 1: rays ((0, 1), (1, 0))\n"
        "rays: ((-1, 0), (0, 1), (1, 0))\n",
    ),
}


@pytest.mark.parametrize("name", sorted(REFINED_JOBS))
def test_subdivide_report_of_a_common_refinement(name, tmp_path, capsys):
    text, report = REFINED_JOBS[name]
    job = tmp_path / f"{name}.pdiv"
    job.write_text(text)
    assert main([str(job), "--pipeline", "subdivide"]) == EXIT_OK
    assert capsys.readouterr().out == report


def test_general_route_on_common_refinements(tmp_path, capsys):
    job = tmp_path / "triangle.pdiv"
    job.write_text(REFINED_JOBS["triangle"][0])
    assert main([str(job), "--pipeline", "general"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("linearity cells: 3\nsubdivision rays: 4\nraw pool size: 85\n")
    assert "\n56 generators\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b127a8a803e04c290f72476c936f3a4ae0b38fd39d335f6cab42e8196a765507"
    )
    # D is not big on the cell of the half-plane whose rays are (-1, 0) and (0, 1)
    job = tmp_path / "half-plane.pdiv"
    job.write_text(REFINED_JOBS["half-plane"][0])
    assert main([str(job), "--pipeline", "general"]) == EXIT_SEMANTIC
    captured = capsys.readouterr()
    assert captured.err == (
        "semantic error: [stage bigness] the p-divisor is not big on cell "
        "((-1, 0), (0, 1)): degree 0 <= 0\n"
    )


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.pdiv"
    bad.write_text("[variety\n")
    assert main([str(bad)]) == EXIT_PARSE
    nosec = tmp_path / "nosec.pdiv"
    nosec.write_text("[variety]\n[job]\npipeline = eval\n")
    assert main([str(nosec)]) == EXIT_SEMANTIC
    alien = tmp_path / "alien.pdiv"
    alien.write_text("[variety]\nbackend = martian\n[job]\npipeline = eval\n")
    assert main([str(alien)]) == EXIT_BACKEND
    assert main([str(tmp_path / "missing.pdiv")]) == EXIT_PARSE
    # a job path that is a directory or not UTF-8 text, and a report path
    # that is a directory, exit cleanly
    not_utf8 = tmp_path / "latin-1.pdiv"
    not_utf8.write_bytes("# caf\xe9\n".encode("latin-1"))
    capsys.readouterr()
    for argv, prefix in (
        ([str(tmp_path)], "parse error: "),
        ([str(not_utf8)], "parse error: "),
        (["jobs/p2.pdiv", "--pipeline", "eval", "--output", str(tmp_path)], "output error: "),
    ):
        assert main(argv) == EXIT_PARSE, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix), argv
        assert "Traceback" not in err, argv
    # both backends that take defining forms reject one that is not homogeneous
    plane = tmp_path / "inhomogeneous-plane.pdiv"
    plane.write_text(
        "[variety]\nbackend = projective-space\ncoordinates = x y z\n"
        "form.D = x*y + z\n[job]\npipeline = eval\n"
    )
    assert main([str(plane)]) == EXIT_SEMANTIC
    blowup = tmp_path / "inhomogeneous-blowup.pdiv"
    blowup.write_text(
        "[variety]\nbackend = blowup-p2\npoints = (1,0,0) (0,1,0) (0,0,1) (1,1,1)\n"
        "form.H = x0 - x1 + x2\nform.D = x0*x1 + x2\n[job]\npipeline = eval\n"
    )
    assert main([str(blowup)]) == EXIT_SEMANTIC
    # blow-up points of the wrong width, zero, repeated or three on a line
    capsys.readouterr()
    for name, points, named in (
        ("narrow-points", "(1,0) (0,1) (1,1) (2,1)", "(1, 0)"),
        ("zero-point", "(1,0,0) (0,1,0) (0,0,0) (1,1,1)", "(0, 0, 0)"),
        ("repeated-point", "(1,0,0) (0,1,0) (1,0,0) (1,1,1)", "(1, 0, 0) and (1, 0, 0)"),
        ("collinear-points", "(1,0,0) (0,1,0) (0,0,1) (1,1,0)", "(1, 0, 0), (0, 1, 0) and (1, 1, 0)"),
    ):
        job = tmp_path / f"{name}.pdiv"
        job.write_text(
            f"[variety]\nbackend = blowup-p2\npoints = {points}\n"
            "form.H = x0 - x1 + x2\n[job]\npipeline = eval\n"
        )
        assert main([str(job)]) == EXIT_SEMANTIC, name
        assert named in capsys.readouterr().err, name
    # a coefficient vertex or an eval weight wider than the rays
    shipped = Path("jobs/p2.pdiv").read_text()
    wide_vertex = tmp_path / "wide-vertex.pdiv"
    wide_vertex.write_text(shipped.replace("(0,1/2)", "(0,1/2,3)"))
    assert main([str(wide_vertex)]) == EXIT_SEMANTIC
    wide_weight = tmp_path / "wide-weight.pdiv"
    wide_weight.write_text(
        shipped.replace("pipeline = general", "pipeline = eval").replace(
            "weight = (0,1)", "weight = (0,1,2)"
        )
    )
    assert main([str(wide_weight)]) == EXIT_SEMANTIC
    # a coordinate hyperplane's label names that coordinate and nothing else
    for form, code in (("x", EXIT_OK), ("x + y", EXIT_SEMANTIC), ("y", EXIT_SEMANTIC)):
        job = tmp_path / "coord-label.pdiv"
        job.write_text(
            shipped.replace("pipeline = general", "pipeline = eval").replace(
                "form.D = x*y*z", f"form.D = x*y*z\nform.coord:x = {form}"
            )
        )
        assert main([str(job)]) == code, form
    # a huge power is rejected from the syntax tree, before it is built
    huge_power = tmp_path / "huge-power.pdiv"
    huge_power.write_text(shipped.replace("form.D = x*y*z", "form.D = (x+y)**100000"))
    assert main([str(huge_power)]) == EXIT_SEMANTIC
    # degree 0 on the one cell: not big, on both routes that build generators
    not_big = tmp_path / "not-big.pdiv"
    not_big.write_text(
        "[variety]\nbackend = projective-space\ncoordinates = x y z\nform.D = x*y*z\n"
        "[pdivisor]\nrays = (-1,1) (1,1)\ncoefficient.D = (0,0)\n"
    )
    capsys.readouterr()
    for route in ("general", "torus"):
        assert main([str(not_big), "--pipeline", route]) == EXIT_SEMANTIC, route
        err = capsys.readouterr().err
        assert "not big on cell ((-1, 1), (1, 1))" in err, route
        assert "Traceback" not in err, route
    # a Hilbert basis of a cone that is not pointed, given or as a dual
    for name, cone, named in (
        ("whole-plane", "rays = (1,0) (0,1) (-1,-1)", "((-1, 0), (0, -1), (0, 1), (1, 0))"),
        (
            "flat-dual",
            "rays = (1,0,0) (0,1,0)\ndualize = true",
            "((0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0))",
        ),
    ):
        job = tmp_path / f"{name}.pdiv"
        job.write_text(f"[cone]\n{cone}\n[job]\npipeline = hilbert\n")
        assert main([str(job)]) == EXIT_SEMANTIC, name
        err = capsys.readouterr().err
        assert f"the cone with rays {named} is not pointed" in err, name
        assert "Traceback" not in err, name
    # a coefficient label with no form, on the routes that evaluate and solve
    no_form = tmp_path / "no-form.pdiv"
    no_form.write_text(shipped.replace("form.D = x*y*z\n", ""))
    for route in ("eval", "general"):
        assert main([str(no_form), "--pipeline", route]) == EXIT_SEMANTIC, route
        err = capsys.readouterr().err
        assert "coefficient.D: the projective-space base has no prime divisor D" in err, route
        assert "Traceback" not in err, route
    capsys.readouterr()


BLOWUP_HEAD = "[variety]\nbackend = blowup-p2\npoints = (1,0,0) (0,1,0) (0,0,1) (1,1,1)\n"
BLOWUP_TAIL = "[pdivisor]\nrays = (1,0) (0,1)\ncoefficient.H = (0,0)\n"
PLANE_HEAD = "[variety]\nbackend = projective-space\n"
PLANE_TAIL = "[pdivisor]\nrays = (-1,1) (1,1)\ncoefficient.D = (0,1/2)\n"


@pytest.mark.parametrize(
    "text, named",
    [
        # one coordinate too many ended in a KeyError traceback, one too
        # few in a misleading iteration cap
        (
            BLOWUP_HEAD + "coordinates = a b c d\nform.H = a - b + c\n" + BLOWUP_TAIL,
            "the blowup-p2 base needs 3 coordinate names, got 4: a b c d",
        ),
        (
            BLOWUP_HEAD + "coordinates = a b\nform.H = a - b\n" + BLOWUP_TAIL,
            "the blowup-p2 base needs 3 coordinate names, got 2: a b",
        ),
        # a repeated name bound both positions to the last one
        (
            PLANE_HEAD + "coordinates = x x z\nform.D = x*z\n" + PLANE_TAIL,
            "coordinate names must be distinct; repeated: x",
        ),
        # one coordinate built P^0 and none P^-1, which failed at bigness
        *(
            (
                PLANE_HEAD + f"coordinates = {names}\n[pdivisor]\nrays = (-1,1) (1,1)\n",
                "the projective-space base needs dim at least 1 (two coordinates), "
                f"got {dim}; for a point use backend = point",
            )
            for names, dim in (("x", 0), ("", -1))
        ),
    ],
)
def test_coordinate_names_are_counted_and_distinct(text, named, tmp_path, capsys):
    job = tmp_path / "coordinates.pdiv"
    job.write_text(text + "[job]\npipeline = general\n")
    assert main([str(job)]) == EXIT_SEMANTIC
    assert capsys.readouterr().err == f"semantic error: [stage variety] {named}\n"


@pytest.mark.parametrize("form", ["E12 = x0 + x1 + x2", "E1 = x0"])
@pytest.mark.parametrize("pipeline", ["subdivide", "general"])
def test_a_blowup_job_cannot_redefine_a_built_in_label(form, pipeline, tmp_path, capsys):
    # a new E12 changed the negative curves, and a form for E1 made the
    # exponent codec read it as a hyperplane
    label = form.split()[0]
    job = tmp_path / "redefined.pdiv"
    job.write_text(
        Path(COX_JOB).read_text().replace(
            "form.H = x0 - x1 + x2\n", f"form.H = x0 - x1 + x2\nform.{form}\n"
        )
    )
    assert main([str(job), "--pipeline", pipeline]) == EXIT_SEMANTIC
    assert capsys.readouterr().err == (
        f"semantic error: [stage variety] {label} is already a prime divisor "
        "of the blowup-p2 base\n"
    )


def test_a_ray_without_a_base_point_free_multiple_exits_at_the_cap(tmp_path, capsys):
    # D(k*(1,0)) = -k E for every k, so no multiple has a section; the
    # degree test answers without multiplying out E**k.  The check next to
    # bigness refuses the job before either route starts: general ran into
    # the cap (exit 4), and torus refused the ray's negative degree on the
    # non-invariant part
    job = tmp_path / "no-free-multiple.pdiv"
    job.write_text(
        Path("jobs/p2.pdiv").read_text().replace("rays = (-1,1) (1,1)", "rays = (1,0) (0,1)")
    )
    for pipeline in ("general", "torus"):
        start = time.perf_counter()
        assert main([str(job), "--pipeline", pipeline]) == EXIT_SEMANTIC
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().err == (
            "semantic error: [stage bigness] the p-divisor is not semiample at ray (1, 0): "
            "no base point free multiple up to cap 64\n"
        )


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_an_iteration_cap_below_one_is_a_usage_error(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jobs/p2.pdiv", "--max-iterations", cap])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"argument --max-iterations: must be at least 1, got {cap}" in err
    assert "Traceback" not in err


def test_hilbert_pipeline(tmp_path, capsys):
    rays = " ".join("(" + ",".join(str(x) for x in r) + ")" for r in SIGMA_TILDE_RAYS)
    jobfile = tmp_path / "hb.pdiv"
    jobfile.write_text(
        f"[cone]\nrays = {rays}\ndualize = true\n\n[job]\npipeline = hilbert\n"
    )
    assert main([str(jobfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "hilbert basis: 65 elements" in out


_small_cone_jobs = st.integers(min_value=1, max_value=3).flatmap(
    lambda width: st.tuples(
        st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=width, max_size=width),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
)


# Entries stay in [-2, 2]: larger ones make some Hilbert bases take seconds.
@given(_small_cone_jobs)
@settings(max_examples=150, deadline=None)
def test_hilbert_pipeline_exits_cleanly_on_small_cones(case):
    rays, dualize = case
    text = " ".join("(" + ",".join(map(str, r)) + ")" for r in rays)
    with tempfile.TemporaryDirectory() as tmp:
        job = Path(tmp) / "cone.pdiv"
        job.write_text(
            f"[cone]\nrays = {text}\ndualize = {str(dualize).lower()}\n"
            "[job]\npipeline = hilbert\n"
        )
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([str(job)])
    assert code in (EXIT_OK, EXIT_SEMANTIC)
    assert "Traceback" not in err.getvalue()


def test_output_file_and_sidecar(tmp_path, capsys):
    jobfile = tmp_path / "plane.pdiv"
    jobfile.write_text(JOB_TEXT.replace("pipeline = eval", "pipeline = general"))
    report = tmp_path / "report.txt"
    assert main([str(jobfile), "--output", str(report)]) == EXIT_OK
    capsys.readouterr()
    text = report.read_text()
    assert "raw pool size: 77" in text
    gens = (tmp_path / "report.txt.gens.txt").read_text()
    assert "weight" in gens


def test_the_verify_option_is_gone(capsys):
    # the dual-cone involution and the superadditivity of D hold by
    # construction; test_properties.py tests both
    with pytest.raises(SystemExit) as exc:
        main(["jobs/p2.pdiv", "--verify"])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --verify" in err
    assert "Traceback" not in err


def test_a_torus_record_changes_nothing(tmp_path, capsys):
    # the torus comes from the base, so [torus] record has no reader
    job = tmp_path / "record.pdiv"
    job.write_text(Path("jobs/p2.pdiv").read_text() + "\n[torus]\nrecord = other\n")
    report = tmp_path / "torus.txt"
    assert main([str(job), "--pipeline", "torus", "--output", str(report)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert report.read_text() == Path("perfbench/golden/plane-torus.txt").read_text()
    golden = Path("perfbench/golden/plane-torus.gens.txt").read_text()
    assert Path(f"{report}.gens.txt").read_text() == golden


def test_cox_pipeline_without_jobfile(tmp_path, capsys, monkeypatch):
    # the packaged job is found from any working directory
    golden = Path("perfbench/golden/cox-s5.txt").read_text()
    golden_gens = Path("perfbench/golden/cox-s5.gens.txt").read_text()
    monkeypatch.chdir(tmp_path)
    assert main(["--pipeline", "cox-s5", "--output", "cox.txt"]) == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert Path("cox.txt").read_text() == golden
    assert Path("cox.txt.gens.txt").read_text() == golden_gens


def test_the_cox_pipeline_on_the_job_file_writes_the_stored_report(tmp_path, capsys):
    report = tmp_path / "cox.txt"
    assert main([COX_JOB, "--pipeline", "cox-s5", "--output", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert report.read_text() == Path("perfbench/golden/cox-s5.txt").read_text()
    assert Path(f"{report}.gens.txt").read_text() == Path("perfbench/golden/cox-s5.gens.txt").read_text()


def _cox_job(points, h_form):
    """The shipped Cox p-divisor over the blow-up of other points."""
    text = Path(COX_JOB).read_text()
    for old, new in (
        ("points = (1,0,0) (0,1,0) (0,0,1) (1,1,1)\n", f"points = {points}\n"),
        ("form.H = x0 - x1 + x2\n", f"form.H = {h_form}\n"),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def test_the_cox_pipeline_on_other_points_writes_the_stored_report(tmp_path, capsys):
    # these points reach the blow-up's Taylor expansions at a point with
    # no zero coordinate other than (1, 1, 1)
    job = tmp_path / "cox.pdiv"
    job.write_text(_cox_job("(1,0,0) (0,1,0) (0,0,1) (1,2,3)", "x0 + x1 + x2"))
    report = tmp_path / "cox.txt"
    assert main([str(job), "--pipeline", "cox-s5", "--output", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert report.read_text() == Path("tests/golden/cox-s5.other-points.txt").read_text()


def test_the_cox_pipeline_on_moved_points_writes_the_stored_report(tmp_path, capsys):
    # no point is a coordinate point, so every multiplicity and vanishing
    # condition is taken in a chart where the point has other nonzero
    # coordinates
    job = tmp_path / "cox.pdiv"
    job.write_text(_cox_job("(1,1,0) (0,1,2) (3,0,1) (1,-1,1)", "x0 + 5*x1 + 7*x2"))
    report = tmp_path / "cox.txt"
    assert main([str(job), "--pipeline", "cox-s5", "--output", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert report.read_text() == Path("tests/golden/cox-s5.moved-points.txt").read_text()
    golden = Path("tests/golden/cox-s5.moved-points.gens.txt").read_text()
    assert Path(f"{report}.gens.txt").read_text() == golden


COX_RAYS = (
    "(0,1,0,0,0) (0,0,1,0,0) (0,0,0,1,0) (0,0,0,0,1) (1,-1,0,0,-1) (1,0,0,-1,-1) "
    "(1,0,-1,0,-1) (1,0,-1,-1,0) (1,-1,0,-1,0) (1,-1,-1,0,0)"
)


def _cox_rays(rays):
    """The shipped Cox job on another weight cone."""
    text = Path(COX_JOB).read_text()
    assert text.count(f"rays = {COX_RAYS}\n") == 1
    return text.replace(f"rays = {COX_RAYS}\n", f"rays = {rays}\n")


EFFECTIVE_CONE_REFUSAL = (
    "semantic error: [stage cox-s5] the cox-s5 pipeline needs the effective cone, "
    "spanned by the ten negative curve classes, as its weight cone\n"
)


COX_POINT_SETS = [
    ("(1,0,0) (0,1,0) (0,0,1) (1,1,1)", "x0 - x1 + x2"),
    ("(1,0,0) (0,1,0) (0,0,1) (1,2,3)", "x0 + x1 + x2"),
    ("(1,1,0) (0,1,2) (3,0,1) (1,-1,1)", "x0 + 5*x1 + 7*x2"),
]


@pytest.mark.parametrize(
    "points, h_form, name",
    [(*COX_POINT_SETS[1], "other-points"), (*COX_POINT_SETS[2], "moved-points")],
)
def test_the_general_route_on_other_points_writes_the_stored_pruning(
    points, h_form, name, tmp_path, capsys
):
    # the pool, the pruned set and its sections on the blow-up of points
    # other than the shipped ones
    job = tmp_path / "cox.pdiv"
    job.write_text(_cox_job(points, h_form))
    report = tmp_path / "general.txt"
    assert main([str(job), "--pipeline", "general", "--output", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert report.read_text() == Path(f"tests/golden/cox-s5.{name}.general.txt").read_text()
    golden = Path(f"tests/golden/cox-s5.{name}.general.gens.txt").read_text()
    assert Path(f"{report}.gens.txt").read_text() == golden


@pytest.mark.parametrize("points, h_form", COX_POINT_SETS)
def test_the_cox_pipeline_reads_its_points_and_line_from_the_job(points, h_form, tmp_path, capsys):
    job = tmp_path / "cox.pdiv"
    job.write_text(_cox_job(points, h_form))
    assert main([str(job), "--pipeline", "cox-s5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "minors certificate: pass" in out
    assert "normalization: Normal, 0 elements added" in out
    assert "10 generators" in out
    assert f"(h*({h_form.replace(' ', '')}) - 1 + toric relations)" in out
    # the general route re-adds no ratio of the function field generators
    assert main([str(job), "--pipeline", "general"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "re-added for quotient field: 0" in out
    assert "10 generators" in out


def test_the_cox_pipeline_names_the_coordinates_of_the_job(tmp_path, capsys):
    job = tmp_path / "abc.pdiv"
    text = _cox_job("(1,0,0) (0,1,0) (0,0,1) (1,1,1)", "a - b + c")
    job.write_text(text.replace("backend = blowup-p2\n", "backend = blowup-p2\ncoordinates = a b c\n"))
    assert main([str(job), "--pipeline", "cox-s5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "# subalgebra of P = C[a,b,c,h,t0..t9] / (h*(a-b+c) - 1 + toric relations)" in lines
    assert "(a*h - b*h) * t5" in lines
    assert "weight (1, -1, -1, 0, 0)  section (c) / (H^1)" in lines


def test_the_cox_job_file_prints_the_cox_generators(tmp_path, capsys):
    # the general route on the shipped Cox p-divisor writes the generator
    # lines of the cox-s5 pipeline
    report = tmp_path / "cox-general.txt"
    args = [COX_JOB, "--pipeline", "general", "--output", str(report)]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    golden = Path("perfbench/golden/cox-s5.gens.txt").read_text()
    assert Path(f"{report}.gens.txt").read_text() == golden


def test_a_job_cannot_set_a_tail(tmp_path, capsys):
    # every tail is the dual of the weight cone, so a tail key could only
    # restate it; one that asked for another tail would change the job
    plane = Path("jobs/p2.pdiv").read_text()
    line = "coefficient.E = (-1,1) (1,1)\n"
    assert plane.count(line) == 1
    job = tmp_path / "tail.pdiv"
    # the weight cone of the plane example is its own dual
    for tail in ("(1,1) (-1,1)", "(1,0) (0,1)"):
        job.write_text(plane.replace(line, line + f"tail.E = {tail}\n"))
        assert main([str(job), "--pipeline", "general"]) == EXIT_SEMANTIC, tail
        assert capsys.readouterr().err == (
            "semantic error: [stage pdivisor] tail.E: a job cannot set a tail, "
            "which is always the dual of the weight cone\n"
        )


def test_torus_route_splits_a_cell_that_is_not_simplicial(tmp_path, capsys):
    job = tmp_path / "square.pdiv"
    job.write_text(
        "[variety]\nbackend = projective-space\ncoordinates = x y z\nform.D = x*y*z\n"
        "[pdivisor]\nrays = (1,0,1) (0,1,1) (-1,0,1) (0,-1,1)\ncoefficient.D = (0,0,1)\n"
        "[job]\npipeline = torus\n"
    )
    assert main([str(job)]) == EXIT_OK
    out = capsys.readouterr().out
    # the square cell of four rays is cut into four unimodular pieces
    assert out.count(": 30 generators") == 4
    assert "total generators: 120" in out


BLOWUP_JOB = """\
[variety]
backend = blowup-p2
points = (1,0,0) (0,1,0) (0,0,1) (1,1,1)
form.H = x0 - x1 + x2

[pdivisor]
rays = (-1,1) (1,1)
coefficient.H = (0,2)
coefficient.E1 = (-1,-1) (1,-1)

[job]
pipeline = general
"""

# the general route's report on BLOWUP_JOB; the shared ray (0, 1) is twisted
# and its line appears once
BLOWUP_GENERAL_REPORT = """\
linearity cells: 2
subdivision rays: 3
raw pool size: 11
pruned size: 11
re-added for quotient field: 0
normalization status: ExportedForNormalization
twist at weight (-1, 1)
twist at weight (0, 1)
twist at weight (1, 1)
11 generators
normalization status: ExportedForNormalization
weight (-1, 1)  section (x2^2) / (H^2)
weight (-1, 1)  section (x1*x2) / (H^2)
weight (-1, 1)  section (x1^2) / (H^2)
weight (0, 1)  section (x2^2) / (H^2)
weight (0, 1)  section (x1*x2) / (H^2)
weight (0, 1)  section (x1^2) / (H^2)
weight (0, 1)  section (x0*x2) / (H^2)
weight (0, 1)  section (x0*x1) / (H^2)
weight (1, 1)  section (x2^2) / (H^2)
weight (1, 1)  section (x1*x2) / (H^2)
weight (1, 1)  section (x1^2) / (H^2)
# presentation of the collected generator algebra
# 11 generators; variables g0..g10
g0 : weight (-1, 1) section (x2^2) / (H^2)
g1 : weight (-1, 1) section (x1*x2) / (H^2)
g2 : weight (-1, 1) section (x1^2) / (H^2)
g3 : weight (0, 1) section (x2^2) / (H^2)
g4 : weight (0, 1) section (x1*x2) / (H^2)
g5 : weight (0, 1) section (x1^2) / (H^2)
g6 : weight (0, 1) section (x0*x2) / (H^2)
g7 : weight (0, 1) section (x0*x1) / (H^2)
g8 : weight (1, 1) section (x2^2) / (H^2)
g9 : weight (1, 1) section (x1*x2) / (H^2)
g10 : weight (1, 1) section (x1^2) / (H^2)
# toric relations among factorable generators
relation: g0^1 * g10^3 = g5^2 * g9^2  (up to scalar)
relation: g1^1 * g10^2 = g5^2 * g9^1  (up to scalar)
relation: g2^1 * g10^1 = g5^2  (up to scalar)
relation: g3^1 * g10^2 = g5^1 * g9^2  (up to scalar)
relation: g4^1 * g10^1 = g5^1 * g9^1  (up to scalar)
relation: g6^1 * g10^1 = g7^1 * g9^1  (up to scalar)
relation: g8^1 * g10^1 = g9^2  (up to scalar)
"""


def test_a_twisted_ray_shared_by_two_cells_is_reported_once(tmp_path, capsys):
    job = tmp_path / "blowup.pdiv"
    job.write_text(BLOWUP_JOB)
    assert main([str(job)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("twist at weight (0, 1)\n") == 1
    assert out == BLOWUP_GENERAL_REPORT


@pytest.mark.parametrize(
    "text, code, message",
    [
        (
            Path("jobs/p2.pdiv").read_text(),
            EXIT_BACKEND,
            "unsupported backend: [stage cox-s5] the cox-s5 pipeline needs the blowup-p2 base\n",
        ),
        (
            BLOWUP_JOB,
            EXIT_SEMANTIC,
            "semantic error: [stage cox-s5] the cox-s5 pipeline grades by the class basis "
            "(H, E1..E4): rays have width 2, not 5\n",
        ),
        (
            _cox_job("(1,0,0) (0,1,0) (0,0,1) (1,2,3)", "x0 + x1 - x2"),
            EXIT_SEMANTIC,
            "semantic error: [stage variety] H passes through the blow-up point (1, 2, 3)\n",
        ),
        # reduce_rays stopped at a weight outside the cone with a bare message
        (
            _cox_rays("(1,0,0,0,0) (0,1,0,0,0) (0,0,1,0,0) (0,0,0,1,0) (0,0,0,0,1)"),
            EXIT_SEMANTIC,
            EFFECTIVE_CONE_REFUSAL,
        ),
        (
            _cox_rays(COX_RAYS.removesuffix(" (1,-1,-1,0,0)")),
            EXIT_SEMANTIC,
            EFFECTIVE_CONE_REFUSAL,
        ),
    ],
    ids=["plane", "width-2", "line-through-a-point", "positive-orthant", "nine-classes"],
)
def test_the_cox_pipeline_refuses_what_it_cannot_run(text, code, message, tmp_path, capsys):
    job = tmp_path / "refused.pdiv"
    job.write_text(text)
    assert main([str(job), "--pipeline", "cox-s5"]) == code
    assert capsys.readouterr().err == message


_EVERY_ROUTE_SEMANTIC = dict.fromkeys(("eval", "subdivide", "general", "torus"), EXIT_SEMANTIC)


@pytest.mark.parametrize(
    "rays, codes, named",
    [
        # the whole plane: its tail is the origin, so coefficients are
        # polytopes, and D is not big on the half-plane cells
        (
            "(1,0) (-1,0) (0,1) (0,-1)",
            {"eval": EXIT_OK, "subdivide": EXIT_OK, "general": EXIT_SEMANTIC, "torus": EXIT_SEMANTIC},
            None,
        ),
        ("(1,1)", _EVERY_ROUTE_SEMANTIC, "((1, 1),)"),
        ("(1,0) (-1,0)", _EVERY_ROUTE_SEMANTIC, "((-1, 0), (1, 0))"),
    ],
)
def test_degenerate_weight_cones_exit_cleanly(tmp_path, capsys, rays, codes, named):
    job = tmp_path / "degenerate.pdiv"
    job.write_text(Path("jobs/p2.pdiv").read_text().replace("rays = (-1,1) (1,1)", f"rays = {rays}"))
    capsys.readouterr()
    for route, code in codes.items():
        assert main([str(job), "--pipeline", route]) == code, route
        err = capsys.readouterr().err
        assert "Traceback" not in err, route
        if named:
            assert f"the weight cone with rays {named} is not full-dimensional" in err, route


# The torus route on P^1 and P^3, with the rays and coefficients of the plane
# job: generator lines and the minimal generator count at each weight of the
# box |u|_1 <= 2, where the route misses no section
TORUS_JOBS = {
    "P1": (
        "[variety]\nbackend = projective-space\ncoordinates = x y\n"
        "form.D = x*y\nform.E = x - y\n"
        "[pdivisor]\nrays = (-1,1) (1,1)\ncoefficient.D = (0,1/2)\n"
        "coefficient.E = (-1,1) (1,1)\n",
        18,
        {(-1, 1): 1, (0, 1): 2, (1, 1): 1, (0, 2): 2},
    ),
    "P3": (
        "[variety]\nbackend = projective-space\ncoordinates = x y z w\n"
        "form.D = x*y*z*w\nform.E = (x - y)*(z - w)\n"
        "[pdivisor]\nrays = (-1,1) (1,1)\ncoefficient.D = (0,1)\n"
        "coefficient.E = (-1,1) (1,1)\n",
        238,
        {(-1, 1): 35, (0, 1): 84, (1, 1): 35, (0, 2): 0},
    ),
}


@pytest.mark.parametrize("name", sorted(TORUS_JOBS))
def test_the_torus_route_runs_on_every_projective_space(name, tmp_path, capsys):
    text, lines, minimal = TORUS_JOBS[name]
    job = tmp_path / f"{name}.pdiv"
    job.write_text(text)
    runs = []
    original = cli.run_torus

    def run_torus(y, d, domain):
        runs.append((y, d, original(y, d, domain)))
        return runs[-1][2]

    with mock.patch.object(cli, "run_torus", run_torus):
        assert main([str(job), "--pipeline", "torus"]) == EXIT_OK
    out = capsys.readouterr().out
    assert sum(line.startswith("weight ") for line in out.splitlines()) == lines
    [(y, d, result)] = runs
    assert degreewise_check(y, d, result.elements, 2) == (dict.fromkeys(minimal, 0), minimal)
    # the oracle sees a generator taken away
    first = next(e for e in result.elements if e.weight == (0, 1))
    kept = [e for e in result.elements if e.section != first.section]
    assert degreewise_check(y, d, kept, 1)[0][(0, 1)] == 1


PLANE_TORUS_DEGREES = {
    (-2, 2): 9, (-1, 1): 1, (-1, 2): 18, (0, 1): 10,
    (0, 2): 27, (1, 1): 1, (1, 2): 18, (2, 2): 9,
}


def test_the_torus_route_on_the_plane_job_is_minimal_below_degree_three():
    # the 93 distinct generators lie at b <= 2; box 4 reaches every weight
    # (a, b) of the cone |a| <= b with b <= 2, and the filter drops b = 3
    # and 4, which would take about 14 s
    job = parse_job(Path("jobs/p2.pdiv").read_text())
    y = build_variety(job)
    d = build_pdivisor(job, y)
    elements = _dedupe(run_torus(y, d).elements)
    assert Counter(e.weight for e in elements) == PLANE_TORUS_DEGREES
    missing, minimal = degreewise_check(y, d, elements, 4, where=lambda u: u[1] <= 2)
    assert missing == dict.fromkeys(PLANE_TORUS_DEGREES, 0)
    assert minimal == PLANE_TORUS_DEGREES


def test_the_general_generators_of_the_plane_job_lie_in_the_torus_algebra():
    # both routes on one variety: a torus section's coord: labels are
    # registered on the variety that first uses them
    job = parse_job(Path("jobs/p2.pdiv").read_text())
    y = build_variety(job)
    d = build_pdivisor(job, y)
    general = run_general(y, d).elements
    torus = _dedupe(run_torus(y, d).elements)
    assert (len(general), len(torus)) == (75, 93)
    assert all(one_shot_algebra_membership(y, e, torus) for e in general)
    # the general route exports its algebra for normalization: 47 of the
    # torus generators are not in it, and the square of each of them is
    outside = [e for e in torus if not one_shot_algebra_membership(y, e, general)]
    assert len(outside) == 47
    for e in outside:
        square = GradedElement(e.section * e.section, tuple(2 * x for x in e.weight))
        assert one_shot_algebra_membership(y, square, general)


@pytest.mark.parametrize("pipeline", ["general", "torus"])
def test_a_point_job_generates_the_semigroup_algebra(pipeline, tmp_path, capsys):
    # over a point the section algebra is that of the lattice points of the
    # weight cone, so both routes give its Hilbert basis; a point has no
    # prime divisor, so the job names only the rays
    job = tmp_path / "point.pdiv"
    job.write_text("[variety]\nbackend = point\n[pdivisor]\nrays = (1,0) (1,3)\n")
    assert main([str(job), "--pipeline", pipeline]) == EXIT_OK
    weights = {
        parse_vector(line.split("  ")[0].removeprefix("weight "))
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("weight ")
    }
    assert sorted(weights) == sorted(hilbert_basis(cone_from_rays([(1, 0), (1, 3)], 2)))


@pytest.mark.parametrize("pipeline", ["general", "torus"])
@pytest.mark.parametrize(
    "rays, named",
    [
        ("(1,0) (-1,0) (0,1)", "((-1, 0), (0, 1), (1, 0))"),
        (
            "(1,0,0) (-1,0,0) (0,1,0) (0,-1,0) (0,0,1)",
            "((-1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))",
        ),
        # a cone with no facets
        ("(1,0) (-1,0) (0,1) (0,-1)", "((-1, 0), (0, -1), (0, 1), (1, 0))"),
    ],
    ids=["half-plane", "slab", "whole-plane"],
)
def test_a_point_job_on_a_weight_cone_that_is_not_pointed_exits_cleanly(
    rays, named, pipeline, tmp_path, capsys
):
    # the algebra of the half-plane is k[x, 1/x, y]: the general route's
    # pruning search grew without bound and the torus route printed no
    # generators
    job = tmp_path / "point.pdiv"
    job.write_text(f"[variety]\nbackend = point\n[pdivisor]\nrays = {rays}\n")
    start = time.perf_counter()
    assert main([str(job), "--pipeline", pipeline]) == EXIT_SEMANTIC
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert f"[stage {pipeline}] the " in err
    assert f" with rays {named} is not pointed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, rays", [("point", "(1,0) (1,3)"), ("pyramid", "(1,0,1) (0,1,1) (-1,0,1) (0,-1,1)")]
)
def test_the_general_route_on_a_point_prints_the_stored_report(name, rays, tmp_path, capsys):
    # the pool, pruned and status lines and the Hilbert basis of the weight
    # cone: a wedge that saturates, and a square pyramid that is normal
    job = tmp_path / "point.pdiv"
    job.write_text(f"[variety]\nbackend = point\n[pdivisor]\nrays = {rays}\n")
    assert main([str(job), "--pipeline", "general"]) == EXIT_OK
    assert capsys.readouterr().out == Path(f"tests/golden/{name}.general.txt").read_text()


def _without_coefficients(path):
    text = Path(path).read_text()
    return "".join(line for line in text.splitlines(True) if not line.startswith("coefficient."))


COX_CONE = (
    "((0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), "
    "(1, -1, -1, 0, 0), (1, -1, 0, -1, 0), (1, -1, 0, 0, -1), (1, 0, -1, -1, 0), "
    "(1, 0, -1, 0, -1), (1, 0, 0, -1, -1))"
)


@pytest.mark.parametrize(
    "text, pipeline, code, message",
    [
        (
            Path(COX_JOB).read_text(),
            "torus",
            EXIT_BACKEND,
            "unsupported backend: [stage torus] the blowup-p2 base has no torus action\n",
        ),
        # a job with no coefficients is the zero divisor, which no bigness
        # criterion passes
        *(
            (
                _without_coefficients(COX_JOB),
                pipeline,
                EXIT_SEMANTIC,
                f"semantic error: [stage bigness] the p-divisor is not big on cell {COX_CONE}: "
                "D.H = 0 <= 0\n",
            )
            for pipeline in ("general", "cox-s5")
        ),
        (
            _without_coefficients("jobs/p2.pdiv"),
            "general",
            EXIT_SEMANTIC,
            "semantic error: [stage bigness] the p-divisor is not big on cell "
            "((-1, 1), (1, 1)): degree 0 <= 0\n",
        ),
    ],
    ids=["cox-torus", "cox-empty-general", "cox-empty-cox-s5", "plane-empty"],
)
def test_jobs_the_backend_refuses(text, pipeline, code, message, tmp_path, capsys):
    job = tmp_path / "refused.pdiv"
    job.write_text(text)
    assert main([str(job), "--pipeline", pipeline]) == code
    assert capsys.readouterr().err == message
