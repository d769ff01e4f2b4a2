"""Job files and the command line front end."""

from pathlib import Path

import pytest

from helpers import SIGMA_TILDE_RAYS
from pdivgen.cli import (
    EXIT_BACKEND,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    MAX_EXPONENT,
    JobParseError,
    JobSemanticError,
    build_pdivisor,
    build_variety,
    format_job,
    main,
    parse_fraction,
    parse_job,
    parse_polynomial,
    parse_vector,
    parse_vector_list,
)

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
    assert "2 maximal cones, 3 rays" in out


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
    # a huge power is rejected from the syntax tree, before it is built
    huge_power = tmp_path / "huge-power.pdiv"
    huge_power.write_text(shipped.replace("form.D = x*y*z", "form.D = (x+y)**100000"))
    assert main([str(huge_power)]) == EXIT_SEMANTIC
    capsys.readouterr()


def test_hilbert_pipeline(tmp_path, capsys):
    rays = " ".join("(" + ",".join(str(x) for x in r) + ")" for r in SIGMA_TILDE_RAYS)
    jobfile = tmp_path / "hb.pdiv"
    jobfile.write_text(
        f"[cone]\nrays = {rays}\ndualize = true\n\n[job]\npipeline = hilbert\n"
    )
    assert main([str(jobfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "hilbert basis: 65 elements" in out


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


def test_verify_flag(capsys):
    assert main(["jobs/p2.pdiv", "--pipeline", "eval", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "D((0, 1)) = 1/2 D + 1 E" in out


def test_cox_pipeline_without_jobfile(tmp_path, capsys):
    report = tmp_path / "cox.txt"
    assert main(["--pipeline", "cox-s5", "--output", str(report)]) == EXIT_OK
    capsys.readouterr()
    text = report.read_text()
    assert "76 maximal cones, 20 rays" in text
    assert "minors certificate: pass" in text
