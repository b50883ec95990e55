"""Command-line interface: exit codes, report shape, determinism."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import conesec.cli
from conesec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths


def test_volume_cube(capsys):
    code, rep = run_json(capsys, "volume", "--body", "cube", "--n", "3")
    assert code == 0
    assert rep["volume"] == pytest.approx(8.0)
    assert rep["centroid"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert rep["version"]
    assert rep["config"]["body"] == "cube"


def test_volume_with_monte_carlo(capsys):
    code, rep = run_json(capsys, "volume", "--body", "ball", "--n", "2",
                         "--mc", "20000", "--seed", "1")
    assert code == 0
    assert abs(rep["mc_estimate"] - math.pi) <= 4 * rep["mc_stderr"]


def test_section_command(capsys):
    code, rep = run_json(capsys, "section", "--body", "cube", "--n", "3",
                         "--u", "0,0,1")
    assert code == 0
    assert rep["section_volume"] == pytest.approx(4.0)


def test_section_normal_of_any_scale_gives_one_hyperplane(capsys):
    code, rep = run_json(capsys, "section", "--body", "cube", "--n", "3", "--u", "1e-13,0,0")
    assert code == 0
    assert rep["section_volume"] == pytest.approx(4.0, rel=1e-12)
    code, out, err = run(capsys, "section", "--body", "cube", "--n", "3", "--u", "0,0,0")
    assert code == 2
    assert "zero hyperplane normal" in err


def test_cone_volume_both_routes(capsys, tmp_path):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({
        "flat_basis": [[1.0, 0.0, 0.0]],
        "generators": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    }))
    code, rep = run_json(capsys, "cone-volume", "--body", "cube", "--n", "3",
                         "--cone", str(cone), "--route", "both")
    assert code == 0
    assert rep["polyhedral"] == pytest.approx(2.0)
    assert rep["radial"] == pytest.approx(2.0, rel=1e-3)


def test_body_from_json_file(capsys, tmp_path):
    body = tmp_path / "tri.json"
    body.write_text(json.dumps({
        "type": "vpolytope",
        "vertices": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]],
    }))
    code, rep = run_json(capsys, "volume", "--body", str(body))
    assert code == 0
    assert rep["volume"] == pytest.approx(2.0)


def test_ball_body_command(capsys):
    code, rep = run_json(capsys, "ball-body", "--body", "simplex", "--n", "3",
                         "--k", "1", "--p", "2", "--dirs", "2")
    assert code == 0
    assert all(row["radius"] > 0 for row in rep["radii"])


def test_intersection_and_ci_commands(capsys):
    code, rep = run_json(capsys, "intersection-body", "--body", "cube",
                         "--n", "3", "--dirs", "2")
    assert code == 0
    assert all(row["i_radius"] >= 4.0 - 1e-9 for row in rep["radii"])

    code, rep = run_json(capsys, "ci-body", "--body", "simplex", "--n", "3",
                         "--dirs", "4")
    assert code == 0
    assert rep["summary"]["upper_inclusion_holds"]
    assert rep["summary"]["num_uncertified"] == 0


def test_check_command_exit_zero(capsys):
    code, rep = run_json(capsys, "check", "gruenbaum", "--body", "simplex",
                         "--n", "3", "--dirs", "8", "--seed", "1")
    assert code == 0
    assert rep["num_failed"] == 0
    assert all(r["passed"] for r in rep["results"])


def test_check_part1_with_parameters(capsys):
    code, rep = run_json(capsys, "check", "part1", "--body", "random",
                         "--n", "4", "--seed", "3", "--k", "2", "--p", "2")
    assert code == 0
    r = rep["results"][0]
    assert r["parameters"] == {"n": 4, "k": 2, "p": 2}


def test_check_lemma5_is_tight_on_the_simplex(capsys):
    # -T = n T for the centred simplex T: the reflection factor is n exactly
    code, rep = run_json(capsys, "check", "lemma5", "--body", "simplex", "--n", "3")
    assert code == 0
    (r,) = rep["results"]
    assert r["passed"] and r["lhs"] == pytest.approx(3.0, rel=1e-12)


def test_check_prop8_and_part2(capsys):
    code, rep = run_json(capsys, "check", "prop8", "--body", "cube", "--n", "3")
    assert code == 0 and rep["num_failed"] == 0
    code, rep = run_json(capsys, "check", "part2", "--body", "random", "--n", "4",
                         "--seed", "3")
    assert code == 0 and rep["num_failed"] == 0
    assert rep["results"][0]["parameters"] == {"n": 4, "k": 1, "p": 1}


@pytest.mark.parametrize("name", ["gruenbaum", "part1", "part2", "fradelizi", "lemma5",
                                  "lemma7", "prop8"])
def test_every_named_check_passes_on_the_cube(capsys, name):
    code, rep = run_json(capsys, "check", name, "--body", "cube", "--n", "3", "--dirs", "2")
    assert code == 0 and rep["num_failed"] == 0 and rep["results"]


def test_check_fradelizi_takes_k_and_records_its_route(capsys):
    # the cube's profiles are flat: max f = f(0), 4 at k = 1 and 2 at k = 2
    for k, m, route, top in ((1, 2, "vertex-heights", 4.0), (2, 1, "lp", 2.0)):
        code, rep = run_json(capsys, "check", "fradelizi", "--body", "cube", "--n", "3",
                             "--k", str(k))
        (r,) = rep["results"]
        assert code == 0 and r["parameters"] == {"k": k, "m": m, "max_route": route}
        assert r["lhs"] == pytest.approx(top, rel=1e-12)
        assert r["rhs"] == pytest.approx((1 + k / (m + 1)) ** m * top, rel=1e-12)


def test_check_fradelizi_at_k1_on_an_apex_down_cone(capsys, tmp_path):
    # the 3-D cone with its base on top: f at the base's height is the
    # base's area, read from the side the cone lies on (it read 0, and the
    # check exited 2, before); f(0) is the maximum, the equality case
    body = tmp_path / "cone.json"
    V = [[-0.5773502691896257, -0.5773502691896257, 0.25], [0.788675134594813, -0.21132486540518716, 0.25],
         [-0.21132486540518716, 0.788675134594813, 0.25], [0.0, 0.0, -0.75]]
    body.write_text(json.dumps({"type": "vpolytope", "vertices": V}))
    code, rep = run_json(capsys, "check", "fradelizi", "--body", str(body), "--k", "1")
    (r,) = rep["results"]
    assert code == 0 and r["passed"] and r["parameters"]["max_route"] == "vertex-heights"
    assert r["lhs"] == pytest.approx(r["rhs"], rel=1e-12)


def test_experiment_remark3_and_alpha(capsys):
    code, rep = run_json(capsys, "experiment", "remark3", "--n", "4")
    assert code == 0
    assert rep["results"][0]["lhs"] == pytest.approx(4.0 ** 2 / math.factorial(4), rel=1e-9)
    code, rep = run_json(capsys, "experiment", "alpha", "--n", "2", "--trials", "2")
    assert code == 0
    assert rep["trials"] == 2 and len(rep["values"]) == 2
    assert rep["min_value"] == min(rep["values"])


def test_experiment_remark1(capsys):
    code, rep = run_json(capsys, "experiment", "remark1", "--n", "4", "--l", "2")
    assert code == 0
    assert rep["results"][0]["lhs"] == pytest.approx((2.0 / 5.0) ** 2, rel=1e-9)


def test_check_rows_take_one_report(capsys, monkeypatch):
    # check, corpus and the remark1/remark3 experiments report results and
    # num_failed, and exit 1 on a failed row; experiment has no --format
    code, rep = run_json(capsys, "experiment", "remark3", "--n", "2")
    assert code == 0 and rep["num_failed"] == 0 and len(rep["results"]) == 1
    code, rep = run_json(capsys, "corpus", "--limit", "1")
    assert code == 0 and rep["num_failed"] == 0 and rep["num_checks"] == len(rep["results"])
    failed = conesec.cli.CheckResult("equality", "body", {}, 2.0, 1.0, 0.0, passed=False)
    monkeypatch.setattr(conesec.cli, "experiment_remark1", lambda n, l: failed)
    code, rep = run_json(capsys, "experiment", "remark1", "--n", "3", "--l", "1")
    assert code == 1 and rep["num_failed"] == 1 and rep["results"] == [failed.to_record()]


def test_experiment_remark2_table(capsys):
    code, rep = run_json(capsys, "experiment", "remark2", "--n", "2")
    assert code == 0
    assert rep["target"] == pytest.approx(4.0)
    assert rep["nondecreasing_within_1pct"]


def test_corpus_limited(capsys):
    code, rep = run_json(capsys, "corpus", "--limit", "2")
    assert code == 0
    assert rep["num_failed"] == 0
    assert rep["num_checks"] > 0


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_corpus_limit_below_1_exits_2(capsys, limit):
    # -1 ran 74 of the 75 bodies, and 0 all of them
    code, out, err = run(capsys, "corpus", "--limit", limit)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--limit" in err


def test_cone_of_another_dimension_exits_2(capsys, tmp_path):
    # generators in R^3 for a body in R^4 raised numpy's reshape error; both dimensions are named
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"generators": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
    code, out, err = run(capsys, "cone-volume", "--body", "cube", "--n", "4", "--cone", str(cone))
    assert code == 2
    assert err.startswith("error:") and "R^3" in err and "R^4" in err


# ---------------------------------------------------------------------------
# output plumbing


def test_csv_format(capsys):
    code, out, err = run(capsys, "check", "lemma7", "--body", "cube", "--n", "3",
                         "--dirs", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,body,n,k,p,lhs,rhs,ratio,passed"
    assert len(lines) > 1
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ("volume", "--body", "cube", "--n", "3"),
    ("section", "--body", "cube", "--n", "3", "--u", "0,0,1"),
    ("ball-body", "--body", "cube", "--n", "3", "--k", "1", "--dirs", "2"),
    ("experiment", "remark1", "--n", "3", "--l", "1"),
])
def test_format_is_rejected_where_no_csv_is_written(capsys, argv):
    # only check and corpus write CSV; elsewhere --format would be ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_corpus_writes_csv(capsys):
    code, out, err = run(capsys, "corpus", "--limit", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "name,body,n,k,p,lhs,rhs,ratio,passed"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "volume", "--body", "cube", "--n", "2",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["volume"] == pytest.approx(4.0)


def test_reports_are_deterministic_modulo_wall_clock(capsys):
    _, rep1 = run_json(capsys, "check", "gruenbaum", "--body", "random",
                       "--n", "3", "--seed", "5", "--dirs", "4")
    _, rep2 = run_json(capsys, "check", "gruenbaum", "--body", "random",
                       "--n", "3", "--seed", "5", "--dirs", "4")
    rep1.pop("wall_clock_s")
    rep2.pop("wall_clock_s")
    assert rep1 == rep2


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_body_exits_2(capsys):
    code, out, err = run(capsys, "volume", "--body", "dodecahedron", "--n", "3")
    assert code == 2
    assert "error:" in err


def test_builtin_body_without_dimension_exits_2(capsys):
    code, out, err = run(capsys, "volume", "--body", "cube")
    assert code == 2
    assert "needs --n" in err


@pytest.mark.parametrize("argv, option", [
    (("check", "part1", "--k", "0"), "--k"),
    (("check", "part1", "--p", "0"), "--p"),
    (("check", "part2", "--k", "0", "--p", "0"), "--k"),
    (("check", "fradelizi", "--k", "0"), "--k"),
    (("check", "part1", "--points", "0"), "--points"),
    (("check", "gruenbaum", "--dirs", "-1"), "--dirs"),
    (("check", "part1", "--k", "one"), "--k"),
], ids=["part1-k0", "part1-p0", "part2-k0-p0", "fradelizi-k0", "points0", "dirs-negative", "k-not-an-int"])
def test_counts_below_their_least_value_exit_2_and_name_the_option(capsys, argv, option):
    # k = p = 0 ran k = p = 1, and --points 0 ran 2n + 6 points, each with
    # the 0 echoed in the report; a negative --dirs failed inside numpy
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--body", "random", "--n", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {option}:" in err


def test_absent_counts_keep_their_defaults(capsys):
    code, rep = run_json(capsys, "check", "part1", "--body", "random", "--n", "3")
    assert code == 0 and rep["results"][0]["parameters"] == {"n": 3, "k": 1, "p": 1}
    assert "k" not in rep["config"] and "points" not in rep["config"] and rep["config"]["dirs"] == 32
    code, rep = run_json(capsys, "check", "gruenbaum", "--body", "random", "--n", "3", "--dirs", "0")
    assert code == 0 and len(rep["results"]) == 6  # the 2n axis directions only


def test_bad_cone_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "cone.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "cone-volume", "--body", "cube", "--n", "3",
                         "--cone", str(bad))
    assert code == 2


@pytest.mark.parametrize("generators", [
    [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],  # quarter wedge, three generators
    [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],  # a line
])
def test_non_simplicial_cone_file_exits_2(capsys, tmp_path, generators):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"flat_basis": [[1.0, 0.0, 0.0]], "generators": generators}))
    code, out, err = run(capsys, "cone-volume", "--body", "ball", "--n", "3",
                         "--cone", str(cone), "--route", "both")
    assert code == 2
    assert "simplicial" in err


def test_bad_vector_exits_2(capsys):
    code, out, err = run(capsys, "section", "--body", "cube", "--n", "3",
                         "--u", "a,b,c")
    assert code == 2


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [1.0, float("nan")], [0.0, 1.0]],  # non-finite vertex
    [[0.0] * 9] + [[float(i == j) for j in range(9)] for i in range(9)],  # 9-D, over MAX_DIM
])
def test_malformed_vpolytope_file_exits_2(capsys, tmp_path, vertices):
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"type": "vpolytope", "vertices": vertices}))
    code, out, err = run(capsys, "volume", "--body", str(body))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("option, spec, field", [
    ("--body", {"type": "ball", "n": 3, "center": [0, 0, 0, 0]}, "center"),  # a 4-D ball before
    ("--body", {"type": "hpolytope", "halfspaces": [{"a": [1.0, 0.0]}]}, "'b'"),
    ("--body", {"type": "simplex"}, "'n'"),
    ("--body", {"n": 3}, "'type'"),
    ("--body", {"type": "random", "n": 3}, "'points'"),
    ("--body", [{"type": "cube", "n": 3}], "JSON object"),
    ("--cone", {"flat_basis": [[1.0, 0.0, 0.0]]}, "'generators'"),
    ("--corpus", {"body": []}, "'bodies'"),
    ("--body", {"type": "cube", "n": "3"}, "'n'"),
    ("--body", {"type": "cube", "n": 2.5}, "'n'"),
    ("--body", {"type": "ball", "n": 2, "radius": "x"}, "'radius'"),
    ("--body", {"type": "random", "n": 3, "points": 10, "seed": "a"}, "'seed'"),
    ("--body", {"type": "ball", "n": 2, "radius": 10**400}, "'radius'"),  # no float holds it
    ("--body", {"type": "ball", "n": 2, "radius": 1e308}, "'radius'"),  # nor its volume
    ("--body", {"type": "ball", "n": 2, "radius": 1e150}, "'radius'"),  # nor its second moments
    ("--body", {"type": "ball", "n": 2, "center": [1e200, 0]}, "'center'"),
    ("--body", {"type": "ball", "n": 2, "center": [1e150, 0], "radius": 1e-300}, "'radius'"),  # volume below a float's least normal
], ids=["ball-center", "halfspace-b", "simplex-n", "type", "random-points", "array",
        "cone-generators", "corpus-bodies", "cube-n-string", "cube-n-float", "ball-radius-string",
        "random-seed-string", "ball-radius-overflow", "ball-volume-overflow", "ball-moment-overflow-radius",
        "ball-moment-overflow-center", "ball-volume-underflow"])
def test_malformed_spec_exits_2(capsys, tmp_path, option, spec, field):
    # a missing, mismatched or wrong-typed field is a bad configuration,
    # named in the error
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = {"--body": ["volume"], "--cone": ["cone-volume", "--body", "cube", "--n", "3"],
            "--corpus": ["corpus"]}[option]
    code, out, err = run(capsys, *argv, option, str(path))
    assert code == 2
    assert err.startswith("error:") and field in err


def test_corpus_checks_radial_route_chord_maximum_and_chebyshev_centre_never_load_scipy_optimize():
    # in a fresh interpreter: the cube-6 battery (its vertices from one
    # halfspace intersection started at 0) and a radial query solve no LP
    # and search nothing; the m = 1 chord maximum and the Chebyshev centre
    # of an H-built body whose 0 is not clearly interior each solve one LP
    # by the in-house walk, and still nothing loads scipy.optimize
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import conesec.cli
        from conesec import geometry, verify
        from conesec.ball_bodies import estimate_max, oracle_from_section_fn
        from conesec.geometry import (HPolytope, PolyhedralCone, Subspace, VPolytope, radial,
                                      random_centered_polytope)
        from conesec.sections import cone_section_volume_radial, section_volume_fn
        from conesec.volume import body_volume

        results = verify.checks_for_body({"label": "cube-6", "type": "cube", "n": 6})
        assert results and all(r.passed for r in results)
        K, e = random_centered_polytope(3, 12, 8), np.eye(3)
        assert cone_section_volume_radial(K, Subspace.from_span(e[:1], ambient_dim=3),
                                          PolyhedralCone(e[1:])) > 0
        assert "scipy.optimize" not in sys.modules
        f = oracle_from_section_fn(section_volume_fn(K, Subspace.from_span(e[:1], ambient_dim=3)))
        V = K.vertices
        chord = radial(VPolytope((V[:, None] - V[None]).reshape(-1, 3)), e[0])
        assert abs(estimate_max(f) - chord) <= 1e-12 * chord, (estimate_max(f), chord)
        assert "scipy.optimize" not in sys.modules
        centres, real = [], geometry.chebyshev_center
        geometry.chebyshev_center = lambda A, b: centres.append(1) or real(A, b)
        near = HPolytope(np.vstack([e, -e]), [2.0, 1.0, 1.0, 1.999e-3, 1.0, 1.0])
        assert len(centres) == 1
        assert abs(body_volume(near) - 4 * 2.001999) <= 1e-12 * 4 * 2.001999, body_volume(near)
        assert "scipy.optimize" not in sys.modules
    """)
    src = str(Path(conesec.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("uncertified, holds", [(1, True), (0, False)])
def test_ci_body_exits_1_on_uncertified_solve_or_failed_inclusion(
        capsys, monkeypatch, uncertified, holds):
    def report(K, num_dirs, seed):
        return {"summary": {"num_uncertified": uncertified, "upper_inclusion_holds": holds}}

    monkeypatch.setattr(conesec.cli, "ci_inclusion_report", report)
    code, rep = run_json(capsys, "ci-body", "--body", "cube", "--n", "3", "--dirs", "2")
    assert code == 1
    assert rep["summary"]["num_uncertified"] == uncertified


def test_unknown_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
