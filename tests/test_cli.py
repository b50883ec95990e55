"""Command-line interface: exit codes, report shape, determinism."""

import json
import math

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
