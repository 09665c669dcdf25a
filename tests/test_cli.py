import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expressions

from radial import DualHandle, LiftedPoint, Sense, check_radial, cli, extpos_gap, gamma_point, parse_function
from radial.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_cap_value_line(self, capsys):
        code, out, _ = run_cli(["eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1"], capsys)
        assert code == 0
        line = out.splitlines()[0]
        value = float(line.split("±")[0])
        assert abs(value - math.sqrt(2.0)) <= 1e-9
        assert line.endswith("± 1e-10")
        assert "bracket [" in out.splitlines()[1]

    def test_zero_tag(self, capsys):
        code, out, _ = run_cli(["eval", "--f", "abs(x0)", "--dim", "1", "--at", "2", "--sense", "upper"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_infinity_tag(self, capsys):
        code, out, _ = run_cli(["eval", "--f", "abs(x0)", "--dim", "1", "--at", "0.5"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "inf"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "--f", "max(", "--dim", "1", "--at", "1"], capsys)
        assert code == 2
        assert "offset 4" in err

    def test_nonmonotone_exit_3_with_hint(self, capsys):
        code, _, err = run_cli(["eval", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--at", "-3"], capsys)
        assert code == 3
        assert "--global" in err

    def test_upward_guard_exit_3(self, capsys):
        """At 0.5 the profile of x0^2 is 0.25 / v, below 1 at v = 1, so the
        upper search expands upward; the profile falls there and the guard
        trips."""
        code, out, err = run_cli(["eval", "--f", "x0^2", "--dim", "1", "--at", "0.5"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: perspective profile decreased from 0.25 at v=1 to 0.125 at v=2; ")

    def test_overflowing_halfspace_product_warns_nothing(self, capsys):
        # a.(y/v) overflows to inf at small heights; y/v is outside the
        # halfspace at every searched height, so the transform is inf.
        code, out, err = run_cli(["eval", "--f", "indicator(halfspace 1e300 1)", "--dim", "1", "--at=1e12"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "inf"
        assert err == ""

    def test_overflowing_point_division_warns_nothing(self, capsys):
        # y / v overflows to inf at the small heights of the downward
        # expansion; the division runs over Python floats, so no numpy
        # overflow warning reaches stderr, and f(inf) = inf is the INF tag.
        code, out, err = run_cli(["eval", "--f", "x0^2+1e-300", "--dim", "1", "--at=1e300"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "0\nbracket [9.9999999999999998e-13, 9.9999999999999998e-13] perspective [inf, inf] evaluations 41 mode monotone\n"
        )

    def test_global_scan_flag(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--at", "-1", "--global"], capsys
        )
        assert code == 0
        value = float(out.splitlines()[0].split("±")[0])
        assert abs(value - (1.0 + 1.0 / math.sqrt(3.0))) <= 1e-6

    def test_lower_sense(self, capsys):
        code, out, _ = run_cli(["eval", "--f", "abs(x0)", "--dim", "1", "--at", "1", "--sense", "lower"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "0"

    @pytest.mark.parametrize(
        "expr",
        ["(" * 300 + "x0" + ")" * 300, "^".join(["x0"] * 1000 + ["1"]), "+".join(["x0"] * 1000)],
        ids=["300 parentheses", "1000 powers", "1000-term sum"],
    )
    def test_deep_expression_is_a_parse_error(self, expr, capsys):
        """Input deeper than the grammar's limits ends in exit 2 and one
        error line, not a RecursionError traceback."""
        code, out, err = run_cli(["eval", "--f", expr, "--dim", "1", "--at", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: expression ") and "deeper than" in err

    def test_a_400_term_sum_still_evaluates(self, capsys):
        code, out, _ = run_cli(["eval", "--f", "+".join(["x0"] * 400), "--dim", "1", "--at", "1"], capsys)
        assert code == 0
        assert "perspective [400, 400]" in out

    def test_tol_flag_changes_display(self, capsys):
        code, out, _ = run_cli(
            ["--tol", "1e-6", "eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1"], capsys
        )
        assert code == 0
        assert out.splitlines()[0].endswith("± 1e-06")


# Exact eval output of the scalar search: exit code, value line and
# certificate (bracket, perspective at its ends, evaluation count, mode),
# or the guard's error and hint.
GOLDEN_EVAL = [
    (
        ["eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1"],
        0,
        "1.4142135623 ± 1e-10\n"
        "bracket [1.4142135622678325, 1.4142135623842478] perspective [0.99999999985113619, 1.0000000000157723] evaluations 35 mode monotone\n",
        "",
    ),
    (
        ["eval", "--f", "abs(x0)", "--dim", "1", "--at", "2"],
        0,
        "0\nbracket [9.9999999999999998e-13, 9.9999999999999998e-13] perspective [2, 2] evaluations 41 mode monotone\n",
        "",
    ),
    (
        ["eval", "--f", "abs(x0)", "--dim", "1", "--at", "0.5"],
        0,
        "inf\nbracket [1000000000000, 1000000000000] perspective [0.5, 0.5] evaluations 41 mode monotone\n",
        "",
    ),
    (
        ["eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1", "--sense", "lower"],
        0,
        "1.4142135624 ± 1e-10\n"
        "bracket [1.4142135622678325, 1.4142135623842478] perspective [0.99999999985113619, 1.0000000000157723] evaluations 35 mode monotone\n",
        "",
    ),
    (
        ["eval", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--at", "-1", "--global"],
        0,
        "1.5773502691 ± 1e-10\n"
        "bracket [1.5773502691106498, 1.5773502692656802] perspective [0.99999999991327826, 1.0000000000835136] evaluations 1053 mode global\n",
        "",
    ),
    (
        ["eval", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--at", "-1", "--global", "--sense", "lower"],
        0,
        "0\nbracket [9.9999999999999998e-13, 9.9999999999999998e-13] perspective [999999999998, 999999999998] evaluations 1024 mode global\n",
        "",
    ),
    (
        ["eval", "--f", "indicator(ball 1)", "--dim", "2", "--at", "0.3,0.4", "--global"],
        0,
        "0.5000000000 ± 1e-10\n"
        "bracket [0.49999999995035155, 0.50000000005007073] perspective [0, inf] evaluations 1052 mode global\n",
        "",
    ),
    (
        ["eval", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--at", "-3"],
        3,
        "",
        "error: perspective profile decreased from 12.75 at v=0.5 to 4.5 at v=1; "
        "the base function is not declared ray-monotone (retry with global_scan for a scanned approximation)\n"
        "hint: retry with --global\n",
    ),
]


@pytest.mark.parametrize("argv,code,out,err", GOLDEN_EVAL, ids=[" ".join(a) for a, *_ in GOLDEN_EVAL])
def test_eval_output_is_unchanged(argv, code, out, err, capsys):
    assert run_cli(argv, capsys) == (code, out, err)


class TestGrid:
    def test_deterministic_and_residual_small_inside_cap(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["grid", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--grid=-3:3:601", "--out"]
        assert run_cli(args + [str(out1)], capsys)[0] == 0
        assert run_cli(args + [str(out2)], capsys)[0] == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2  # byte-identical reruns
        lines = b1.decode().splitlines()
        header = lines[0].split(",")
        assert header == ["x0", "f", "upper", "lower", "bidual", "residual"]
        worst = 0.0
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            x = float(cells["x0"])
            if abs(x) < 1.0:
                worst = max(worst, float(cells["residual"]))
                assert abs(float(cells["upper"]) - math.sqrt(1 + x * x)) <= 1e-9
        assert worst <= 5e-10

    def test_quadratic_residual_visible_with_global(self, capsys, tmp_path):
        out = tmp_path / "quad.csv"
        code, _, _ = run_cli(
            [
                "grid", "--f", "(x0+1)^2 + 0.5", "--dim", "1",
                "--grid=-3:1:21", "--out", str(out),
                "--emit", "primal,bidual,residual", "--global",
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        residuals = [float(dict(zip(header, l.split(",")))["residual"]) for l in lines[1:]]
        assert max(residuals) > 0.1

    def test_gamma_curve_emission(self, capsys, tmp_path):
        # Point cloud of the transformed graph of a sine wave at height 2.
        out = tmp_path / "sine.csv"
        code, _, _ = run_cli(
            [
                "grid", "--f", "2 + sin(x0)", "--dim", "1",
                "--grid=-6:6:41", "--out", str(out), "--emit", "primal,gamma",
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["x0", "f", "gamma_y0", "gamma_v"]
        for line in lines[1:]:
            x, fx, gy, gv = (float(t) for t in line.split(","))
            assert abs(fx - (2 + math.sin(x))) <= 1e-12
            assert abs(gy - x / fx) <= 1e-12
            assert abs(gv - 1 / fx) <= 1e-12

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "grid.json"
        code, _, _ = run_cli(
            ["grid", "--f", "abs(x0)", "--dim", "1", "--grid=0.5:2:4", "--out", str(out), "--emit", "dual", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "radial/v1"
        assert doc["columns"] == ["x0", "upper"]
        assert doc["rows"][0] == [0.5, "inf"]
        assert doc["rows"][-1] == [2.0, 0]

    def test_grid_spec_validation(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["grid", "--f", "abs(x0)", "--dim", "1", "--grid=1:2:1", "--out", str(tmp_path / "x")], capsys)
        assert exc.value.code == 2

    def test_two_d_grid(self, capsys, tmp_path):
        out = tmp_path / "g2.csv"
        code, _, _ = run_cli(
            [
                "grid", "--f", "pos(sqrt(1 - norm(x0,x1)^2))", "--dim", "2",
                "--grid=-0.5:0.5:3,-0.5:0.5:3", "--out", str(out), "--emit", "primal,dual",
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["x0", "x1", "f", "upper"]
        assert len(lines) == 10
        first = [float(t) for t in lines[1].split(",")]
        assert first[:2] == [-0.5, -0.5]
        assert abs(first[3] - math.sqrt(1.5)) <= 1e-9

    @pytest.mark.parametrize(
        "count,message",
        [("2.5", "expected an integer, got '2.5'"), ("1", "must be at least 2, got 1")],
        ids=["fraction", "one"],
    )
    def test_axis_count_messages(self, count, message, tmp_path, capsys):
        argv = ["grid", "--f", "x0", "--dim", "1", f"--grid=0:1:{count}", "--out", str(tmp_path / "g.csv")]
        assert exit_code(argv) == 2
        assert f"argument --grid: {message}\n" in capsys.readouterr().err


ELLIPSOID_IN_POLYHEDRON = {
    "schema": "radial/v1",
    "type": "polyhedron",
    "halfspaces": [
        {"schema": "radial/v1", "type": "ellipsoid", "center": {"x": [0], "u": 1}, "shape": [[1, 0], [0, 4]]}
    ],
}
POLYHEDRON_IN_POLYHEDRON = {
    "schema": "radial/v1",
    "type": "polyhedron",
    "halfspaces": [{"schema": "radial/v1", "type": "polyhedron", "halfspaces": []}],
}
# json.load reads Infinity; the shape is refused before numpy computes with it.
INFINITE_SHAPE = {"schema": "radial/v1", "type": "ellipsoid", "center": {"x": [0.0], "u": 2.0}, "shape": [[math.inf, 0.0], [0.0, 1.0]]}
# The image's height component -(zeta.x + delta u) overflows.
HUGE_NORMAL = {"schema": "radial/v1", "type": "halfspace", "normal_x": [1e308, 1e308], "normal_u": 1e308, "anchor": {"x": [1.0, 1.0], "u": 1.0}}


class TestSetTransform:
    def test_ellipsoid_instance(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(
            json.dumps(
                {
                    "schema": "radial/v1",
                    "type": "ellipsoid",
                    "center": {"x": [0.0], "u": 2.0},
                    "shape": [[1.0, 0.0], [0.0, 1.0]],
                }
            )
        )
        code, _, _ = run_cli(["set-transform", "--in", str(src), "--out", str(dst)], capsys)
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["type"] == "ellipsoid"
        assert abs(doc["center"]["u"] - 2.0 / 3.0) <= 1e-12
        shape = np.array(doc["shape"])
        assert np.max(np.abs(shape - np.diag([3.0, 9.0]))) <= 1e-12

    def test_horizontal_halfspace_reverses(self, capsys, tmp_path):
        src = tmp_path / "h.json"
        dst = tmp_path / "ht.json"
        src.write_text(
            json.dumps(
                {
                    "schema": "radial/v1",
                    "type": "halfspace",
                    "normal_x": [0.0],
                    "normal_u": 1.0,
                    "anchor": {"x": [0.0], "u": 1.0},
                }
            )
        )
        code, _, _ = run_cli(["set-transform", "--in", str(src), "--out", str(dst)], capsys)
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["normal_u"] == -1.0 and doc["normal_x"] == [0.0]

    def test_square_polyhedron(self, capsys, tmp_path):
        def hs(nx, nu, x, u):
            return {"schema": "radial/v1", "type": "halfspace", "normal_x": [nx], "normal_u": nu, "anchor": {"x": [x], "u": u}}

        src = tmp_path / "p.json"
        dst = tmp_path / "pt.json"
        src.write_text(
            json.dumps(
                {
                    "schema": "radial/v1",
                    "type": "polyhedron",
                    "halfspaces": [hs(1, 0, 1, 2), hs(-1, 0, -1, 2), hs(0, 1, 0, 3), hs(0, -1, 0, 1)],
                }
            )
        )
        code, _, _ = run_cli(["set-transform", "--in", str(src), "--out", str(dst)], capsys)
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["type"] == "polyhedron" and len(doc["halfspaces"]) == 4

    def test_schema_violation_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"type": "halfspace"}))
        code, _, err = run_cli(["set-transform", "--in", str(src), "--out", str(tmp_path / "o.json")], capsys)
        assert code == 2 and "schema" in err

    def test_containment_violation_exit_2(self, capsys, tmp_path):
        src = tmp_path / "low.json"
        src.write_text(
            json.dumps(
                {
                    "schema": "radial/v1",
                    "type": "ellipsoid",
                    "center": {"x": [0.0], "u": 0.9},
                    "shape": [[1.0, 0.0], [0.0, 1.0]],
                }
            )
        )
        code, _, err = run_cli(["set-transform", "--in", str(src), "--out", str(tmp_path / "o.json")], capsys)
        assert code == 2 and "contained" in err

    @pytest.mark.parametrize(
        "doc", [ELLIPSOID_IN_POLYHEDRON, POLYHEDRON_IN_POLYHEDRON], ids=["ellipsoid-part", "polyhedron-part"]
    )
    def test_a_polyhedron_of_other_sets_exit_2(self, doc, capsys, tmp_path):
        src, dst = tmp_path / "p.json", tmp_path / "o.json"
        src.write_text(json.dumps(doc))
        code, out, err = run_cli(["set-transform", "--in", str(src), "--out", str(dst)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: bad polyhedron document: a polyhedron's parts must be halfspaces\n"
        assert not dst.exists()

    @pytest.mark.parametrize(
        "doc,message",
        [(INFINITE_SHAPE, "bad ellipsoid document: shape must be finite"), (HUGE_NORMAL, "cannot transform halfspace: normal_u must be finite")],
        ids=["infinite-shape", "huge-normal"],
    )
    def test_a_set_out_of_the_float_range_exits_2_with_one_line(self, doc, message, capsys, tmp_path):
        src, dst = tmp_path / "s.json", tmp_path / "o.json"
        src.write_text(json.dumps(doc))
        code, out, err = run_cli(["set-transform", "--in", str(src), "--out", str(dst)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not dst.exists()


class TestCheck:
    def test_strictly_radial_exit_0(self, capsys):
        code, out, _ = run_cli(["check", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--rays", "16", "--points", "32"], capsys)
        assert (code, out.splitlines()[0]) == (0, "strictly radial (sampled)")

    def test_quadratic_exit_1_with_witness(self, capsys):
        code, out, _ = run_cli(["check", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--rays", "16", "--points", "32"], capsys)
        assert (code, out.splitlines()[0]) == (1, "not radial: 253 witness(es)")
        assert out.splitlines()[1].startswith("witness: y=(")

    def test_bump_exit_0(self, capsys):
        code, out, _ = run_cli(["check", "--f", "exp(-abs(x0)) + 0.5", "--dim", "1", "--rays", "16", "--points", "32"], capsys)
        assert (code, out.splitlines()[0]) == (0, "strictly radial (sampled)")

    def test_absval_not_strict(self, capsys):
        code, out, _ = run_cli(["check", "--f", "abs(x0)", "--dim", "1", "--rays", "16", "--points", "32"], capsys)
        assert (code, out.splitlines()[0]) == (0, "radial (sampled; not strict)")

    def test_indicator_inconclusive_exit_4(self, capsys):
        code, out, _ = run_cli(["check", "--f", "indicator(ball 1)", "--dim", "1", "--rays", "4", "--points", "16"], capsys)
        assert (code, out) == (4, "inconclusive: no informative samples\n")


class TestSolve:
    def test_parabola_json(self, capsys):
        code, out, _ = run_cli(["solve", "--f", "pos(2 - (x0-1)^2)", "--dim", "1", "--y0", "5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["x_star"][0] - 1.0) <= 1e-5
        assert abs(doc["p_star"] - 2.0) <= 1e-5
        assert doc["iterations"] >= 1 and doc["converged"]

    def test_quadratic_exit_3(self, capsys):
        code, _, err = run_cli(["solve", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--y0", "1"], capsys)
        assert code == 3 and "radial" in err.lower()

    def test_inconclusive_sample_exit_3(self, capsys):
        code, out, err = run_cli(["solve", "--f", "indicator(ball 1)", "--dim", "1", "--y0", "0.5"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: radiality check: unknown (0 witnesses)\n"

    def test_budget_exhaustion_exit_5_with_partial_result(self, capsys):
        code, out, err = run_cli(
            ["solve", "--f", "pos(2 - (x0-1)^2)", "--dim", "1", "--y0", "5", "--budget", "2"], capsys
        )
        assert code == 5
        doc = json.loads(out)  # partial result still printed
        assert doc["status"] == "budget" and not doc["converged"]

    def test_budget_exit_reports_the_returned_iterates_gradient_norm(self, capsys):
        code, out, _ = run_cli(["solve", "--f", "pos(1-x0^2)", "--dim", "1", "--y0", "0.5", "--budget", "1"], capsys)
        assert code == 5
        doc = json.loads(out)
        assert abs(doc["y_star"][0] + 0.2071) <= 1e-4
        # The norm at y*, not the 0.7071 of the start point.
        assert abs(doc["grad_norm"] - 0.3827) <= 1e-4

    def test_ball_constraint(self, capsys, tmp_path):
        cpath = tmp_path / "ball.json"
        cpath.write_text(json.dumps({"schema": "radial/v1", "type": "ball", "dim": 1, "radius": 0.5}))
        code, out, _ = run_cli(
            ["solve", "--f", "pos(2 - (x0-1)^2)", "--dim", "1", "--y0", "2", "--constraint", str(cpath)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["x_star"][0] - 0.5) <= 1e-3

    def test_infeasible_start_exit_1(self, capsys):
        # The transform of a constant above the cap is the zero tag everywhere.
        code, out, err = run_cli(["solve", "--f", "1e13", "--dim", "1", "--y0", "1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: dual objective at the start point is 0.0; provide a feasible y0\n"

    def test_constraint_schema_error_exit_2(self, capsys, tmp_path):
        cpath = tmp_path / "bad.json"
        cpath.write_text(json.dumps({"schema": "radial/v1", "type": "cone"}))
        code, _, err = run_cli(
            ["solve", "--f", "pos(2 - (x0-1)^2)", "--dim", "1", "--y0", "2", "--constraint", str(cpath)], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc,line",
        [
            ({"type": "halfspace", "a": [[1]], "b": 1}, "bad halfspace constraint: halfspace requires a flat vector a"),
            ({"type": "box", "lo": [[-1]], "hi": [[1]]}, "bad box constraint: box requires flat vectors lo and hi"),
        ],
        ids=["halfspace", "box"],
    )
    def test_nested_constraint_vectors_exit_2(self, doc, line, capsys, tmp_path):
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"schema": "radial/v1", **doc}))
        code, out, err = run_cli(
            ["solve", "--f", "pos(2-(x0-1)^2)", "--dim", "1", "--y0", "0.3", "--constraint", str(cpath)], capsys
        )
        assert (code, out, err) == (2, "", f"error: {line}\n")


class TestEntryPointAndEnvironment:
    def test_console_entry_point_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "radial.cli", "eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("1.0000000000")

    def test_radial_tol_env_override(self):
        env = dict(os.environ, RADIAL_TOL="1e-6")
        proc = subprocess.run(
            [sys.executable, "-m", "radial.cli", "eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].endswith("± 1e-06")

    def test_flag_overrides_env(self):
        env = dict(os.environ, RADIAL_TOL="1e-4")
        proc = subprocess.run(
            [
                sys.executable, "-m", "radial.cli", "--tol", "1e-8",
                "eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].endswith("± 1e-08")

    def test_bad_env_value(self):
        env = dict(os.environ, RADIAL_TOL="banana")
        proc = subprocess.run(
            [sys.executable, "-m", "radial.cli", "eval", "--f", "abs(x0)", "--dim", "1", "--at", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag,env", [(["--tol", "1e-300"], {}), ([], {"RADIAL_TOL": "1e-300"})], ids=["flag", "env"])
    def test_tol_below_float_resolution_is_refused(self, flag, env):
        """A tol under which adjacent floats still miss the stop rule is a
        usage error; the timeout turns a search that never stops into a
        failure."""
        proc = subprocess.run(
            [sys.executable, "-m", "radial.cli", *flag, "eval", "--f", "pos(1-x0^2)", "--dim", "1", "--at", "0.5"],
            capture_output=True,
            text=True,
            env=dict(os.environ, **env),
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        usage, error = proc.stderr.splitlines()
        assert usage.startswith("usage: radial")
        assert error == (
            "radial: error: argument --tol: tolerance (--tol or RADIAL_TOL) must be a finite number "
            ">= 2.220446049250313e-16, got '1e-300'"
        )


class TestParserReuse:
    """main builds its parser once per process and reads RADIAL_TOL on
    every call."""

    ARGV = ["eval", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--at", "1"]

    def test_radial_tol_is_read_on_every_call(self, monkeypatch, capsys):
        for env, want in (("1e-6", "± 1e-06"), ("1e-4", "± 0.0001"), (None, "± 1e-10")):
            if env is None:
                monkeypatch.delenv("RADIAL_TOL")
            else:
                monkeypatch.setenv("RADIAL_TOL", env)
            code, out, _ = run_cli(self.ARGV, capsys)
            assert code == 0
            assert out.splitlines()[0].endswith(want)

    def test_bad_env_value_then_a_good_call(self, monkeypatch, capsys):
        monkeypatch.setenv("RADIAL_TOL", "banana")
        assert exit_code(self.ARGV) == 2
        assert "error: argument --tol" in capsys.readouterr().err
        monkeypatch.delenv("RADIAL_TOL")
        code, out, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        assert out.splitlines()[0].endswith("± 1e-10")

    def test_usage_error_leaves_the_parser_as_built(self, monkeypatch, capsys):
        monkeypatch.delenv("RADIAL_TOL", raising=False)
        cli._parser.cache_clear()
        first = run_cli(self.ARGV, capsys)
        assert exit_code(["eval", "--f", "x0", "--dim", "1", "--at", "1", "--sense", "sideways"]) == 2
        assert exit_code(["--tol", "0", "eval", "--f", "x0", "--dim", "1", "--at", "1"]) == 2
        capsys.readouterr()
        assert run_cli(self.ARGV, capsys) == first

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


CAP = "pos(2 - (x0-1)^2)"
BOX_2D = {"schema": "radial/v1", "type": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
# Parses (its containment margin is positive) but its image fails the
# definiteness certificate, so transform_set raises on it.
EDGE_ELLIPSOID = {
    "schema": "radial/v1",
    "type": "ellipsoid",
    "center": {"x": [0.0], "u": 1.0},
    "shape": [[1.0, 0.0], [0.0, 1.0000000000001]],
}
# The files CONTRACT reads as {dir}/name.  The five from nan_a.json on are
# constraint documents that json.load reads (it accepts NaN and Infinity)
# and the schema refuses; the four from ellipsoid_part.json on are refused
# by their shape, and the last two by numbers that leave the float range.
CONTRACT_FILES = {
    "box2.json": BOX_2D,
    "edge.json": EDGE_ELLIPSOID,
    "nan_a.json": {"schema": "radial/v1", "type": "halfspace", "a": [math.nan], "b": 1.0},
    "inf_b.json": {"schema": "radial/v1", "type": "halfspace", "a": [1.0], "b": math.inf},
    "frac_dim.json": {"schema": "radial/v1", "type": "ball", "dim": 1.7, "radius": 1.0},
    "inf_radius.json": {"schema": "radial/v1", "type": "ball", "radius": math.inf},
    "inf_lo.json": {"schema": "radial/v1", "type": "box", "lo": [-math.inf], "hi": [0.5]},
    "ellipsoid_part.json": ELLIPSOID_IN_POLYHEDRON,
    "polyhedron_part.json": POLYHEDRON_IN_POLYHEDRON,
    "nested_a.json": {"schema": "radial/v1", "type": "halfspace", "a": [[1]], "b": 1},
    "nested_lo.json": {"schema": "radial/v1", "type": "box", "lo": [[-1]], "hi": [[1]]},
    "infinite_shape.json": INFINITE_SHAPE,
    "huge_normal.json": HUGE_NORMAL,
}

# argv -> exit code.  {dir} is a writable scratch directory, {missing} a
# path that cannot be opened for reading or writing.
CONTRACT = [
    (["grid", "--f", "x0", "--dim", "1", "--grid=-1:1:3", "--out", "{dir}/o.csv"], 2),
    (["check", "--f", "x0 - 1", "--dim", "1"], 2),
    (["solve", "--f", "x0", "--dim", "1", "--y0", "1"], 2),
    (["eval", "--f", "x0", "--dim", "1", "--at", "-1"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/box2.json"], 2),
    (["eval", "--f", "x0", "--dim", "0", "--at", "1"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--rays", "0"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--points", "0"], 2),
    # One height per ray compares nothing; it is refused, not called radial.
    (["check", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--points", "1"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--budget", "0"], 2),
    (["set-transform", "--in", "{missing}", "--out", "{dir}/o.json"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{missing}"], 2),
    (["grid", "--f", "abs(x0)", "--dim", "1", "--grid=0.5:2:4", "--out", "{missing}"], 1),
    (["set-transform", "--in", "{dir}/edge.json", "--out", "{dir}/o.json"], 2),
    (["eval", "--f", "x0", "--dim", "1", "--at", "1,2"], 2),
    (["--tol", "0", "eval", "--f", "x0", "--dim", "1", "--at", "1"], 2),
    # Non-finite numbers are usage errors, not NaN rows or tracebacks.
    (["--tol", "inf", "eval", "--f", "x0", "--dim", "1", "--at", "1"], 2),
    (["grid", "--f", "pos(x0)", "--dim", "1", "--grid=-inf:1:3", "--out", "{dir}/o.csv"], 2),
    (["grid", "--f", "pos(x0)", "--dim", "1", "--grid=0:1e400:3", "--out", "{dir}/o.csv"], 2),
    (["grid", "--f", "pos(x0)", "--dim", "1", "--grid=-1e308:1e308:3", "--out", "{dir}/o.csv"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--box=-inf:1"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--box=-1e308:1e308"], 2),
    (["eval", "--f", "pos(x0)", "--dim", "1", "--at", "nan"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "inf"], 2),
    # A gradient tolerance follows --tol's rule; a seed is a non-negative integer.
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--tol-grad", "nan"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--tol-grad", "inf"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--tol-grad", "-1"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--seed", "-1"], 2),
    # Constraint and indicator numbers are checked, not dropped or truncated.
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/nan_a.json"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/inf_b.json"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/frac_dim.json"], 2),
    (["eval", "--f", "min(x0, indicator(halfspace 1 1e999))", "--dim", "1", "--at", "1"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/inf_radius.json"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/inf_lo.json"], 2),
    (["eval", "--f", "min(x0, indicator(ball 1e999))", "--dim", "1", "--at", "1"], 2),
    (["eval", "--f", "min(x0, indicator(box -1e999 1))", "--dim", "1", "--at", "1"], 2),
    # A polyhedron holds halfspaces only; constraint vectors are flat.
    (["set-transform", "--in", "{dir}/ellipsoid_part.json", "--out", "{dir}/o.json"], 2),
    (["set-transform", "--in", "{dir}/polyhedron_part.json", "--out", "{dir}/o.json"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/nested_a.json"], 2),
    (["solve", "--f", CAP, "--dim", "1", "--y0", "2", "--constraint", "{dir}/nested_lo.json"], 2),
    # Set numbers whose arithmetic leaves the float range end in one line.
    (["set-transform", "--in", "{dir}/infinite_shape.json", "--out", "{dir}/o.json"], 2),
    (["set-transform", "--in", "{dir}/huge_normal.json", "--out", "{dir}/o.json"], 2),
    # Grid, box and point specifications refused before any search.
    (["grid", "--f", "x0", "--dim", "3", "--grid=0:1:2", "--out", "{dir}/o.csv"], 2),
    (["grid", "--f", "x0", "--dim", "1", "--grid=0:1:2,0:1:2", "--out", "{dir}/o.csv"], 2),
    (["grid", "--f", "x0", "--dim", "1", "--grid=0:1:2", "--emit", "primal,foo", "--out", "{dir}/o.csv"], 2),
    (["grid", "--f", "x0", "--dim", "1", "--grid=0:1", "--out", "{dir}/o.csv"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--box=1:0"], 2),
    (["check", "--f", "abs(x0)", "--dim", "1", "--box=1"], 2),
    (["eval", "--f", "x0", "--dim", "1", "--at=abc"], 2),
]


def exit_code(argv):
    """main's return value, or argparse's exit status for usage errors."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", CONTRACT, ids=[" ".join(a) for a, _ in CONTRACT])
    def test_contract(self, argv, expected, tmp_path, capsys):
        for name, doc in CONTRACT_FILES.items():
            (tmp_path / name).write_text(json.dumps(doc))
        missing = str(tmp_path / "no-such-dir" / "file.json")
        argv = [a.format(dir=tmp_path, missing=missing) for a in argv]
        assert exit_code(argv) == expected
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err

    @pytest.mark.parametrize(
        "target,argv",
        [
            ("_grid_points", ["grid", "--f", "x0", "--dim", "1", "--grid=0:1:10000000000000", "--out", "{dir}/g.csv"]),
            ("check_radial", ["check", "--f", "x0", "--dim", "1", "--rays", "10000000000000"]),
        ],
        ids=["grid", "check"],
    )
    def test_out_of_memory_exits_1_with_one_line(self, target, argv, tmp_path, monkeypatch, capsys):
        """A count too large for memory ends in exit 1 and one error line.
        The allocation is replaced by its MemoryError: on a host that
        overcommits memory a real 72 TiB request can succeed and then
        exhaust the machine."""
        message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type float64"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, refuse)
        assert main([a.format(dir=tmp_path) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_overflowing_product_reads_the_same_in_grid_and_eval(self, tmp_path, capsys):
        """At y = 2 the upper search probes v = 2, where f(y/v) = 1e308 and
        the product overflows; the batch and the scalar search report it in
        the same words, with plain floats."""
        f = ["--f", "min(indicator(ball 1), 1e308)", "--dim", "1"]
        line = "error: perspective product 2.0 * 1e+308 left the finite range\n"
        for argv in (["grid", *f, "--grid=2:3:2", "--out", str(tmp_path / "x.csv")], ["eval", *f, "--at", "2"]):
            code, _, err = run_cli(argv, capsys)
            assert (code, err) == (1, line), argv[0]


@given(expr=expressions, at=st.sampled_from(["-2", "-0.5", "0", "0.25", "3"]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_generated_expressions_end_in_a_documented_code(expr, at):
    """Any expression ends in an exit code with a one-line reason, never a
    traceback: eval succeeds (0) or reports an error, and check reports a
    verdict (0, 1, 4) or an error.  A verdict's first line is the one the
    library's report maps to."""
    runs = [
        (["eval", f"--f={expr}", "--dim", "1", f"--at={at}"], {0}),
        (["check", f"--f={expr}", "--dim", "1", "--rays", "4", "--points", "8"], {0, 1, 4}),
    ]
    for argv, verdicts in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(6)
        assert code in verdicts or "error:" in err.getvalue()
        if argv[0] == "check" and code in verdicts:
            report = check_radial(parse_function(expr, 1), 4, 8)
            line, want = cli._CHECK_OUTCOMES[report.meta]
            assert (code, out.getvalue().splitlines()[0]) == (want, line.format(report.witness_count))


# -- grid columns against a per-point scalar reference ---------------------

GRID_CASES = [
    (["grid", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--grid=-3:3:61", "--emit", "primal,dual,lower,bidual,residual,gamma"], "csv"),
    (["grid", "--f", "pos(sqrt(1-x0^2))", "--dim", "1", "--grid=-3:3:61", "--emit", "primal,dual,lower,bidual,residual,gamma"], "json"),
    (["grid", "--f", "abs(x0)", "--dim", "1", "--grid=-2:2:9", "--emit", "primal,dual,lower,bidual,residual,gamma"], "json"),
    (["grid", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--grid=-3:1:9", "--emit", "primal,dual,lower,bidual,residual,gamma", "--global"], "csv"),
    (["grid", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--grid=-3:1:61", "--emit", "primal,dual,lower", "--global"], "csv"),
    (["grid", "--f", "pos(1 - norm(x0, x1))", "--dim", "2", "--grid=-1:1:5,-0.5:0.5:3", "--emit", "primal,dual,lower,bidual,residual,gamma"], "json"),
]


def _scalar_grid(argv):
    """The grid table computed one point and one scalar search at a time:
    column names and rows of (tagged, value) cells, for the emitted
    columns."""
    args = build_parser().parse_args(argv + ["--out", "unused"])
    dim = args.dim
    emit = args.emit.split(",")
    f = parse_function(args.f, dim)
    upper = DualHandle(f, Sense.UPPER, global_scan=args.global_scan)
    lower = DualHandle(f, Sense.LOWER, global_scan=args.global_scan)
    bidual = DualHandle(upper, Sense.UPPER)
    axes = [np.linspace(lo, hi, n) for lo, hi, n in args.grid]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    tokens = {"primal": ["f"], "dual": ["upper"], "lower": ["lower"], "bidual": ["bidual"], "residual": ["residual"]}
    tokens["gamma"] = [f"gamma_y{i}" for i in range(dim)] + ["gamma_v"]
    names = [f"x{i}" for i in range(dim)] + [name for token, columns in tokens.items() if token in emit for name in columns]
    rows = []
    for x in points:
        fx = f.eval(x)
        cells = {f"x{i}": (False, float(c)) for i, c in enumerate(x)}
        cells["f"] = (True, fx.as_float())
        if "dual" in emit:
            cells["upper"] = (True, upper.value(x).as_float())
        if "lower" in emit:
            cells["lower"] = (True, lower.value(x).as_float())
        if "bidual" in emit or "residual" in emit:
            bi = bidual.value(x)
            cells["bidual"] = (True, bi.as_float())
            cells["residual"] = (False, extpos_gap(fx, bi))
        if fx.is_finite:
            image = gamma_point(LiftedPoint(x, fx.value))
            cells.update(zip(tokens["gamma"], [(False, float(c)) for c in image.x] + [(False, image.u)]))
        else:
            cells.update((name, (False, math.nan)) for name in tokens["gamma"])
        rows.append([cells[name] for name in names])
    return names, rows


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def _read_grid(path, fmt):
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text, parse_constant=_reject_constant)
        return doc["columns"], doc["rows"]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _same_cell(got, tagged, want, fmt) -> bool:
    if tagged and want in (0.0, math.inf):
        # The tags keep their tokens: 0 (an int in JSON, never 0.0) and inf.
        return (got == "0" if fmt == "csv" else got == 0 and type(got) is int) if want == 0.0 else got == "inf"
    if not math.isfinite(want):
        # Untagged non-finite cells are the tokens nan, inf and -inf: CSV
        # text, and JSON strings since JSON has no non-finite numbers.
        return got == ("nan" if math.isnan(want) else "inf" if want > 0 else "-inf")
    if fmt == "json" and isinstance(got, str):
        return False
    got = float(got)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestGridColumns:
    @pytest.mark.parametrize("argv,fmt", GRID_CASES, ids=[f"{' '.join(a[2:7])} {f}" for a, f in GRID_CASES])
    def test_matches_scalar_reference(self, argv, fmt, tmp_path):
        paths = [tmp_path / f"{k}.{fmt}" for k in range(2)]
        for path in paths:
            assert exit_code(argv + ["--format", fmt, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()  # byte-identical reruns
        names, rows = _read_grid(paths[0], fmt)
        want_names, want_rows = _scalar_grid(argv)
        assert names == want_names and len(rows) == len(want_rows)
        for row, want_row in zip(rows, want_rows):
            for name, got, (tagged, want) in zip(names, row, want_row):
                assert _same_cell(got, tagged, want, fmt), (name, got, want)

    def test_expression_range_error_is_one_line(self, tmp_path, capsys):
        argv = ["grid", "--f", "x0 - 1", "--dim", "1", "--grid=-1:1:3", "--out", str(tmp_path / "o.csv")]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: expression evaluated to")

    def test_range_error_names_the_grid_row(self, tmp_path, capsys):
        # The global scan evaluates each grid point at 1,024 heights in one
        # batch; the message names the grid point's row, not the pair's.
        argv = ["grid", "--f", "1 - x0^2", "--dim", "1", "--grid=0:0.5:2", "--global", "--out", str(tmp_path / "x.csv")]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "(row 1);" in err[0]

    def test_overflowing_gamma_image_is_one_line(self, tmp_path, capsys):
        # x / f(x) overflows for x = 1e10 and f = 1e-300: one error line and
        # no numpy warning.
        argv = ["grid", "--f", "1e-300", "--dim", "1", "--grid=1e10:2e10:2", "--emit", "gamma", "--out", str(tmp_path / "g.csv")]
        assert exit_code(argv) == 1
        assert capsys.readouterr().err == "error: transformed point is not finite\n"

    def test_nonmonotone_error_is_one_line_plus_hint(self, tmp_path, capsys):
        argv = ["grid", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--grid=-3:1:5", "--out", str(tmp_path / "o.csv")]
        assert exit_code(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("error: perspective profile decreased") and err[1] == "hint: retry with --global"


# The README's check of a function that is not ray-monotone, as printed
# when every ray was sampled and searched one height at a time.
README_CHECK = [
    "not radial: 2011 witness(es)",
    "witness: y=(0.82177012392872584) v=9.9999999999999998e-13 v'=2.4040991835099741e-12 perspective 675306136583.47693 -> 280897785423.24567",
    "witness: y=(0.82177012392872584) v=2.4040991835099741e-12 v'=5.779692884153325e-12 perspective 280897785423.24567 -> 116841179994.68047",
    "witness: y=(0.82177012392872584) v=5.779692884153325e-12 v'=1.3894954943731359e-11 perspective 116841179994.68047 -> 48600815140.414078",
    "witness: y=(0.82177012392872584) v=1.3894954943731359e-11 v'=3.3404849835132445e-11 perspective 48600815140.414078 -> 20215811176.211452",
    "witness: y=(0.82177012392872584) v=3.3404849835132445e-11 v'=8.0308572213915209e-11 perspective 20215811176.211452 -> 8408892327.3973036",
]


def test_readme_check_output_is_unchanged(capsys):
    code, out, err = run_cli(["check", "--f", "(x0+1)^2 + 0.5", "--dim", "1", "--rays", "64", "--points", "64"], capsys)
    assert code == 1
    assert out.splitlines() == README_CHECK
    assert err == "checked 64 rays x 64 points\n"
