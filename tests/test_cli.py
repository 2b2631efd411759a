import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from forelli_lab import cli
from forelli_lab.cli import run
from forelli_lab.report import schema_text
from forelli_lab.series import FormalSeries


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(out: str):
    jsonschema.validate(json.loads(out), json.loads(schema_text()))


def powers_of_z2(tmp_path) -> str:
    """A series file whose terms are z2^k, k <= 24: a psh family."""
    path = tmp_path / "z2k.txt"
    FormalSeries(2, 24, {((0, k), (0, 0)): 1.0 for k in range(25)}).save(path)
    return str(path)


class TestExitCodes:
    def test_analyze_pass(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "exp(z1+z2)",
                               "--order", "8", "--directions", "cap:0.3:100",
                               "--json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["passed"] is True
        assert report["summary"]["certificate"] is not None
        validate(out)

    def test_certificate_bound_met_to_the_last_bit(self, capsys):
        # P_3 = c z1^3 sets M = c^(1/3), and (c^(1/3))^3 rounds one ulp
        # below c = 1.6300947068828706; the coefficient meets its bound
        code, out, _ = run_cli(
            capsys, "analyze", "--expr", "1/(2.41-z1)+1/(2.11-z1)"
            "+exp(0.69*z1+0.13*z1)*1.55*z1^3", "--order", "12", "--json")
        assert code == 0
        report = json.loads(out)
        cert = report["summary"]["certificate"]
        assert cert is not None and cert["M"] ** 3 < 1.6300947068828706
        validate(out)

    def test_analyze_counterexample_fails(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr",
                               "z1^2*z2*conj(z1)/normsq(z)", "--order", "4",
                               "--directions", "sphere:100", "--json")
        assert code == 1
        report = json.loads(out)
        jet_stage = [s for s in report["stages"] if s["name"] == "jet"][0]
        assert jet_stage["status"] == "fail"
        assert "JetUpTo(1)" in jet_stage["details"]["verdict"]
        validate(out)

    def test_capacity_segment(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--set", "segment -1 1",
                               "--m", "128", "--json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["summary"]["value"] - 0.5) <= 0.01
        validate(out)

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--set", "bogus spec")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["certify", "analyze"])
    def test_no_certificate_order_is_usage_error(self, capsys, tmp_path,
                                                  command):
        # converges only for |z1| < 0.3; with K = 0 no order was checked
        path = tmp_path / "geometric.txt"
        FormalSeries(2, 12, {((k, 0), (0, 0)): 0.3 ** -k
                             for k in range(13)}).save(path)
        code, out, err = run_cli(capsys, command, "--series-file", str(path),
                                 "--K", "0")
        assert (code, out, err) == (2, "", "error: K must be at least 1, "
                                           "not 0\n")

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    def test_siciak_ball_must_be_a_radius(self, capsys, radius):
        code, out, err = run_cli(capsys, "capacity", "--siciak-ball", radius)
        assert (code, out) == (2, "")
        assert err == ("error: --siciak-ball must be a positive finite "
                       f"radius, not {float(radius)}\n")

    @pytest.mark.parametrize("command", ["certify", "analyze"])
    @pytest.mark.parametrize("r0", ["0", "-1", "nan", "inf"])
    def test_r0_must_be_positive_and_finite(self, capsys, command, r0):
        # the zbar input fails its holomorphic_type stage, before the
        # certificate: r0 is refused before the first stage
        for expr in ("exp(z1+z2)", "z1*conj(z2)"):
            code, out, err = run_cli(capsys, command, "--expr", expr,
                                     "--order", "8", "--r0", r0)
            assert (code, out, err) == (
                2, "", f"error: r0 must be positive and finite, not "
                       f"{float(r0)}\n")

    @pytest.mark.parametrize("command", ["certify", "analyze"])
    def test_K_below_one_refused_before_the_first_stage(self, capsys,
                                                         command):
        # the zbar input fails its holomorphic_type stage, before the
        # certificate: K is refused before the first stage, as r0 is
        for expr in ("exp(z1+z2)", "z1*conj(z2)"):
            code, out, err = run_cli(capsys, command, "--expr", expr,
                                     "--order", "8", "--K", "0", "--json")
            assert (code, out, err) == (2, "", "error: K must be at least "
                                               "1, not 0\n")

    @pytest.mark.parametrize("argv,message", [
        (("jet", "--expr", "exp(z1+z2)", "--order", "6", "--center",
          "nan,0 0,0"), "center must be finite, not (nan+0j)"),
        (("jet", "--expr", "exp(z1+z2)", "--order", "6", "--center",
          "0,0 1,inf"), "center must be finite, not (1+infj)"),
        (("jet", "--expr", "exp(z1+z2)", "--order", "6", "--center",
          "0,0"), "center has 1 components, expected 2"),
        (("slice", "--a", "nan,0 1,0"), "ray point must be finite, not "
                                        "(nan+0j)"),
        (("slice", "--a", "1,0 0,-inf"), "ray point must be finite, not "
                                         "-infj"),
        (("slice", "--a", "1,0"), "ray point has 1 components, expected 2")],
        ids=["center-nan", "center-inf", "center-length", "ray-nan",
             "ray-inf", "ray-length"])
    def test_point_must_be_finite(self, capsys, tmp_path, argv, message):
        if argv[0] == "slice":
            path = tmp_path / "s.txt"
            FormalSeries(2, 4, {((1, 0), (0, 0)): 1.0}).save(path)
            argv = ("slice", "--series-file", str(path)) + argv[1:]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("analyze", "--expr", "exp(z1+z2)", "--order", "8", "--tol"),
        ("jet", "--expr", "exp(z1+z2)", "--order", "8", "--tol"),
        ("certify", "--expr", "exp(z1+z2)", "--order", "8", "--tol"),
        ("pencil-check", "--expr", "exp(z1+z2)", "--tol"),
        ("subpencil", "--expr", "exp(z1+z2)", "--tol"),
        ("normalize", "--v0", "1,0 0,0", "--expr", "exp(z1+z2)", "--tol-g")],
        ids=lambda argv: argv[0])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "x"])
    def test_tolerance_must_be_finite_and_not_negative(self, capsys, argv,
                                                        value):
        code, out, err = run_cli(capsys, *argv, value)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {argv[-1]}: must be a finite "
                            f"number >= 0, not {value!r}\n")

    @pytest.mark.parametrize("argv", [
        ("jet", "--rho0", "nan"), ("jet", "--sigma", "inf"),
        ("jet", "--rho-max", "nan"), ("analyze", "--rho-max", "nan"),
        ("certify", "--rho-max", "inf")])
    def test_radius_schedule_must_be_finite(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--expr", "exp(z1+z2)",
                                 "--order", "8")
        name = argv[1][2:].replace("-", "_")
        assert (code, out, err) == (2, "", f"error: {name} must be finite, "
                                           f"not {float(argv[2])}\n")

    @pytest.mark.parametrize("v0,error", [
        ("1,0", "v0 must have 2 components, not shape (1,)"),
        ("1,0 0,0 1,0", "v0 must have 2 components, not shape (3,)"),
        ("0,0 0,0", "v0 must be nonzero"),
        ("nan,0 0,0", "v0 must be finite, not ((nan+0j), 0j)")])
    def test_normalize_checks_v0(self, capsys, v0, error):
        code, out, err = run_cli(capsys, "normalize", "--v0", v0)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.4"])
    def test_normalize_checks_eps(self, capsys, eps):
        code, out, err = run_cli(capsys, "normalize", "--v0", "1,0 0,0",
                                 "--eps", eps)
        assert (code, out, err) == (2, "", "error: eps must be positive and "
                                           f"finite, not {float(eps)}\n")

    def test_normalize_checks_the_ring(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "--v0", "1,0 0,0",
                                 "--expr", "exp(z1+z2)", "--z1-ring",
                                 "0.05 nan")
        assert (code, out, err) == (2, "", "error: z1 grid points must be "
                                           "finite, not (nan+nanj)\n")

    @pytest.mark.parametrize("radii,bad", [
        ("nan", "nan"), ("-0.5", "-0.5"), ("0.3,1.5", "1.5"),
        ("0.3,1", "1.0"), ("0", "0.0"), ("inf", "inf")])
    def test_pencil_check_radii_in_the_unit_interval(self, capsys, radii, bad):
        code, out, err = run_cli(capsys, "pencil-check", "--expr",
                                 "exp(z1+z2)", "--radii", radii)
        assert (code, out, err) == (2, "", "error: disc radii must be finite "
                                           f"numbers in (0, 1), not {bad}\n")

    @pytest.mark.parametrize("spec,error", [
        ("disc 0 0 nan", "disc radius must be positive and finite, not nan"),
        ("disc 0 0 inf", "disc radius must be positive and finite, not inf"),
        ("disc nan 0 0.7", "disc center must be finite, not (nan+0j)"),
        ("segment 0 nan", "segment endpoints must be finite, not (nan+0j)")])
    def test_capacity_set_must_be_finite(self, capsys, spec, error):
        code, out, err = run_cli(capsys, "capacity", "--set", spec)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("argv,error", [
        (("--r", "nan", "--classify"),
         "polyradius entries must be positive and finite, not (nan,)"),
        (("--r", "nan"),
         "polyradius entries must be positive and finite, not (nan,)"),
        (("--r", "-1"),
         "polyradius entries must be positive and finite, not (-1.0,)"),
        (("--envelope", "-1 1 -1 nan"),
         "envelope region must be finite, not ((-1.0, 1.0), (-1.0, nan))")])
    def test_psh_numbers_must_be_finite(self, capsys, tmp_path, argv, error):
        code, out, err = run_cli(capsys, "psh", "--family",
                                 powers_of_z2(tmp_path), *argv)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_subpencil_needs_a_disc_index(self, capsys):
        code, out, err = run_cli(capsys, "subpencil", "--expr", "exp(z1)",
                                 "--ell-max", "0")
        assert (code, out, err) == (2, "", "error: ell_max must be at least "
                                           "1, not 0\n")

    def test_expression_with_a_leading_minus(self, capsys):
        # argparse reads "-z1" after --expr as an option; the README gives
        # the --expr=-z1 form
        code, _, err = run_cli(capsys, "analyze", "--expr", "-z1",
                               "--order", "4")
        assert code == 2 and "expected one argument" in err
        code, out, _ = run_cli(capsys, "analyze", "--expr=-z1", "--order", "4",
                               "--directions", "sphere:100", "--json")
        assert code == 0
        assert json.loads(out)["summary"]["passed"] is True

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_numerical_error_exit_three(self, capsys):
        # nearly equal radii make every mode solve ill-conditioned
        code, _, err = run_cli(capsys, "jet", "--expr", "z1*z2", "--order",
                               "6", "--sigma", "1.0000001")
        assert code == 3
        assert "numerical failure" in err

    def test_condition_limit_states_a_remedy(self, capsys):
        argv = ("jet", "--expr", "exp(z1+z2)", "--order", "24")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("numerical failure: ill-conditioned radius schedule: "
                       "mode (-6, 0) condition 3.42e+14 exceeds 1e+14; "
                       "remedy: lower --order, or respace the radius "
                       "schedule (e.g. --rho-max 1 caps its largest radius "
                       "at 1)\n")
        code, out, _ = run_cli(capsys, *argv, "--rho-max", "1", "--json")
        assert code == 0
        assert json.loads(out)["stages"][0]["details"]["verdict"] == "FullJet"

    @pytest.mark.parametrize("command,hint", [
        ("jet", ", or raise --grid to at least 65 (this lifts only the grid "
                "bound; the jet may still stop at the condition limit)"),
        ("analyze", ", or raise --grid to at least 65 (this lifts only the "
                    "grid bound; the jet may still stop at the condition "
                    "limit)"),
        ("certify", "")])           # certify has no --grid
    def test_grid_limit_states_a_remedy(self, capsys, command, hint):
        code, out, err = run_cli(capsys, command, "--expr", "exp(z1+z2)",
                                 "--order", "32")
        assert (code, out) == (2, "")
        assert err == ("error: grid 64 < 2*order+1 = 65; remedy: lower "
                       f"--order{hint}\n")

    def test_pencil_check_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, "pencil-check", "--expr", "conj(z1)",
                               "--directions", "sphere:40")
        assert code == 1
        assert "FAIL" in out


# (subcommand, option) for every option of type float or cli._tolerance
FLOAT_FLAGS = [(name, action.option_strings[0])
               for name, sp in next(a for a in cli.build_parser()._actions
                                    if a.dest == "command").choices.items()
               for action in sp._actions
               if action.type in (float, cli._tolerance)]


@pytest.mark.parametrize("command,option", FLOAT_FLAGS,
                         ids=[" ".join(flag) for flag in FLOAT_FLAGS])
def test_nan_on_every_float_flag(capsys, tmp_path, command, option):
    # a minimal valid run of each subcommand; a new float flag that turns
    # a nan into a verdict fails here
    valid = {"analyze": ["--expr", "exp(z1+z2)", "--order", "8",
                         "--directions", "sphere:100"],
             "jet": ["--expr", "exp(z1+z2)", "--order", "8"],
             "certify": ["--expr", "exp(z1+z2)", "--order", "8"],
             "capacity": ["--siciak-ball", "0.7"],
             "psh": ["--family", powers_of_z2(tmp_path)],
             "pencil-check": ["--expr", "exp(z1+z2)"],
             "subpencil": ["--expr", "exp(z1+z2)"],
             "normalize": ["--v0", "1,0 0,0", "--expr", "exp(z1+z2)"]}
    code, out, err = run_cli(capsys, command, *valid[command], option, "nan")
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "nan" in errors[0]


class TestDiscEvidence:
    """The disc stages name their worst disc and count failed discs."""

    def test_pencil_check_names_worst_disc(self, capsys):
        code, out, _ = run_cli(capsys, "pencil-check", "--expr",
                               "1/(z1-0.3)", "--directions", "sphere:40",
                               "--json")
        assert code == 1
        validate(out)
        details = json.loads(out)["stages"][0]["details"]
        assert details["discs"] == 120 and details["discs_with_error"] == 0
        assert 0 <= details["worst_direction_index"] < 40
        assert details["worst_radius"] in (0.3, 0.6, 0.9)
        assert details["worst_residual"] >= 0.5

    def test_overflowed_transform_is_an_errored_disc(self, capsys):
        # the samples of direction 168 at radius 0.9 are finite, their
        # transform is not; the largest residual of the others is 1
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run_cli(capsys, "pencil-check", "--expr",
                                   "exp(800*z1)", "--directions",
                                   "sphere:300:2")
        assert code == 1
        assert out.splitlines()[0] == (
            "checked 900 discs; worst residual 1 (tol 1e-08); 6 of 900 discs "
            "raised an error, the first at direction 28, radius 0.9: "
            "non-finite disc samples at radius 0.9")

    def test_analyze_disc_stage_evidence(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "conj(z1)+z2",
                               "--order", "4", "--directions", "sphere:100",
                               "--json")
        assert code == 1
        stage = [s for s in json.loads(out)["stages"]
                 if s["name"] == "disc_holomorphy"][0]
        assert stage["status"] == "fail"
        assert stage["details"]["discs"] == 300
        assert stage["details"]["worst_radius"] == 0.9
        assert stage["details"]["discs_with_error"] == 0
        assert stage["details"]["first_error"] is None
        assert isinstance(stage["details"]["worst_direction_index"], int)

    # z2/z1 divides by zero on every disc through (0, 1), and is
    # holomorphic along the other two directions
    ERRORED = [[[0.6, 0], [0.8, 0]], [[0, 0], [1, 0]], [[0.8, 0], [0, 0.6]]]
    NAMED = ("3 of 9 discs raised an error, the first at direction 1, "
             "radius 0.3: division by zero in 'z1'")

    def test_pencil_check_names_errored_discs(self, capsys, tmp_path):
        dir_file = tmp_path / "dirs.json"
        dir_file.write_text(json.dumps(self.ERRORED))
        argv = ("pencil-check", "--expr", "z2/z1", "--directions", str(dir_file))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        first, verdict = out.splitlines()
        assert first.endswith(f"(tol 1e-08); {self.NAMED}")
        assert verdict == "FAIL"
        code, out, _ = run_cli(capsys, *argv, "--json")
        validate(out)
        details = json.loads(out)["stages"][0]["details"]
        assert details["discs_with_error"] == 3
        assert details["first_error"] == {
            "direction_index": 1, "radius": 0.3,
            "error": "division by zero in 'z1'"}

    def test_analyze_names_errored_discs(self, capsys, tmp_path):
        dir_file = tmp_path / "dirs.json"
        dir_file.write_text(json.dumps(self.ERRORED))
        code, out, _ = run_cli(capsys, "analyze", "--expr", "z2/z1",
                               "--order", "4", "--directions", str(dir_file))
        assert code == 1
        verdict = [ln for ln in out.splitlines() if ln.startswith("verdict:")]
        assert verdict[0].startswith(
            f"verdict: hypothesis (2) fails: {self.NAMED}; hypothesis (1)")


class TestJetEvidence:
    """The jet stages name their first failing and worst-conditioned mode."""

    def test_analyze_counterexample_names_its_mode(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr",
                               "z1^2*z2*conj(z1)/normsq(z)", "--order", "4",
                               "--directions", "sphere:100", "--json")
        assert code == 1
        details = [s for s in json.loads(out)["stages"]
                   if s["name"] == "jet"][0]["details"]
        first = details["first_failing_mode"]
        assert first["failure_order"] == 2
        assert len(first["mode"]) == 2
        assert first["misfit"] > first["tol"] == details["tol"]
        worst = details["worst_condition_mode"]
        assert len(worst["mode"]) == 2 and worst["condition"] >= 1.0
        validate(out)

    def test_jet_subcommand_full_jet(self, capsys):
        code, out, _ = run_cli(capsys, "jet", "--expr", "exp(z1+z2)",
                               "--dim", "2", "--order", "8", "--json")
        assert code == 0
        details = json.loads(out)["stages"][0]["details"]
        assert details["first_failing_mode"] is None
        assert details["worst_condition_mode"]["condition"] >= 1.0
        validate(out)

    def test_jet_subcommand_failure(self, capsys):
        code, out, _ = run_cli(capsys, "jet", "--expr",
                               "z1^2*z2*conj(z1)/normsq(z)", "--dim", "2",
                               "--order", "4", "--json")
        assert code == 1
        details = json.loads(out)["stages"][0]["details"]
        assert details["first_failing_mode"]["failure_order"] == 2


class TestDirectionPresets:
    @pytest.mark.parametrize("preset", ["cap", "torus:30"])
    def test_bad_pencil_preset_is_usage_error(self, capsys, tmp_path, preset):
        # a pencil file's preset fails as the same --directions value does
        pencil = tmp_path / "bad.json"
        pencil.write_text(json.dumps({"n": 2, "directions": preset}))
        code, _, err = run_cli(capsys, "pencil-check", "--pencil",
                               str(pencil), "--expr", "exp(z1+z2)")
        want_code, _, want_err = run_cli(capsys, "pencil-check",
                                         "--directions", preset, "--expr",
                                         "exp(z1+z2)")
        assert code == want_code == 2
        assert err == want_err
        assert err.startswith("error: ")

    def test_default_seeds(self):
        # a preset without a seed: 0 in a pencil file, --seed on the CLI
        from forelli_lab import (cap_directions, load_pencil,
                                 sphere_directions, standard_pencil)
        from forelli_lab.pencil import load_directions
        P = load_pencil({"n": 2, "directions": "cap:0.5:30"})
        want = standard_pencil(2, cap_directions(2, 0.5, 30, seed=0))
        assert np.array_equal(P.directions, want.directions)
        assert np.array_equal(load_directions("sphere:30", 2, 42),
                              sphere_directions(2, 30, 42))
        assert np.array_equal(load_directions("sphere:30:5", 2, 42),
                              sphere_directions(2, 30, 5))

    @pytest.mark.parametrize("argv", [
        ("jet", "--expr", "z1*z2", "--order", "4"),
        ("slice", "--series-file", "S.txt", "--a", "1,0 0,0"),
        ("psh", "--family", "S.txt"),
    ], ids=lambda a: a[0])
    def test_seed_rejected_where_unused(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == 2
        assert "--seed" in err


class TestPencilFileDirections:
    """A general pencil file's direction list is checked as --directions is."""

    @pytest.mark.parametrize("dirs,message", [
        ([[[2, 0], [0, 0]], [[0, 0], [0, 1]]], None),
        ([[[0, 0], [0, 0]], [[0, 0], [0, 1]]], "zero vector in direction set"),
        ([[[1, 0], [0, 0], [0, 0]]], "directions live in C^3, expected C^2"),
    ], ids=["off-sphere", "zero", "wrong-dimension"])
    def test_same_as_directions(self, capsys, tmp_path, dirs, message):
        dir_file = tmp_path / "dirs.json"
        dir_file.write_text(json.dumps(dirs))
        pencil = tmp_path / "pencil.json"
        pencil.write_text(json.dumps(
            {"n": 2, "map": ["l*u1", "l*u2 + l^2*conj(u1)*u2"],
             "directions": dirs}))
        expr = ("--expr", "exp(z1+z2)", "--json")
        code, out, err = run_cli(capsys, "pencil-check", "--pencil",
                                 str(pencil), *expr)
        want_code, want_out, want_err = run_cli(
            capsys, "pencil-check", "--directions", str(dir_file), *expr)
        assert (code, err) == (want_code, want_err)
        if message is None:
            assert code == 0
            assert json.loads(out)["warnings"] == json.loads(
                want_out)["warnings"] == [
                "directions off the unit sphere by up to 1; normalizing"]
        else:
            assert code == 1
            assert err == f"verification failure: {message}\n"


class TestMalformedDirections:
    """A direction list that is not rows of [re, im] number pairs is a
    usage error (exit 2) naming its first bad row, from --directions and
    from a pencil file alike."""

    WHAT = "error: directions must be a list of rows of [re, im] number pairs"

    @pytest.mark.parametrize("dirs,message", [
        ([[1, 0], [0, 1]], "; row 0 is [1, 0]"),
        ({"a": 1}, ", not a dict"),
        ([[[1, 0], [0, 0]], [[1, 0, 0], [0, 1]]],
         "; row 1 is [[1, 0, 0], [0, 1]]"),
        ([[[1, 0], [0, 0]], [[0, 0], ["1", 0]]],
         "; row 1 is [[0, 0], ['1', 0]]"),
        ([[[1, 0], [0, 0]], [[True, 0], [0, 1]]],
         "; row 1 is [[True, 0], [0, 1]]"),
        ([[[math.nan, 0], [1, 0]]], "; row 0 is [[nan, 0], [1, 0]]"),
        ([[[1, 0], [0, 0]], [[0, 0], [0, -math.inf]]],
         "; row 1 is [[0, 0], [0, -inf]]"),
        ([[[1, 0], [0, 0]], [[10 ** 400, 0], [0, 1]]],
         f"; row 1 is [[{10 ** 400}, 0], [0, 1]]"),
    ], ids=["plain-numbers", "object", "three-entries", "string", "bool",
            "nan", "infinity", "int-beyond-float"])
    def test_exit_2_naming_the_row(self, capsys, tmp_path, dirs, message):
        dir_file = tmp_path / "dirs.json"
        dir_file.write_text(json.dumps(dirs))
        pencil = tmp_path / "pencil.json"
        pencil.write_text(json.dumps({"n": 2, "directions": dirs}))
        expr = ("--expr", "exp(z1+z2)")
        for argv in (("analyze", *expr, "--order", "4", "--directions",
                      str(dir_file)),
                     ("pencil-check", *expr, "--directions", str(dir_file)),
                     ("pencil-check", *expr, "--pencil", str(pencil))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"{self.WHAT}{message}\n"), \
                argv

    def test_rows_read_bit_for_bit(self, tmp_path):
        from forelli_lab.pencil import load_directions
        rows = [[[0.1, -0.0], [3, 1e-300]], [[-2.5e-17, 7], [1, 0.3]]]
        dir_file = tmp_path / "dirs.json"
        dir_file.write_text(json.dumps(rows))
        want = np.array([[complex(re, im) for re, im in vec] for vec in rows])
        for spec in (rows, str(dir_file)):
            got = load_directions(spec, 2, 0)
            assert got.dtype == complex and got.shape == (2, 2)
            assert got.tobytes() == want.tobytes()


class TestPencilFileErrors:
    """A pencil file that is not a pencil exits 1 or 2 with one line."""

    NAN_BASE = ["l*u1", "l*exp(1000*u2)"]

    def _pencil_check(self, capsys, tmp_path, data):
        pencil = tmp_path / "pencil.json"
        pencil.write_text(json.dumps(data))
        return run_cli(capsys, "pencil-check", "--pencil", str(pencil),
                       "--expr", "exp(z1)", "--json")

    def test_non_finite_base_point(self, capsys, tmp_path):
        # 0 * exp(1000 u2) is 0 * inf = nan at lambda = 0 for the
        # directions with Re u2 > 0.71; none of them is among the sampled
        # discs, whose meshes overflowed the KD-tree before
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = self._pencil_check(
                capsys, tmp_path, {"n": 2, "map": self.NAN_BASE,
                                   "directions": "sphere:200"})
        assert (code, out) == (1, "")
        assert err == ("verification failure: map(0, u) differs from the "
                       "base point by nan\n")

    def test_huge_mesh_images(self, capsys, tmp_path):
        # exp(700 u2) is finite but near 1e304 on the mesh, too large for
        # the squared distances of the KD-tree
        code, out, err = self._pencil_check(
            capsys, tmp_path, {"n": 2, "map": ["l*u1", "l*exp(700*u2)"],
                               "directions": "sphere:200"})
        assert (code, out) == (3, "")
        assert err == ("numerical failure: mesh image overflows at "
                       "(lambda, u) = ((0.25+0j), ((0.7831233607037407"
                       "+0.2447137426470852j), (0.5716410673098538"
                       "-0.007712084321789922j)))\n")

    def test_mesh_injectivity_names_plain_numbers(self, capsys, tmp_path):
        # l*l*u maps lambda and -lambda to one point: the message names
        # both parameter pairs as Python complex numbers, not numpy reprs
        code, out, err = self._pencil_check(
            capsys, tmp_path, {"n": 2, "map": ["l*l*u1", "l*l*u2"],
                               "directions": "sphere:200"})
        assert (code, out) == (1, "")
        assert err.startswith("verification failure: mesh injectivity "
                              "violated: parameters (")
        assert err.endswith(" share an image\n") and err.count("\n") == 1
        assert "np." not in err and "complex128" not in err
        first, second = err[err.index("("):err.rindex(" share")].split(" and ")
        for pair in (first, second):
            lam, u = ast.literal_eval(pair)
            assert type(lam) is complex
            assert len(u) == 2 and all(type(c) is complex for c in u)

    MAP = ["l*u1", "l*u2"]

    @pytest.mark.parametrize("data,message", [
        ({"map": MAP}, 'pencil has no "n" (the dimension)'),
        ([2, MAP], "the top level must be a JSON object"),
        ({"n": 2.7, "map": MAP}, 'pencil "n" must be a positive integer, '
                                 "not 2.7"),
        ({"n": True, "map": MAP}, 'pencil "n" must be a positive integer, '
                                  "not True"),
        ({"n": 0}, 'pencil "n" must be a positive integer, not 0'),
        ({"n": 2, "map": MAP, "p": [1, 0]},
         'pencil "p" must be one row of 2 [re, im] number pairs, not [1, 0]'),
        ({"n": 2, "map": MAP, "p": [[0, 0]]},
         'pencil "p" must be one row of 2 [re, im] number pairs, '
         "not [[0, 0]]"),
        ({"n": 2, "map": MAP, "p": [[0, 0], [0, 0], [0, 0]]},
         'pencil "p" must be one row of 2 [re, im] number pairs, '
         "not [[0, 0], [0, 0], [0, 0]]"),
        ({"n": 2, "p": [[1, 0], [0, 0]]},
         'pencil "p" is nonzero but there is no "map": the standard pencil '
         "has base point 0"),
    ], ids=["no-n", "not-an-object", "n-float", "n-true", "n-zero",
            "p-plain-numbers", "p-too-short", "p-too-long", "p-without-map"])
    def test_malformed_file(self, capsys, tmp_path, data, message):
        code, out, err = self._pencil_check(capsys, tmp_path, data)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(message + "\n")
        assert err.count("\n") == 1

    def test_base_point_reads_as_complex_pairs(self):
        from forelli_lab import load_pencil
        P = load_pencil({"n": 2, "map": ["l*u1+0.1-0.3*i", "l*u2+2+5*i"],
                         "p": [[0.1, -0.3], [2, 5]],
                         "directions": "sphere:40"})
        assert P.base_point.tobytes() == np.array(
            [complex(0.1, -0.3), complex(2, 5)]).tobytes()
        # a zero base point needs no map
        assert load_pencil({"n": 2, "p": [[0, 0], [0.0, 0]],
                            "directions": "sphere:40"}).kind == "standard"


class TestReportWarnings:
    """Library UserWarnings reach the report's warnings array."""

    def test_off_sphere_directions(self, capsys, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([[[2, 0], [0, 0]], [[0, 0], [0, 1]],
                                    [[0.6, 0], [0.8, 0]]]))
        args = ("pencil-check", "--expr", "exp(z1+z2)", "--directions",
                str(path), "--json")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        assert json.loads(out1)["warnings"] == [
            "directions off the unit sphere by up to 1; normalizing"]
        validate(out1)
        # recorded again on a second run in the same process, byte for byte
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()

    def test_degenerate_capacity_set(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("0.5 0.5\n" * 8)
        code, out, _ = run_cli(capsys, "capacity", "--set", f"points {path}",
                               "--m", "8", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["value"] == 0.0
        assert report["warnings"] == [
            "degenerate set: single distinct point, capacity 0"]

    def test_still_printed_to_stderr(self, tmp_path):
        # a separate interpreter: pytest records warnings instead of
        # printing them
        import subprocess
        import sys
        path = tmp_path / "points.txt"
        path.write_text("0.5 0.5\n" * 8)
        proc = subprocess.run(
            [sys.executable, "-m", "forelli_lab.cli", "capacity", "--set",
             f"points {path}", "--m", "8"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "UserWarning: degenerate set" in proc.stderr
        assert "degenerate set" not in proc.stdout

    def test_printed_without_source_location(self, tmp_path):
        # the library's own warnings print as "UserWarning: <message>", so
        # stderr does not move with the library's line numbers
        import subprocess
        import sys
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([[[2, 0], [0, 0]], [[0, 0], [0, 1]],
                                    [[0.6, 0], [0.8, 0]]]))
        proc = subprocess.run(
            [sys.executable, "-m", "forelli_lab.cli", "analyze", "--expr",
             "exp(z1+z2)", "--order", "8", "--directions", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert ".py:" not in proc.stderr
        assert proc.stderr == ("UserWarning: directions off the unit sphere "
                               "by up to 1; normalizing\n")

    def test_runtime_warnings_printed_without_source_location(self):
        # numpy's overflow in the evaluator prints as "RuntimeWarning:
        # <message>", without the library's path and line
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "forelli_lab.cli", "pencil-check",
             "--expr", "exp(1000*z1)", "--dim", "2", "--directions",
             "sphere:200"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "forelli_lab/" not in proc.stderr
        assert proc.stderr == "RuntimeWarning: overflow encountered in exp\n"

    def test_numpy_warnings_printed_without_install_path(self):
        # the FFT of the overflowed samples warns from numpy's own file;
        # it prints as "RuntimeWarning: <message>" too, with no path and
        # no source line
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "forelli_lab.cli", "pencil-check",
             "--expr", "exp(800*z1)", "--directions", "sphere:300:2",
             "--dim", "2"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "site-packages" not in proc.stderr
        assert ".py:" not in proc.stderr
        assert proc.stderr == ("RuntimeWarning: overflow encountered in exp\n"
                               "RuntimeWarning: overflow encountered in fft\n")

    def test_each_distinct_line_printed_once(self, tmp_path):
        # the fold's value rule and its derivative rule both multiply
        # exp(800 l) = inf by 0; the two warnings print as one line
        import subprocess
        import sys
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"n": 2, "map": ["l*u1", "exp(800*l)*u2"],
                                    "directions": "sphere:100"}))
        proc = subprocess.run(
            [sys.executable, "-m", "forelli_lab.cli", "pencil-check",
             "--pencil", str(path), "--expr", "z1"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "RuntimeWarning: overflow encountered in exp\n"
            "RuntimeWarning: overflow encountered in multiply\n"
            "RuntimeWarning: invalid value encountered in multiply\n"
            "numerical failure: non-finite disc samples at radius 0.9\n")

    def test_recorders_see_every_warning(self, capsys, tmp_path):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"n": 2, "map": ["l*u1", "exp(800*l)*u2"],
                                    "directions": "sphere:100"}))
        with pytest.warns(RuntimeWarning) as seen:
            code, _, _ = run_cli(capsys, "pencil-check", "--pencil",
                                 str(path), "--expr", "z1")
        # stderr prints it once; the recorder gets every copy
        assert code == 3
        assert [str(w.message) for w in seen].count(
            "invalid value encountered in multiply") >= 2

    def test_floating_point_warnings_stay_out(self, capsys):
        # exp overflows on some discs, and inf * 0 is invalid: every
        # RuntimeWarning is recorded here, and an overflow is among them
        with pytest.warns(RuntimeWarning) as seen:
            code, out, _ = run_cli(capsys, "pencil-check", "--expr",
                                   "exp(900*z1)*conj(z1)", "--directions",
                                   "sphere:20", "--json")
        assert any("overflow" in str(w.message) for w in seen)
        assert code == 1
        assert json.loads(out)["warnings"] == []

    def test_clean_run_has_no_warnings(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--set", "segment -1 1",
                            "--json")
        assert json.loads(out)["warnings"] == []


class TestOneDirectionCheck:
    """A direction set is checked by the standard pencil alone, so every
    subcommand that reads it treats a bad set the same way."""

    @staticmethod
    def exp_series(tmp_path, order):
        from math import factorial
        path = tmp_path / f"exp{order}.txt"
        FormalSeries(2, order, {((i, j), (0, 0)): 1 / (factorial(i)
                                                       * factorial(j))
                                for i in range(order + 1)
                                for j in range(order + 1 - i)}).save(path)
        return str(path)

    OFF_SPHERE = "directions off the unit sphere by up to 1; normalizing"

    @pytest.mark.parametrize("kind,code,message", [
        ("empty", 1, "verification failure: direction set must be "
                     "nonempty\n"),
        ("zero", 1, "verification failure: zero vector in direction set\n"),
        ("off-sphere", 0, f"UserWarning: {OFF_SPHERE}\n"),
        ("wrong-dimension", 1, "verification failure: directions live in "
                               "C^3, expected C^2\n"),
    ])
    def test_same_verdict_everywhere(self, capsys, tmp_path, kind, code,
                                     message):
        from forelli_lab import cap_directions
        U = cap_directions(2, 0.3, 120, seed=5)
        if kind == "empty":
            U = U[:0]
        elif kind == "zero":
            U[0] = 0
        elif kind == "off-sphere":
            U[0] *= 2
        else:
            U = cap_directions(3, 0.3, 120, seed=5)
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([[[v.real, v.imag] for v in row]
                                    for row in U.tolist()]))
        dirs = ("--directions", str(path), "--json")
        runs = [("analyze", "--series-file", self.exp_series(tmp_path, order))
                for order in (4, 10)]
        runs += [("pencil-check", "--expr", "exp(z1+z2)"),
                 ("analyze", "--expr", "exp(z1+z2)", "--order", "8")]
        for argv in runs:
            got, out, err = run_cli(capsys, *argv, *dirs)
            assert (got, err) == (code, message), argv
            if code == 0:
                assert json.loads(out)["warnings"] == [self.OFF_SPHERE], argv


class TestLazyAngularGraph:
    """The angular graph is built on first read, and only then."""

    @pytest.fixture
    def graph_calls(self, monkeypatch):
        from forelli_lab import pencil
        calls, build = [], pencil._angular_graph

        def counted(directions, *args, **kwargs):
            calls.append(len(directions))
            return build(directions, *args, **kwargs)

        monkeypatch.setattr(pencil, "_angular_graph", counted)
        return calls

    def test_unread_graph_is_not_built(self, capsys, graph_calls):
        from forelli_lab import (AnalyzeConfig, cap_directions,
                                 forelli_analyze, parse)
        forelli_analyze(parse("exp(z1+z2)"), cap_directions(2, 0.3, 120,
                                                            seed=5),
                        AnalyzeConfig(order=8))
        dirs = ("--directions", "sphere:200", "--json")
        assert run_cli(capsys, "pencil-check", "--expr", "exp(z1+z2)",
                       *dirs)[0] == 0
        assert run_cli(capsys, "normalize", "--v0", "1,0 0,0", *dirs)[0] == 0
        assert graph_calls == []

    def test_subpencil_builds_it_once(self, capsys, graph_calls):
        code, out, _ = run_cli(capsys, "subpencil", "--expr",
                               "conj(z1)*z2^3", "--directions", "sphere:400",
                               "--tol", "3e-2", "--json")
        assert code == 0
        assert graph_calls == [400]
        # the patch found when the graph was built with the pencil
        summary = json.loads(out)["summary"]
        assert (summary["patch_size"], summary["m"]) == (46, 2)


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("analyze", "--expr", "exp(z1+z2)", "--order", "8",
                "--directions", "cap:0.3:100", "--seed", "42", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()

    def test_no_timings_in_json(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--set", "segment -1 1",
                            "--json")
        assert "elapsed" not in out and "time" not in json.loads(out)

    def test_three_variables_byte_identical_on_one_cpu(self, tmp_path):
        # the n = 3 jet samples its tori on the calling thread and one
        # helper; a child pinned to one CPU samples them on one thread and
        # writes the same bytes
        import os
        import subprocess
        import sys
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        cpu = min(os.sched_getaffinity(0))
        outs = []
        for pin in (False, True):
            path = tmp_path / f"report-{pin}.json"
            argv = ["analyze", "--expr", "exp(z1+z2+z3)", "--dim", "3",
                    "--order", "6", "--directions", "cap:0.3:150",
                    "--seed", "42", "--out", str(path)]
            code = ("import os, sys\n"
                    + (f"os.sched_setaffinity(0, {{{cpu}}})\n" if pin else "")
                    + "from forelli_lab import cli\n"
                    + f"sys.argv = ['forelli-lab'] + {argv!r}\n"
                    + "cli.main()\n")
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_identical_across_processes(self, tmp_path):
        # separate interpreters, so hash randomization cannot sneak set
        # ordering into the reports
        import subprocess
        import sys
        outs = []
        for i in range(2):
            path = tmp_path / f"report{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "forelli_lab.cli", "analyze",
                 "--expr", "exp(z1+z2)", "--order", "8",
                 "--directions", "cap:0.3:100", "--seed", "42",
                 "--out", str(path)],
                capture_output=True, env=None)
            assert proc.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestSchemaSweep:
    def test_every_subcommand_emits_schema_valid_json(self, capsys, tmp_path):
        series = tmp_path / "geo.txt"
        FormalSeries(2, 24, {((i, j), (0, 0)): 1.0
                             for i in range(25)
                             for j in range(25 - i)}).save(series)
        pencil = tmp_path / "twist.json"
        pencil.write_text(json.dumps(
            {"n": 2, "map": ["l*u1", "l*u2 + l^2*conj(u1)*u2"],
             "directions": "sphere:60:3"}))
        invocations = [
            ("analyze", "--expr", "exp(z1+z2)", "--order", "8",
             "--directions", "cap:0.3:100"),
            ("jet", "--expr", "z1*z2", "--order", "4"),
            ("slice", "--series-file", str(series), "--a", "1,0 0.5,0"),
            ("capacity", "--set", "segment -1 1", "--m", "64"),
            ("psh", "--family", str(series), "--K", "24", "--classify"),
            ("pencil-check", "--pencil", str(pencil), "--expr",
             "exp(z1+z2)"),
            ("subpencil", "--pencil", str(pencil), "--expr", "exp(z1+z2)"),
            ("normalize", "--pencil", str(pencil), "--v0", "1,0 0,0"),
            ("certify", "--series-file", str(series), "--r0", "0.5"),
            ("certify", "--expr", "exp(z1+z2)", "--order", "8"),
        ]
        failing = [
            ("analyze", "--expr", "conj(z1)+z2", "--order", "4",
             "--directions", "sphere:100"),
            ("jet", "--expr", "z1^2*z2*conj(z1)/normsq(z)", "--order", "4"),
            ("pencil-check", "--expr", "conj(z1)", "--directions",
             "sphere:40"),
            ("subpencil", "--pencil", str(pencil), "--expr", "conj(z1)"),
            ("normalize", "--pencil", str(pencil), "--v0", "1,0 0,0",
             "--expr", "z1*conj(z2)"),
            ("certify", "--expr", "conj(z1)+z2", "--order", "8"),
        ]
        out_file = tmp_path / "report.json"
        for want, argvs in ((0, invocations), (1, failing)):
            for argv in argvs:
                code, out, err = run_cli(capsys, *argv, "--json",
                                         "--out", str(out_file))
                assert code == want, (argv, err)
                validate(out)
                assert out_file.read_text(encoding="utf-8") == out, argv
                # the one exit rule: 1 exactly when some stage fails
                report = json.loads(out)
                failed = any(s["status"] == "fail" for s in report["stages"])
                assert code == int(failed), argv
                assert report["summary"]["passed"] is not failed, argv


class TestOneBuilderPerStage:
    """A stage that two subcommands emit has the same details in both."""

    @staticmethod
    def _details(capsys, name, *argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        return [s for s in json.loads(out)["stages"]
                if s["name"] == name][0]["details"]

    def test_same_details(self, capsys):
        expr = ("--expr", "exp(z1+z2)")
        analyze = {name: self._details(capsys, name, "analyze", *expr,
                                       "--order", "8", "--directions",
                                       "sphere:200")
                   for name in ("disc_holomorphy", "jet", "certificate")}
        assert analyze["disc_holomorphy"] == self._details(
            capsys, "disc_residuals", "pencil-check", *expr,
            "--directions", "sphere:200")
        assert analyze["jet"] == self._details(capsys, "jet", "jet", *expr,
                                               "--order", "8")
        assert analyze["certificate"] == self._details(
            capsys, "certificate", "certify", *expr, "--order", "8")
        assert set(analyze["disc_holomorphy"]) >= {"discs", "tol"}
        assert set(analyze["jet"]) >= {"max_consistent_order", "tol"}
        assert "margin" in analyze["certificate"]


class TestSubcommands:
    def test_jet_writes_series_format(self, capsys, tmp_path):
        out_path = tmp_path / "jet.txt"
        code, out, _ = run_cli(capsys, "jet", "--expr", "z1*z2", "--order",
                               "4", "--series-out", str(out_path))
        assert code == 0
        S = FormalSeries.load(out_path)
        assert abs(S.coefficient((1, 1)) - 1.0) <= 1e-10
        # stdout carries the text format plus a JSON diagnostics block
        assert out.startswith("n=2 N=4")
        diag = json.loads(out.strip().splitlines()[-1])
        assert diag["verdict"] == "FullJet"

    def test_slice_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        FormalSeries(2, 6, {((1, 0), (0, 0)): 1.0,
                            ((0, 1), (0, 0)): 1.0}).save(path)
        code, out, _ = run_cli(capsys, "slice", "--series-file", str(path),
                               "--a", "1,0 2,0", "--json")
        assert code == 0
        coeffs = json.loads(out)["summary"]["coefficients"]
        assert coeffs == [{"p": 1, "q": 0, "coeff": [3.0, 0.0]}]

    def test_slice_text_prints_plain_numbers(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        FormalSeries(2, 6, {((1, 0), (0, 0)): 1.0, ((0, 1), (0, 0)): 1.0,
                            ((0, 1), (1, 0)): -0.5j}).save(path)
        code, out, _ = run_cli(capsys, "slice", "--series-file", str(path),
                               "--a", "1,0 2,0")
        assert code == 0
        assert out.splitlines()[1:] == ["  t^1 tbar^0: [3.0, 0.0]",
                                        "  t^1 tbar^1: [0.0, -1.0]"]

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader keeps one line of a 0.3 MB report, several times the
        # pipe's buffer, and closes the pipe: no traceback, the SIGPIPE
        # status
        import subprocess
        import sys
        path = tmp_path / "big.txt"
        FormalSeries(2, 120, {((i, 0), (0, j)): 1.0 for i in range(121)
                              for j in range(121 - i)}).save(path)
        with subprocess.Popen(
                [sys.executable, "-m", "forelli_lab.cli", "slice",
                 "--series-file", str(path), "--a", "1,0 0.5,0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
            err = proc.stderr.read()
        assert first.startswith(b"slice along a=")
        assert (code, err) == (cli.EXIT_PIPE, b"")

    def test_psh_classify(self, capsys, tmp_path):
        path = tmp_path / "geo.txt"
        FormalSeries(2, 24, {((i, j), (0, 0)): 1.0
                             for i in range(25)
                             for j in range(25 - i)}).save(path)
        code, out, _ = run_cli(capsys, "psh", "--family", str(path),
                               "--r", "0.5", "--K", "24", "--classify",
                               "--json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["case"] == "Finite"
        validate(out)

    def test_normalize_with_hg(self, capsys, tmp_path):
        pencil = {"n": 2, "map": ["l*u1", "l*u2 + l^2*conj(u1)*u2"],
                  "directions": "sphere:60:3"}
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(pencil))
        code, out, _ = run_cli(capsys, "normalize", "--pencil", str(path),
                               "--v0", "1,0 0,0", "--expr", "exp(z1+z2)",
                               "--json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["max_abs_G"] <= 1e-7
        validate(out)

    @pytest.mark.parametrize("expr", ["conj(z1)", "z1*conj(z1)"])
    def test_normalize_claims_only_df_dwbar(self, capsys, tmp_path, expr):
        # f is antiholomorphic along the v0 disc itself, yet df/dwbar = 0
        # there: the H/G pass names only that equation
        pencil = {"n": 2, "map": ["l*u1", "l*u2 + l^2*conj(u1)*u2"],
                  "directions": "sphere:60:3"}
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(pencil))
        code, out, _ = run_cli(capsys, "normalize", "--pencil", str(path),
                               "--v0", "1,0 0,0", "--expr", expr)
        assert code == 0
        assert out.splitlines()[1].endswith(
            "-> PASS: df/dwbar = 0 along the v0 disc (holomorphy along the "
            "disc is hypothesis (2): pencil-check)")
        assert "dzbar" not in out

    def test_subpencil(self, capsys):
        code, out, _ = run_cli(capsys, "subpencil", "--expr", "exp(z1+z2)",
                               "--directions", "sphere:60", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["m"] == 1
        assert report["summary"]["patch_size"] == 60
        validate(out)

    def test_jet_with_center(self, capsys):
        code, out, _ = run_cli(capsys, "jet", "--expr", "z1^2", "--dim", "1",
                               "--order", "2", "--center", "1,0")
        assert code == 0
        S = FormalSeries.from_text(
            "\n".join(out.strip().splitlines()[:-1]) + "\n")
        # (z+1)^2 = 1 + 2z + z^2
        assert abs(S.coefficient((1,)) - 2.0) <= 1e-10

    def test_psh_envelope_csv(self, capsys, tmp_path):
        series = tmp_path / "s.txt"
        FormalSeries(2, 24, {((i, j), (0, 0)): 1.0
                             for i in range(25)
                             for j in range(25 - i)}).save(series)
        csv = tmp_path / "field.csv"
        code, out, _ = run_cli(capsys, "psh", "--family", str(series),
                               "--K", "24", "--envelope", "-1 1 -1 1",
                               "--envelope-num", "21", "--csv-out", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,u,u_star"
        assert len(lines) == 1 + 21 * 21

    def test_capacity_points_file(self, capsys, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("0 0\n1 0\n0 1\n")
        code, out, _ = run_cli(capsys, "capacity", "--set",
                               f"points {pts}", "--m", "16", "--json")
        assert code == 0
        assert json.loads(out)["summary"]["value"] == 0.0

    def test_certify_series_file(self, capsys, tmp_path):
        path = tmp_path / "geo.txt"
        FormalSeries(2, 10, {((i, j), (0, 0)): 1.0
                             for i in range(11)
                             for j in range(11 - i)}).save(path)
        code, out, _ = run_cli(capsys, "certify", "--series-file", str(path),
                               "--r0", "0.5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["M"] == pytest.approx(2.0, rel=1e-6)
        validate(out)

    def test_certificate_diagnostics_reach_the_reports(self, capsys,
                                                       tmp_path):
        path = tmp_path / "geo.txt"
        FormalSeries(2, 10, {((i, j), (0, 0)): 1.0
                             for i in range(11)
                             for j in range(11 - i)}).save(path)
        for argv in (("certify", "--series-file", str(path), "--r0", "0.5"),
                     ("analyze", "--series-file", str(path),
                      "--directions", "cap:0.3:120")):
            code, out, _ = run_cli(capsys, *argv, "--json")
            assert code == 0
            validate(out)
            stage = [s for s in json.loads(out)["stages"]
                     if s["name"] == "certificate"][0]
            diagnostics = stage["details"]["diagnostics"]
            assert 0 < diagnostics["max_block_ratio"] < 1
            assert set(diagnostics) == {"boundary_samples",
                                        "max_block_ratio", "seed"}
            assert diagnostics["seed"] == 42

    @pytest.mark.parametrize("source", ["expr", "series"])
    def test_certify_zbar_input_is_a_failed_verdict(self, capsys, tmp_path,
                                                    source):
        if source == "expr":
            argv = ("--expr", "conj(z1)+z2", "--order", "8")
            witness = {"I": [0, 0], "J": [1, 0]}
        else:
            path = tmp_path / "zbar.txt"
            (FormalSeries.variable(1, 2, 8)
             + FormalSeries.monomial((1, 0), (0, 1), 1.0, 8)).save(path)
            argv = ("--series-file", str(path))
            witness = {"I": [1, 0], "J": [0, 1]}
        code, out, err = run_cli(capsys, "certify", *argv, "--json")
        assert code == 1 and err == ""
        validate(out)
        report = json.loads(out)
        stages = {s["name"]: s for s in report["stages"]}
        holo = stages["holomorphic_type"]
        assert holo["status"] == "fail"
        assert {k: holo["details"]["witness"][k] for k in "IJ"} == witness
        assert stages["certificate"]["status"] == "skipped"
        assert report["summary"] == {"passed": False}

    def test_certify_failing_jet_emits_a_report(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--expr",
                                 "z1^2*z2*conj(z1)/normsq(z)", "--order",
                                 "6", "--json")
        assert code == 1 and err == ""
        validate(out)
        report = json.loads(out)
        jet = [s for s in report["stages"] if s["name"] == "jet"][0]
        assert jet["status"] == "fail"
        assert jet["details"]["verdict"] == "JetUpTo(1)"
        assert report["summary"]["passed"] is False
        config = report["config"]
        assert (config["dim"], config["order"], config["tol"]) == (2, 6, 1e-6)

    def test_jet_error_prints_plain_radii(self, capsys):
        code, out, err = run_cli(capsys, "jet", "--expr", "1/(z3-0.25)",
                                 "--dim", "3", "--order", "4")
        assert code == 3 and out == ""
        assert err == ("numerical failure: evaluation failed on torus "
                       "rho=(0.2, 0.2, 0.25): division by zero in "
                       "'z3-0.25'\n")

    def test_analyze_series_file(self, capsys, tmp_path):
        path = tmp_path / "geo.txt"
        FormalSeries(2, 10, {((i, j), (0, 0)): 1.0
                             for i in range(11)
                             for j in range(11 - i)}).save(path)
        code, out, _ = run_cli(capsys, "analyze", "--series-file", str(path),
                               "--directions", "cap:0.3:120", "--json")
        assert code == 0
        report = json.loads(out)
        stages = {s["name"]: s["status"] for s in report["stages"]}
        assert stages["jet"] == "skipped"
        assert stages["certificate"] == "pass"
        validate(out)

    @pytest.mark.parametrize("n", [1, 3])
    def test_analyze_series_file_reports_its_dimension(self, capsys,
                                                      tmp_path, n):
        # --dim keeps its default 2; the series sets the dimension
        path = tmp_path / "z1.txt"
        FormalSeries.variable(1, n, 8).save(path)
        code, out, _ = run_cli(capsys, "analyze", "--series-file", str(path),
                               "--directions", "sphere:120", "--json")
        report = json.loads(out)
        assert report["config"]["dimension"] == n
        assert len(report["summary"]["R_estimate"]) == 120
        validate(out)

    def test_version(self, capsys):
        assert run_cli(capsys, "--version")[0] == 0


def test_import_leaves_scipy_spatial_out():
    """Only the functions that build a KD-tree import scipy.spatial."""
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, forelli_lab.cli; "
         "print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, env=None)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


class TestRadiusColumn:
    """analyze reports one R_estimate per direction row, in row order."""

    @staticmethod
    def _column(capsys, tmp_path, rows):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps([[[v.real, v.imag] for v in row]
                                    for row in rows.tolist()]))
        code, out, _ = run_cli(capsys, "analyze", "--expr", "1/(3-z1-2*z2)",
                               "--order", "12", "--directions", str(path),
                               "--json")
        assert code in (0, 1)
        validate(out)
        return json.loads(out)["summary"]["R_estimate"]

    def test_null_where_a_row_has_no_chart(self, capsys, tmp_path):
        from forelli_lab import AnalyzeConfig, forelli_analyze, parse
        from forelli_lab.pencil import sphere_directions
        U = sphere_directions(2, 1000, seed=3)
        U[[0, 417, 999], 0] = 0            # u1 = 0: chart-excluded
        U /= np.linalg.norm(U, axis=1)[:, None]
        column = self._column(capsys, tmp_path, U)
        assert len(column) == 1000
        assert [i for i, r in enumerate(column) if r is None] == [0, 417, 999]
        rep = forelli_analyze(parse("1/(3-z1-2*z2)"), U,
                              AnalyzeConfig(order=12))
        assert column == rep.R_estimate
        # reversed rows give the reversed column
        charted = [i for i, r in enumerate(column) if r is not None]
        backward = self._column(capsys, tmp_path, U[::-1])
        assert [r is None for r in backward] == [r is None for r in column][
            ::-1]
        assert [r for r in backward[::-1] if r is not None] == pytest.approx(
            [column[i] for i in charted], rel=1e-12)

    def test_polynomial_radii_are_inf(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "z1*z2+z1^3",
                               "--order", "8", "--directions", "cap:0.3:120",
                               "--json")
        assert code == 0
        validate(out)
        assert json.loads(out)["summary"]["R_estimate"] == ["inf"] * 120

    def test_schema_requires_the_column(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "exp(z1+z2)",
                               "--order", "8", "--json")
        report = json.loads(out)
        for bad in ([1.0, "nan"], None, "inf"):
            report["summary"]["R_estimate"] = bad
            with pytest.raises(jsonschema.ValidationError):
                validate(json.dumps(report))
        del report["summary"]["R_estimate"]
        with pytest.raises(jsonschema.ValidationError):
            validate(json.dumps(report))


def test_one_report_builder():
    """``cli`` builds every report in one place, from ``pipeline.Stage``s."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "build_report"]
    stage_dicts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Dict)
                   and any(isinstance(key, ast.Constant) and key.value ==
                           "status" for key in node.keys)]
    assert len(calls) == 1, calls
    assert stage_dicts == []


class TestTextMode:
    @pytest.mark.parametrize("expr,order,code", [
        ("exp(z1+z2)", 8, 0), ("z1^2*z2*conj(z1)/normsq(z)", 4, 1)])
    def test_no_report_is_encoded(self, capsys, monkeypatch, expr, order,
                                  code):
        # without --json or --out the report is never built or encoded
        from forelli_lab import cli
        args = ("jet", "--expr", expr, "--order", str(order))
        want = run_cli(capsys, *args)

        def unused(*args):
            raise AssertionError("report encoded in text mode")

        monkeypatch.setattr(cli, "build_report", unused)
        monkeypatch.setattr(cli, "to_json", unused)
        assert run_cli(capsys, *args) == want
        assert want[0] == code and want[1]
