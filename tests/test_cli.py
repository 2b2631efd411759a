import json

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from forelli_lab.cli import run
from forelli_lab.report import schema_text
from forelli_lab.series import FormalSeries


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(out: str):
    jsonschema.validate(json.loads(out), json.loads(schema_text()))


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

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_numerical_error_exit_three(self, capsys):
        # nearly equal radii make every mode solve ill-conditioned
        code, _, err = run_cli(capsys, "jet", "--expr", "z1*z2", "--order",
                               "6", "--sigma", "1.0000001")
        assert code == 3
        assert "numerical failure" in err

    def test_pencil_check_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, "pencil-check", "--expr", "conj(z1)",
                               "--directions", "sphere:40")
        assert code == 1
        assert "FAIL" in out


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

    def test_analyze_disc_stage_evidence(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "conj(z1)+z2",
                               "--order", "4", "--directions", "sphere:100",
                               "--json")
        assert code == 1
        stage = [s for s in json.loads(out)["stages"]
                 if s["name"] == "disc_holomorphy"][0]
        assert stage["status"] == "fail"
        assert stage["details"]["worst_radius"] == 0.9
        assert stage["details"]["discs_with_error"] == 0
        assert isinstance(stage["details"]["worst_direction_index"], int)


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
        from forelli_lab.cli import _load_directions
        P = load_pencil({"n": 2, "directions": "cap:0.5:30"})
        want = standard_pencil(2, cap_directions(2, 0.5, 30, seed=0))
        assert np.array_equal(P.directions, want.directions)
        assert np.array_equal(_load_directions("sphere:30", 2, 42),
                              sphere_directions(2, 30, 42))
        assert np.array_equal(_load_directions("sphere:30:5", 2, 42),
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

    def test_floating_point_warnings_stay_out(self, capsys):
        # exp overflows on some discs, and inf * 0 is invalid
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, out, _ = run_cli(capsys, "pencil-check", "--expr",
                                   "exp(900*z1)*conj(z1)", "--directions",
                                   "sphere:20", "--json")
        assert code == 1
        assert json.loads(out)["warnings"] == []

    def test_clean_run_has_no_warnings(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--set", "segment -1 1",
                            "--json")
        assert json.loads(out)["warnings"] == []


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
        # the n = 3 jet samples its tori on a thread pool; a child pinned
        # to one CPU runs them on one thread and writes the same bytes
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
        ]
        for argv in invocations:
            code, out, err = run_cli(capsys, *argv, "--json")
            assert code == 0, (argv, err)
            validate(out)


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
            assert diagnostics["check_points"] == 20
            assert diagnostics["seed"] == 42

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
        assert len(report["summary"]["per_direction"][0]["direction"]) == n
        validate(out)

    def test_version(self, capsys):
        assert run_cli(capsys, "--version")[0] == 0
