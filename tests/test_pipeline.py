import json
import threading

import numpy as np
import pytest

from forelli_lab import (AnalyzeConfig, FormalSeries, cap_directions,
                         forelli_analyze, parse, sphere_directions,
                         standard_pencil)


class TestEntireFunction:
    def test_cap_directions_full_pass(self):
        U = cap_directions(2, 0.3, 200, seed=5)
        rep = forelli_analyze(parse("exp(z1+z2)"), U)
        assert rep.passed
        assert rep.stage("jet").details["verdict"] == "FullJet"
        assert rep.stage("holomorphic_type").status == "pass"
        assert all(r is not None and r >= 0.9 for r in rep.R_estimate)
        assert rep.certificate is not None
        assert rep.certificate.r_prime[0] > 0
        assert "Hartogs" in rep.final_verdict


class TestCounterexample:
    def test_hypothesis_one_failure_reported(self):
        U = sphere_directions(2, 200, seed=6)
        cfg = AnalyzeConfig(order=4)
        rep = forelli_analyze(parse("z1^2*z2*conj(z1)/normsq(z)"), U, cfg)
        assert not rep.passed
        assert rep.stage("disc_holomorphy").status == "pass"
        assert rep.stage("jet").status == "fail"
        assert rep.stage("jet").details["verdict"] == "JetUpTo(1)"
        assert "hypothesis (1) fails" in rep.final_verdict


class TestOneVariable:
    def test_exp_analyze_passes_every_stage(self, capsys):
        import json
        from forelli_lab.cli import run
        code = run(["analyze", "--expr", "exp(z1)", "--dim", "1",
                    "--order", "12", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Infinity" not in out and "NaN" not in out
        report = json.loads(out)
        for stage in report["stages"]:
            assert stage["status"] == "pass", stage
        capacity = [s for s in report["stages"]
                    if s["name"] == "direction_capacity"][0]
        assert "chart space is a point" in capacity["details"]["detail"]


class TestSeriesInput:
    def test_non_holomorphic_type_halts(self):
        S = (FormalSeries.variable(1, 2, 8)
             + FormalSeries.monomial((1, 0), (0, 1), 1.0, 8))
        U = sphere_directions(2, 150, seed=8)
        rep = forelli_analyze(S, U)
        assert not rep.passed
        assert rep.stage("disc_holomorphy").status == "skipped"
        assert rep.stage("jet").status == "skipped"
        ht = rep.stage("holomorphic_type")
        assert ht.status == "fail"
        assert ht.details["witness"]["I"] == [1, 0]
        assert ht.details["witness"]["J"] == [0, 1]
        # everything downstream is skipped
        for name in ("chart_family", "directional_radii",
                     "direction_capacity", "certificate"):
            assert rep.stage(name).status == "skipped"

    def test_holomorphic_series_passes(self):
        S = FormalSeries(2, 10, {((i, j), (0, 0)): 1.0
                                 for i in range(11) for j in range(11 - i)})
        U = cap_directions(2, 0.4, 200, seed=9)
        rep = forelli_analyze(S, U)
        assert rep.passed
        assert rep.certificate.M == pytest.approx(2.0, rel=1e-6)


class TestRadiiEvidence:
    def test_names_the_first_smallest_radius(self):
        U = cap_directions(2, 0.3, 120, seed=5)
        # the pole set z1 + 2 z2 = 3 is nearest along u1 + 2 u2 largest
        rep = forelli_analyze(parse("1/(3-z1-2*z2)"), U,
                              AnalyzeConfig(order=12))
        details = rep.stage("directional_radii").details
        radii = rep.R_estimate
        index = details["min_R_direction_index"]
        assert radii[index] == details["min_R_estimate"] == min(radii)
        assert index == radii.index(min(radii))
        assert max(radii) > 2 * min(radii)

    def test_null_when_every_direction_is_chart_excluded(self):
        U = [(0.0, 1.0), (0.0, 1j), (0.0, -1.0)]
        rep = forelli_analyze(parse("exp(z1+z2)"), U, AnalyzeConfig(order=12))
        details = rep.stage("directional_radii").details
        assert details["chart_excluded"] == 3
        assert details["min_R_direction_index"] is None


def radius_column(series, K, rows):
    """The reference column, row by row from the radii stage's own
    functions: each unit row's radius, None without a chart."""
    from forelli_lab.slices import (chart_map, chart_poly_family,
                                    radius_root_test)
    charts, has_chart = chart_map(rows)
    family = chart_poly_family(series, K)
    radii = iter(radius_root_test(
        family.abs_values_at(charts[:, 0])).radius.tolist())
    return [next(radii) if charted else None for charted in has_chart]


class TestUnitRows:
    def test_reported_directions_are_the_checked_rows(self):
        # the radii stage reads the pencil's unit rows, bit for bit
        U = sphere_directions(2, 1000, seed=42)
        rep = forelli_analyze(parse("exp(z1+z2)"), U, AnalyzeConfig(order=8))
        rows = standard_pencil(2, U).directions
        assert rep.R_estimate == radius_column(rep.jet.series, 8, rows)


class TestRadiusColumn:
    """The radii stage keeps one radius per row, in row order."""

    def test_per_direction_entries(self):
        U = np.vstack([cap_directions(2, 0.3, 60, seed=5),
                       [(0.0, 1.0), (0.0, 1j)], sphere_directions(2, 40)])
        rep = forelli_analyze(parse("1/(3-z1-2*z2)"), U,
                              AnalyzeConfig(order=12))
        rows = standard_pencil(2, U).directions
        # repr shows every bit of a float
        assert json.dumps(rep.R_estimate) == json.dumps(
            radius_column(rep.jet.series, 12, rows))
        assert [i for i, r in enumerate(rep.R_estimate) if r is None] == [
            60, 61]
        assert rep == forelli_analyze(parse("1/(3-z1-2*z2)"), U,
                                      AnalyzeConfig(order=12))

    def test_empty_when_the_radii_stage_does_not_run(self):
        U = sphere_directions(2, 50, seed=1)
        short = forelli_analyze(parse("exp(z1+z2)"), U, AnalyzeConfig(order=6))
        assert short.stage("directional_radii").status == "skipped"
        zbar = forelli_analyze(parse("z1*conj(z2)"), U, AnalyzeConfig(order=8))
        assert zbar.stage("directional_radii").status == "skipped"
        for rep in (short, zbar):
            assert rep.R_estimate == []
            assert rep.summary()["R_estimate"] == []


class TestDirectionCheck:
    def test_series_rejects_directions_of_another_dimension(self):
        from forelli_lab import PencilCheckError
        S = FormalSeries.variable(1, 2, 8)
        with pytest.raises(PencilCheckError,
                           match=r"directions live in C\^3, expected C\^2"):
            forelli_analyze(S, sphere_directions(3, 200))


class TestConfigRefusedBeforeTheFirstStage:
    @pytest.mark.parametrize("cfg,message", [
        (AnalyzeConfig(order=8, K=0), "^K must be at least 1, not 0$"),
        (AnalyzeConfig(order=0), "^K must be at least 1, not 0$"),
        # K is capped at the order of the jet
        (AnalyzeConfig(order=0, K=5), "^K must be at least 1, not 0$"),
        (AnalyzeConfig(order=8, r0=float("nan")),
         "^r0 must be positive and finite, not nan$")])
    def test_no_stage_runs(self, monkeypatch, cfg, message):
        # the zbar input would skip the certificate stage
        from forelli_lab import pipeline

        def no_stage(*args, **kw):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(pipeline, "disc_stage", no_stage)
        monkeypatch.setattr(pipeline, "jet_stage", no_stage)
        with pytest.raises(ValueError, match=message):
            forelli_analyze(parse("z1*conj(z2)"), sphere_directions(2, 50),
                            cfg)


class TestReportShape:
    def test_to_dict_is_json_ready(self):
        import json
        from forelli_lab.report import sanitize
        U = cap_directions(2, 0.3, 120, seed=5)
        rep = forelli_analyze(parse("exp(z1+z2)"), U,
                              AnalyzeConfig(order=8))
        payload = sanitize(rep.to_dict())
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
        assert "stages" in json.loads(text)


class TestCapacityBesideTheJet:
    """The capacity stage reads only the directions: its normality check
    runs on the calling thread, once per direction set, when the stage is
    reached, and only a result is kept."""

    @staticmethod
    def _checks(monkeypatch):
        """Count the calls of ``pipeline.normality_check``."""
        from forelli_lab import pipeline
        calls, check = [], pipeline.normality_check

        def counted(U):
            calls.append(U.shape)
            return check(U)

        monkeypatch.setattr(pipeline, "normality_check", counted)
        return calls

    @staticmethod
    def _threads_after(run):
        before = threading.active_count()
        result = run()
        assert threading.active_count() == before
        return result

    def test_pass(self, monkeypatch):
        calls = self._checks(monkeypatch)
        U = cap_directions(3, 0.3, 150, seed=5)
        rep = self._threads_after(lambda: forelli_analyze(
            parse("exp(z1+z2+z3)", dim=3), U, AnalyzeConfig(order=6)))
        assert rep.passed
        assert rep.stage("direction_capacity").status == "pass"
        assert calls == [(150, 3)]

    def test_one_check_per_direction_set(self, monkeypatch):
        # two functions on one set, the second from an equal copy of its
        # rows, share one check and report the same capacity stage
        calls = self._checks(monkeypatch)
        U = cap_directions(2, 0.3, 120, seed=5)
        reps = [self._threads_after(lambda: forelli_analyze(
                    parse(expr), rows, AnalyzeConfig(order=8)))
                for expr, rows in (("exp(z1+z2)", U),
                                   ("1+z1*z2+z1^3", U.copy()))]
        assert calls == [(120, 2)]
        first, second = (rep.stage("direction_capacity") for rep in reps)
        assert first.status == "pass"
        assert first.to_dict() == second.to_dict()

    def test_rows_in_another_order_are_another_set(self, monkeypatch):
        calls = self._checks(monkeypatch)
        U = cap_directions(2, 0.3, 120, seed=5)
        for rows in (U, U[::-1], U):
            forelli_analyze(parse("exp(z1+z2)"), rows, AnalyzeConfig(order=8))
        assert calls == [(120, 2), (120, 2)]

    def test_holomorphic_type_failure(self, monkeypatch):
        # the stage is skipped, so the check never runs
        calls = self._checks(monkeypatch)
        S = (FormalSeries.variable(1, 2, 8)
             + FormalSeries.monomial((1, 0), (0, 1), 1.0, 8))
        U = sphere_directions(2, 150, seed=8)
        rep = self._threads_after(lambda: forelli_analyze(S, U))
        assert rep.stage("holomorphic_type").status == "fail"
        assert rep.stage("direction_capacity").status == "skipped"
        assert calls == []

    def test_escaping_jet_error(self, monkeypatch):
        from forelli_lab import JetExtractionError
        calls = self._checks(monkeypatch)
        U = cap_directions(3, 0.3, 150, seed=5)

        def run():
            with pytest.raises(JetExtractionError,
                               match=r"rho=\(0\.2, 0\.2, 0\.25\)"):
                forelli_analyze(parse("1/(z3-0.25)", dim=3), U,
                                AnalyzeConfig(order=4))

        self._threads_after(run)
        assert calls == []

    def test_too_few_directions(self, monkeypatch):
        # an error is not kept: every analysis checks again and records it
        calls = self._checks(monkeypatch)
        U = sphere_directions(2, 60, seed=3)
        for _ in range(2):
            rep = self._threads_after(lambda: forelli_analyze(
                parse("exp(z1+z2)"), U, AnalyzeConfig(order=8)))
            stage = rep.stage("direction_capacity")
            assert stage.status == "fail"
            assert stage.details == {
                "error": "normality check needs >= 100 sampled directions"}
        assert calls == [(60, 2), (60, 2)]

    def test_other_errors_are_raised(self, monkeypatch):
        from forelli_lab import pipeline
        calls = []

        def broken(U):
            calls.append(U.shape)
            raise RuntimeError("broken capacity check")

        monkeypatch.setattr(pipeline, "normality_check", broken)
        U = cap_directions(2, 0.3, 120, seed=5)

        def run():
            with pytest.raises(RuntimeError, match="broken capacity check"):
                forelli_analyze(parse("exp(z1+z2)"), U,
                                AnalyzeConfig(order=8))

        for _ in range(2):
            self._threads_after(run)
        assert calls == [(120, 2), (120, 2)]


class TestCertificateDiagnostics:
    def test_certificate_stage_carries_them(self):
        U = cap_directions(2, 0.3, 120, seed=5)
        rep = forelli_analyze(parse("exp(z1+z2)"), U, AnalyzeConfig(order=8))
        details = rep.stage("certificate").details
        assert details["diagnostics"] == rep.certificate.diagnostics
        assert 0 < details["diagnostics"]["max_block_ratio"] < 1
