import pytest

from forelli_lab import (AnalyzeConfig, FormalSeries, cap_directions,
                         forelli_analyze, parse, sphere_directions)


class TestEntireFunction:
    def test_cap_directions_full_pass(self):
        U = cap_directions(2, 0.3, 200, seed=5)
        rep = forelli_analyze(parse("exp(z1+z2)"), U)
        assert rep.passed
        assert rep.stage("jet").details["verdict"] == "FullJet"
        assert rep.stage("holomorphic_type").status == "pass"
        radii = [e["R_estimate"] for e in rep.per_direction]
        assert all(r is not None and r >= 0.9 for r in radii)
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
        radii = [e["R_estimate"] for e in rep.per_direction]
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
    """The capacity check runs on a thread that every exit joins."""

    @staticmethod
    def _threads_after(run):
        import threading
        before = threading.active_count()
        result = run()
        assert threading.active_count() == before
        return result

    def test_pass(self):
        U = cap_directions(3, 0.3, 150, seed=5)
        rep = self._threads_after(lambda: forelli_analyze(
            parse("exp(z1+z2+z3)", dim=3), U, AnalyzeConfig(order=6)))
        assert rep.passed
        assert rep.stage("direction_capacity").status == "pass"

    def test_holomorphic_type_failure(self):
        S = (FormalSeries.variable(1, 2, 8)
             + FormalSeries.monomial((1, 0), (0, 1), 1.0, 8))
        U = sphere_directions(2, 150, seed=8)
        rep = self._threads_after(lambda: forelli_analyze(S, U))
        assert rep.stage("holomorphic_type").status == "fail"
        assert rep.stage("direction_capacity").status == "skipped"

    def test_escaping_jet_error(self):
        from forelli_lab import JetExtractionError
        U = cap_directions(3, 0.3, 150, seed=5)

        def run():
            with pytest.raises(JetExtractionError,
                               match=r"rho=\(0\.2, 0\.2, 0\.25\)"):
                forelli_analyze(parse("1/(z3-0.25)", dim=3), U,
                                AnalyzeConfig(order=4))

        self._threads_after(run)

    def test_too_few_directions(self):
        U = sphere_directions(2, 60, seed=3)
        rep = self._threads_after(lambda: forelli_analyze(
            parse("exp(z1+z2)"), U, AnalyzeConfig(order=8)))
        stage = rep.stage("direction_capacity")
        assert stage.status == "fail"
        assert stage.details == {
            "error": "normality check needs >= 100 sampled directions"}

    def test_other_errors_are_raised(self, monkeypatch):
        from forelli_lab import pipeline

        def broken(U):
            raise RuntimeError("broken capacity check")

        monkeypatch.setattr(pipeline, "normality_check", broken)
        U = cap_directions(2, 0.3, 120, seed=5)

        def run():
            with pytest.raises(RuntimeError, match="broken capacity check"):
                forelli_analyze(parse("exp(z1+z2)"), U,
                                AnalyzeConfig(order=8))

        self._threads_after(run)


class TestCertificateDiagnostics:
    def test_certificate_stage_carries_them(self):
        U = cap_directions(2, 0.3, 120, seed=5)
        rep = forelli_analyze(parse("exp(z1+z2)"), U, AnalyzeConfig(order=8))
        details = rep.stage("certificate").details
        assert details["diagnostics"] == rep.certificate.diagnostics
        assert 0 < details["diagnostics"]["max_block_ratio"] < 1
