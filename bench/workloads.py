"""The benchmark's workloads: seeded inputs, op lists and expected outcomes.

Each workload draws its inputs from the seed, writes them as files where
the CLI reads files (direction sets, pencil JSON, series), and returns a
cycle of ops that each carry the outcome the mathematics predicts.  Ops
go through ``forelli_lab.cli.run`` with ``--json`` where a subcommand
exists and through the public Python API otherwise.

Every timed op agreed with ground truth when the benchmark was added.
Inputs on which the library's verdicts were wrong then are ``hard``
cases: they run once, untimed, after the timed window and feed only
``verdict_agreement_frac``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import List

import numpy as np

import truth
from harness import Op, cli_call

# A seed kept out of every measurement made while a change is developed;
# a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

JET_TOL = 1e-6
TWIST = ["l*u1", "l*u2 + l^2*conj(u1)*u2"]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    tail_pct: float
    hard: List[Op] = field(default_factory=list)


def sphere(rng, n: int, count: int) -> np.ndarray:
    """Uniform unit vectors in C^n."""
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1)[:, None]


def pairs(vectors) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in vectors]


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _report(out: str) -> dict:
    return json.loads(out)


def _stages(rep: dict) -> dict:
    return {s["name"]: s for s in rep["stages"]}


# -- expected outcomes ---------------------------------------------------------

def expect_holomorphic(polyradius_max=None):
    """A function holomorphic near 0: every hypothesis holds (exit 0).

    With ``polyradius_max`` the certified polydisc must lie inside the
    polydisc of convergence, whose polyradius is that bound.
    """
    def check(code, out, err):
        rep = _report(out)
        if code != 0:
            return f"exit {code}, expected 0: {rep['summary'].get('final_verdict')}"
        st = _stages(rep)
        for name in ("disc_holomorphy", "jet", "holomorphic_type",
                     "certificate"):
            if st[name]["status"] != "pass":
                return f"stage {name} is {st[name]['status']}"
        r_prime = rep["summary"]["certificate"]["r_prime"]
        if not all(r > 0 for r in r_prime):
            return f"certificate polyradius {r_prime} not positive"
        if polyradius_max is not None and not all(
                r <= b for r, b in zip(r_prime, polyradius_max)):
            return f"certificate polyradius {r_prime} exceeds {polyradius_max}"
        return None
    return check


def expect_zbar_polynomial(code, out, err):
    """conj(z1) + z2: the jet exists, but it has a zbar term and conj is
    antiholomorphic along every disc (exit 1)."""
    if code != 1:
        return f"exit {code}, expected 1"
    st = _stages(_report(out))
    want = {"disc_holomorphy": "fail", "jet": "pass", "holomorphic_type": "fail"}
    for name, status in want.items():
        if st[name]["status"] != status:
            return f"stage {name} is {st[name]['status']}, expected {status}"
    return None


def expect_counterexample(code, out, err):
    """z1^2 z2 conj(z1)/|z|^2 is lambda^2 c(u) on each straight disc, but
    homogeneous of degree 2 and not a polynomial: holomorphic along the
    discs, with a jet up to order 1 only (exit 1)."""
    if code != 1:
        return f"exit {code}, expected 1"
    st = _stages(_report(out))
    if st["disc_holomorphy"]["status"] != "pass":
        return "disc holomorphy should hold on straight discs"
    verdict = st["jet"]["details"]["verdict"]
    return None if verdict == "JetUpTo(1)" else f"jet verdict {verdict}"


def expect_jet(expected: dict, tol: float = JET_TOL):
    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        summary = _report(out)["summary"]
        if summary["verdict"] != "FullJet":
            return f"jet verdict {summary['verdict']}"
        _, _, terms = truth.parse_series_text(summary["series"])
        worst = truth.coeff_error(terms, expected)
        return None if worst <= tol else f"coefficient error {worst:.3g} > {tol:g}"
    return check


# -- analyze workloads ---------------------------------------------------------

EXP2 = "exp(z1+z2)"
POLY2 = "1+z1*z2+z1^3-2*z2^2"
POLY2_TERMS = {((0, 0), (0, 0)): 1, ((1, 1), (0, 0)): 1,
               ((3, 0), (0, 0)): 1, ((0, 2), (0, 0)): -2}
GEO2 = "1/((1-z1)*(1-z2))"
EXP3 = "exp(z1+z2+z3)"
POLY3 = "1+z1*z2*z3+z1^3-2*z2^2*z3"
GEO3 = "1/((1-z1)*(1-z2)*(1-z3))"


def analyze_op(expr, n, order, dirs_file, count, seed, check, rho_max=None):
    argv = ["analyze", "--expr", expr, "--dim", n, "--order", order,
            "--directions", dirs_file, "--seed", seed, "--json"]
    label = f"analyze n={n} N={order} dirs={count} {expr}"
    if rho_max is not None:
        argv += ["--rho-max", rho_max]
        label += f" rho_max={rho_max}"
    return Op("analyze", label, cli_call(argv), check)


def jet_op(expr, n, order, expected):
    argv = ["jet", "--expr", expr, "--dim", n, "--order", order, "--json"]
    return Op("jet", f"jet n={n} N={order} {expr}", cli_call(argv),
              expect_jet(expected))


def analyze_deep(seed: int, workdir: str) -> Workload:
    """n = 1, 2 with 200 directions; orders 12 to 22."""
    rng = np.random.default_rng([seed, 1])
    d2 = write_json(os.path.join(workdir, "dirs2.json"), pairs(sphere(rng, 2, 200)))
    d1 = write_json(os.path.join(workdir, "dirs1.json"), pairs(sphere(rng, 1, 200)))
    holo = expect_holomorphic()

    def a(expr, order, check, rho_max=None, n=2, dirs=d2):
        return analyze_op(expr, n, order, dirs, 200, seed, check, rho_max)

    poly_jet = {k: complex(v) for k, v in POLY2_TERMS.items()}
    ops = [
        a(EXP2, 12, holo), a(EXP2, 12, holo, 1), a(POLY2, 12, holo),
        a("conj(z1)+z2", 12, expect_zbar_polynomial),
        a("z1^2*z2*conj(z1)/normsq(z)", 4, expect_counterexample),
        jet_op(EXP2, 2, 12, truth.exp_sum_jet(2, 12)),
        a(EXP2, 16, holo), a(EXP2, 16, holo, 1), a(POLY2, 16, holo, 1),
        jet_op(EXP2, 2, 16, truth.exp_sum_jet(2, 16)),
        a(EXP2, 20, holo), a(EXP2, 20, holo, 1),
        a("conj(z1)+z2", 20, expect_zbar_polynomial),
        jet_op(POLY2, 2, 20, poly_jet),
        a(EXP2, 22, holo), a(EXP2, 22, holo, 1), a(POLY2, 22, holo),
        jet_op(EXP2, 2, 22, truth.exp_sum_jet(2, 22)),
    ]
    hard = [
        a("exp(z1)", 12, holo, n=1, dirs=d1),
        a("exp(z1)", 20, holo, 1, n=1, dirs=d1),
        a(GEO2, 12, expect_holomorphic((1.0, 1.0))),
        a(GEO2, 16, expect_holomorphic((1.0, 1.0))),
    ]
    return Workload("analyze_deep", ops, 80.0, hard)


def analyze_wide(seed: int, workdir: str) -> Workload:
    """n = 3 at orders 6 to 10 with 200 and 1000 directions."""
    rng = np.random.default_rng([seed, 2])
    files = {m: write_json(os.path.join(workdir, f"dirs3_{m}.json"),
                           pairs(sphere(rng, 3, m))) for m in (200, 1000)}
    holo = expect_holomorphic()

    def a(expr, order, count, check=holo):
        return analyze_op(expr, 3, order, files[count], count, seed, check)

    ops = [
        a(POLY3, 6, 200), a(EXP3, 8, 1000), a(POLY3, 8, 1000),
        a(EXP3, 8, 200), a(POLY3, 10, 200), a(POLY3, 6, 1000),
        a(POLY3, 10, 1000),
    ]
    geo = expect_holomorphic((1.0, 1.0, 1.0))
    hard = [a(GEO3, 6, 200, geo), a(GEO3, 8, 1000, geo)]
    return Workload("analyze_wide", ops, 50.0, hard)


# -- lab session -----------------------------------------------------------------

def gaussian_series(rng, n: int, N: int) -> dict:
    """Full-support mixed z/zbar series with small Gaussian-integer terms."""
    out = {}
    for I in truth.multi_indices(n, N):
        for J in truth.multi_indices(n, N - sum(I)):
            c = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if c != (0, 0):
                out[(I, J)] = c
    return out


def geometric_series(unit, var: int, N: int) -> dict:
    """sum_k (a z_var)^k for a Gaussian unit a, in n = 2."""
    out = {}
    for k in range(N + 1):
        I = (k, 0) if var == 0 else (0, k)
        out[(I, (0, 0))] = truth.gpow(unit, k)
    return out


def power_family(coeffs) -> "FormalSeries":
    """Series whose slice polynomials are P_k(b) = coeffs[k] b^k (n = 2)."""
    from forelli_lab import FormalSeries
    N = len(coeffs) - 1
    return FormalSeries(2, N, {((0, k), (0, 0)): c for k, c in enumerate(coeffs)})


def expect_capacity(closed, rel):
    """A capacity estimate within ``rel`` of its closed form."""
    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        value = _report(out)["summary"]["value"]
        ok = abs(value - closed) <= rel * closed
        return None if ok else f"capacity {value:.6g}, closed form {closed:g}"
    return check


def lab_session(seed: int, workdir: str) -> Workload:
    """Every other subcommand and API call; no jet extraction."""
    import forelli_lab as fl
    rng = np.random.default_rng([seed, 3])
    path = lambda name: os.path.join(workdir, name)

    # pencils: a twisted general pencil over 500 seeded directions
    U = sphere(rng, 2, 500)
    pencil_file = write_json(path("twist.json"),
                             {"n": 2, "map": TWIST, "directions": pairs(U)})
    twisted = fl.load_pencil(pencil_file)
    standard = fl.standard_pencil(2, U)
    W = np.sort(rng.choice(len(U), 20, replace=False))
    worst_conj = 0.9 * float(np.abs(U[:, 0]).max())

    # series algebra on exact Gaussian-integer data
    sq = gaussian_series(rng, 2, 6)
    A, B = gaussian_series(rng, 2, 8), gaussian_series(rng, 2, 8)
    units = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    g1 = geometric_series(units[int(rng.integers(4))], 0, 16)
    g2 = geometric_series(units[int(rng.integers(4))], 1, 16)
    fs = {name: fl.FormalSeries(2, N, truth.as_complex(s)) for name, s, N in
          (("sq", sq, 6), ("A", A, 8), ("B", B, 8), ("g1", g1, 16), ("g2", g2, 16))}
    (fs["A"] * fs["B"]).save(path("mixed.txt"))
    (fs["g1"] * fs["g2"]).save(path("geometric.txt"))
    AB = truth.exact_product(A, B, 8)
    ray = [(int(rng.integers(-2, 3)), int(rng.integers(1, 3))) for _ in range(2)]
    slice_truth = truth.exact_slice(AB, ray)

    def expect_product(exact):
        want = truth.as_complex(exact)

        def check(value, out, err):
            got = value.terms
            if got != want:
                bad = sorted(set(got) ^ set(want)) or [
                    k for k in want if got[k] != want[k]]
                return f"product differs from the exact product at {bad[0]}"
            return None
        return check

    def mul(a, b, exact):
        return Op("series.mul", f"series product {a}*{b}",
                  lambda: fs[a] * fs[b], expect_product(exact))

    def check_slice(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        got = {(c["p"], c["q"]): complex(*c["coeff"])
               for c in _report(out)["summary"]["coefficients"]}
        want = truth.as_complex(slice_truth)
        scale = max(abs(v) for v in want.values())
        worst = truth.coeff_error(got, want)
        return None if worst <= 1e-12 * scale else f"slice error {worst:.3g}"

    def check_certificate(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        r_prime = _report(out)["summary"]["r_prime"]
        # sum (a1 z1)^i (a2 z2)^j with |a| = 1 converges on the unit polydisc
        if not all(0 < r < 1 for r in r_prime):
            return f"certified polyradius {r_prime} not inside the unit polydisc"
        return None

    # capacities: translates of the segment [-1, 1] and of a disc of radius 0.7
    c0 = float(rng.uniform(-1, 1))
    dx, dy = (float(v) for v in rng.uniform(-1, 1, 2))

    # psh: P_k(b) = (s b)^k has u_k = log|s b| and alpha_r = log(s r)
    s = float(rng.uniform(0.8, 1.25))
    r = float(rng.uniform(0.6, 1.2))
    K = 60
    power_family([s ** k for k in range(K + 1)]).save(path("psh_finite.txt"))
    Kc = 120
    power_family([1.0] + [float(k) ** -k for k in range(1, Kc + 1)]).save(
        path("psh_minus.txt"))
    power_family([1.0] + [float(k) ** k for k in range(1, Kc + 1)]).save(
        path("psh_plus.txt"))
    csv_file = path("envelope.csv")

    def check_psh(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        summary = _report(out)["summary"]
        if summary["case"] != "Finite":
            return f"case {summary['case']}, expected Finite"
        if abs(summary["alpha_r"] - math.log(s * r)) > 1e-6:
            return f"alpha_r {summary['alpha_r']:.9g} != log(s r) {math.log(s * r):.9g}"
        # u = log|s b| is exceptional only at the pole b = 0, which is a
        # grid node; on the grid that is at most its 3 x 3 block
        if not 1 <= summary["exceptional_count"] <= 9:
            return f"{summary['exceptional_count']} exceptional nodes"
        return None

    def check_envelope_csv(code, out, err):
        reason = check_psh(code, out, err)
        if reason:
            return reason
        with open(csv_file, encoding="utf-8") as fh:
            rows = [tuple(float(t) for t in line.split(","))
                    for line in fh.read().splitlines()[1:]]
        for x, y, u, u_star in rows:
            b = abs(complex(x, y))
            if b > 0.1 and abs(u - math.log(s * b)) > 1e-9:
                return f"envelope u({x:g},{y:g}) = {u:.9g} != log|s b|"
            if u < u_star - 0.5 and b > 0.03:
                return f"exceptional node ({x:g},{y:g}) away from the pole"
        return None

    def psh_op(check, *extra):
        return Op("psh", "psh classify and envelope" + (" to CSV" if extra else ""),
                  cli_call(["psh", "--family", path("psh_finite.txt"),
                            "--r", repr(r), "--K", K, "--classify",
                            "--envelope", "-1 1 -1 1", *extra, "--json"]),
                  check)

    def classify(file, case):
        def call():
            S = fl.FormalSeries.load(path(file))
            family = fl.PshFamily(fl.chart_poly_family(S, Kc))
            return fl.classify_trichotomy(family, (1.0,), Kc, threshold=3.0)

        def check(verdict, out, err):
            if verdict.case != case:
                return f"case {verdict.case}, expected {case}"
            far = [z for z in verdict.evidence.get("exceptional_sample", [])
                   if abs(complex(z)) > 0.15]
            return f"exceptional sample away from 0: {far[0]}" if far else None
        return Op("psh.classify_trichotomy", f"classify {file}", call, check)

    def subpencil_radius(P, name, check):
        return Op("pencil.standard_subpencil_radius",
                  f"standard_subpencil_radius {name} mesh=1000",
                  lambda: fl.standard_subpencil_radius(P, W, mesh=1000), check)

    def expect_holo_check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        rep = _report(out)
        discs = _stages(rep)["disc_residuals"]["details"]["discs"]
        return None if discs == 3 * len(U) else f"{discs} discs checked"

    def expect_antiholomorphic(code, out, err):
        # conj(l u1) on |l| = rho has mode -1 of size rho |u1|
        if code != 1:
            return f"exit {code}, expected 1"
        worst = _report(out)["summary"]["worst_residual"]
        ok = abs(worst - worst_conj) <= 1e-9
        return None if ok else f"worst residual {worst:.12g} != {worst_conj:.12g}"

    def expect_subpencil(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        summary = _report(out)["summary"]
        if summary["m"] != 1 or summary["patch_size"] < 1:
            return f"patch {summary['patch_size']} at m={summary['m']}, expected m=1"
        return None

    def expect_normalized(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        summary = _report(out)["summary"]
        if summary["max_abs_G"] > 1e-6 or summary["checks"]["max_abs_k0"] > 1e-8:
            return f"normalization invariants off: {summary}"
        return None

    def radius_in(lo, hi):
        def check(value, out, err):
            return None if lo < value <= hi else f"radius {value} outside ({lo}, {hi}]"
        return check

    ops = [
        mul("sq", "sq", truth.exact_product(sq, sq, 6)),
        Op("slice", "slice of mixed product",
           cli_call(["slice", "--series-file", path("mixed.txt"), "--a",
                     " ".join(f"{re},{im}" for re, im in ray), "--json"]),
           check_slice),
        Op("certify", "certify geometric product r0=0.5",
           cli_call(["certify", "--series-file", path("geometric.txt"),
                     "--r0", 0.5, "--seed", seed, "--json"]),
           check_certificate),
        Op("capacity", "capacity segment",
           cli_call(["capacity", "--set", f"segment {c0 - 1!r} {c0 + 1!r}",
                     "--m", 128, "--json"]), expect_capacity(0.5, 0.02)),
        Op("capacity", "capacity disc",
           cli_call(["capacity", "--set", f"disc {dx!r} {dy!r} 0.7", "--m", 128,
                     "--json"]), expect_capacity(0.7, 0.02)),
        Op("capacity", "capacity Siciak ball",
           cli_call(["capacity", "--siciak-ball", 0.7, "--seed", seed, "--json"]),
           expect_capacity(0.7, 0.05)),
        psh_op(check_psh),
        classify("psh_minus.txt", "MinusInfinity"),
        classify("psh_plus.txt", "PlusInfinity"),
        mul("A", "B", AB),
        subpencil_radius(standard, "standard", radius_in(0.999999, 1.0)),
        Op("pencil-check", "pencil-check twisted exp",
           cli_call(["pencil-check", "--pencil", pencil_file, "--expr", EXP2,
                     "--tol", 1e-8, "--json"]), expect_holo_check),
        Op("pencil-check", "pencil-check twisted conj(z1)",
           cli_call(["pencil-check", "--pencil", pencil_file, "--expr",
                     "conj(z1)", "--json"]), expect_antiholomorphic),
        Op("subpencil", "subpencil twisted exp",
           cli_call(["subpencil", "--pencil", pencil_file, "--expr", EXP2,
                     "--json"]), expect_subpencil),
        Op("normalize", "normalize twisted at (1,0) with H/G",
           cli_call(["normalize", "--pencil", pencil_file, "--v0", "1,0 0,0",
                     "--expr", EXP2, "--json"]), expect_normalized),
        subpencil_radius(twisted, "twisted", radius_in(0.0, 1.0)),
        mul("g1", "g2", truth.exact_product(g1, g2, 16)),
    ]
    # the envelope grid written as CSV must hold numbers
    hard = [psh_op(check_envelope_csv, "--csv-out", csv_file)]
    return Workload("lab_session", ops, 95.0, hard)


WORKLOADS = {"analyze_deep": analyze_deep, "analyze_wide": analyze_wide,
             "lab_session": lab_session}


def max_full_jet_order(cap: int = 64) -> int:
    """Highest even order >= 16 at which exp(z1+z2) gets a correct FullJet
    on the default path, stepping up until the first failure."""
    from harness import run_op
    best = 0
    for order in range(16, cap + 1, 2):
        if not run_op(jet_op(EXP2, 2, order, truth.exp_sum_jet(2, order))).ok:
            break
        best = order
    return best
