"""Slice polynomials, root-test radii, and polydisc convergence certificates.

A holomorphic-type series restricted to the ray t -> t(1, b) has t^k
coefficient P_k(b), a polynomial of degree <= k in the chart variable b.
The root test on |P_k(b)| estimates the convergence radius along each
direction, and a Cauchy-estimate argument on sup |P_k| turns the family
into an explicit polydisc of convergence with polyradius
(1/(2M), r0/(2M), ..., r0/(2M)).
"""

import numpy as np

from forelli_lab import (FormalSeries, certify_polydisc, chart_poly_family,
                         radius_root_test, slice_series)

# truncation of 1/((1-z1)(1-z2)): all coefficients equal 1
N = 20
S = FormalSeries(2, N, {((i, j), (0, 0)): 1.0
                        for i in range(N + 1) for j in range(N + 1 - i)})

# --- slicing ------------------------------------------------------------------
sl = slice_series(S, (1.0, 0.5))
print("slice along (1, 0.5), first t-coefficients:",
      np.round(sl.t_coefficients()[:5].real, 6))

# --- the chart family and directional radii ----------------------------------
family = chart_poly_family(S, N)
print("\nP_3(b) at b=2:", family.polys[3](2.0), "(= 1 + 2 + 4 + 8)")

# at K = N = 20 the finite-sample radius estimate is crude; the direct
# formula P_k(b) = sum_{j<=k} b^j lets us push K to 200
for b in (0.5, 2.0, 4.0):
    vals = [abs(sum(b ** j for j in range(k + 1))) for k in range(201)]
    rt = radius_root_test(vals)
    print("radius along (1, %-3g): estimate %.4f   (truth %.4f)"
          % (b, rt.radius, min(1.0, 1.0 / b)))

# --- the certificate ----------------------------------------------------------
cert = certify_polydisc(S, r0=0.5, K=N)
print("\ncertificate: M = %.4f, polyradius r' = (%.4f, %.4f)"
      % (cert.M, *cert.r_prime))

# the certificate is verified on the data before being returned; check the
# claim independently at a few points of the shrunken polydisc
rng = np.random.default_rng(1)
rad = 0.9 * np.array(cert.r_prime) * np.sqrt(rng.random((5, 2)))
pts = rad * np.exp(2j * np.pi * rng.random((5, 2)))
truth = 1.0 / ((1 - pts[:, 0]) * (1 - pts[:, 1]))
approx = S.evaluate((pts[:, 0], pts[:, 1]))
print("max |f - S| at five points of 0.9 r':",
      float(np.abs(truth - approx).max()))
