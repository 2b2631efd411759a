"""The plurisubharmonic family u_k = (1/k) log |P_k| at work.

Torus averages of u_k satisfy a scale-free Lipschitz bound, and the
limsup of the averages at 0 obeys a strict trichotomy: -inf (the family
collapses), +inf (it blows up off a polar set), or finite (locally
uniformly bounded above).  The upper envelope u and its regularization
u* disagree only on a set of vanishing capacity; the grid estimate makes
that set visible and measurable.
"""

import numpy as np

from forelli_lab import (CompactSet1D, average_on_torus, cap1d_transfinite,
                         classify_trichotomy, lipschitz_check, upper_envelope)
from forelli_lab.psh import PshFamily
from forelli_lab.slices import ChartPoly

K = 120


def monomials(coef):
    polys = [ChartPoly.from_dict(1, {(0,): 1.0})]
    polys += [ChartPoly.from_dict(1, {(k,): coef(k)}) for k in range(1, K + 1)]
    return PshFamily.from_polys(polys)


collapsing = monomials(lambda k: float(k) ** -k)    # z^k / k^k
exploding = monomials(lambda k: float(k) ** k)      # k^k z^k
balanced = monomials(lambda k: 1.0)                 # z^k

# --- averages: the classical mean of log|z| -------------------------------------
avg = average_on_torus(balanced, 40, 0j, (0.7,))
print("mean of log|z| over |z| = 0.7: %.6f (log 0.7 = %.6f)"
      % (avg.value, np.log(0.7)))

# --- the Lipschitz estimate -----------------------------------------------------
chk = lipschitz_check(balanced, 40, 0j, 0.1 + 0j, (1.0,), (1.2,), r0=0.9)
print("Lipschitz bound: |lhs| = %.4f < %.4f = rhs (+slack): %s"
      % (chk.lhs, chk.rhs, chk.passed))

# --- the trichotomy -------------------------------------------------------------
# the +-50 default threshold targets families with genuinely exponential
# averages; these three grow/decay like +-log k, so pass a separating value
for name, fam in (("z^k/k^k", collapsing), ("k^k z^k", exploding),
                  ("z^k", balanced)):
    v = classify_trichotomy(fam, (1.0,), K, threshold=3.0)
    print("%-9s alpha_r = %8.4f  -> %s" % (name, v.alpha_r, v.case))

# --- envelopes and the exceptional set ------------------------------------------
field = upper_envelope(exploding, ((-1, 1), (-1, 1)), num=101)
print("\nk^k z^k: %d exceptional grid nodes, all within |z| <= %.3f"
      % (len(field.exceptional),
         max((abs(z) for z in field.exceptional), default=0.0)))
if field.exceptional:
    est = cap1d_transfinite(CompactSet1D.sample_cloud(field.exceptional), 8)
    print("capacity estimate of the exceptional sample: %.4f" % est.value)
