"""The local zeta integrals, symbolically.

The unramified computation pins the measure normalization: the integral of
the spherical data equals the local L-factor exactly, as a rational
function of X = p^(-s) with Laurent-polynomial coefficients in the Satake
parameters.  The normalized period divides by the L-factor and evaluates
at X = 1 (the s -> 0 limit), landing in the symmetric coordinates.
"""

from padicasai import Mat2, QuadCtx, SchwartzFn, psi_secondary, zeta_asai, zeta_rs_split
from padicasai.whitzeta import epsilon_report

p = 3
ctx = QuadCtx.make(p)
phi = SchwartzFn.char_zp2(p)
one = Mat2.identity(ctx)

res = zeta_asai(phi, one, ctx)
print("Z(ch(Z_p^2), W, s) =", res.ratfunc)

print("\nnormalized period on the unramified vector:", res.normalized())

# a translated vector: the value changes, the normalized period is computed
# the same way and the result is still a polynomial in the parameters
n = Mat2.n_b(1, ctx)
print("normalized on the n_1-translate:", zeta_asai(phi, n, ctx).normalized())

# the split (Rankin-Selberg) analogue
res2 = zeta_rs_split(phi, (one, one), ctx)
print("\nsplit unramified integral =", res2.ratfunc)

# the secondary integral and the coefficient extraction: the -p/(p-1)
# coefficient is found at index b - 1 and the report records the offset
print("\nPsi(n_2 W, s) =", psi_secondary(0, 2, ctx).ratfunc)
rep = epsilon_report(3, ctx)
print("extracted coefficients:", rep["extracted"])
print("index discrepancies vs the stated table:", rep["index_discrepancies"])
