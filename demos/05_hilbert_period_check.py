"""The l-adic period ideal check on eigenform data.

The shipped fixtures are synthetic (consistent fabricated eigenvalue data;
no modularity claim).  Specializing the symbolic local periods at the
Satake data derived from the eigenvalues, the product over the requested
primes is tested against the product ideal <p - 1, L^As-inverse> read at a
place above l of the coefficient field.
"""

from fractions import Fraction

from padicasai import Mat2, QuadCtx, SchwartzFn, load_fixture, period_ideal_check, satake_from_eigen
from padicasai.hilbert import asai_artin_value, tate_identity_check

form = load_fixture("synthetic_w2")
print("fixture:", form.label, " weight w =", form.w)

for p in (3, 7):
    sat = satake_from_eigen(form, p)
    print(f"p = {p} ({sat.kind}):", {k: str(v) for k, v in sat.values.items()})
    print("  Tate identity:", tate_identity_check(form, p))
    print("  ideal generator L^As(f, 1)^-1 =", asai_artin_value(form, p, 1))

# all-unramified input: every local period is 1 and membership is trivial
rep = period_ideal_check(form, [], [], ell=5)
print("\nall-unramified value:", rep["value"], " member:", rep["member"])

# determinant-level data at p = 11 (11 = 1 mod 5): the canonical-vector
# shape, which contributes exactly the involuted Euler factor value
p, ell = 11, 5
ctx = QuadCtx.make(p)
phi = SchwartzFn.phi_p2(p)
one = Mat2.identity(ctx)
n = Mat2.upper(Fraction(1, p), ctx)
inputs = [
    {"p": p, "phi": phi, "g": (one, one), "level": "K[p]"},
    {"p": p, "phi": phi.scale(-1), "g": (one, n), "level": "K[p]"},
]
rep = period_ideal_check(form, inputs, [p], ell=ell)
print(f"\nS_0 = [{p}], l = {ell}:")
for pr in rep["primes"]:
    print("  prime report:", pr)
print("value:", rep["value"], " v(value) =", rep["v(value)"], ">= required", rep["required_exponent"], "->", rep["member"])
