"""Tour of the exact arithmetic layer.

The whole engine runs on Fractions: the quadratic extension Q_p(sqrt r),
sparse Laurent polynomials, symmetric coordinates, and rational functions
with factored denominators.  The one float is INF = float("inf"), the
valuation of 0.
"""

from fractions import Fraction

from padicasai import (
    Lau,
    QuadCtx,
    RatFunc,
    complete_homog,
    sym_expand,
    sym_reduce,
    val_p,
)

# F = Q_3(sqrt 2): 2 is the smallest non-residue mod 3 and sqrt 2 has trace 0
ctx = QuadCtx.make(3)
print("context:", ctx)

x = ctx.elem(2, 3)  # 2 + 3 sqrt(2)
print("x =", x, " x^-1 =", x.inv(), " x * x^-1 =", x * x.inv())
print("v_3(1/3 + sqrt 2) =", val_p(ctx.elem(Fraction(1, 3), 1), 3))

# symmetric reduction: A^2 + A B + B^2 in the coordinates e1 = A+B, e2 = AB
AB = ("A", "B")
s2 = complete_homog(2, "A", "B", AB)
print("\ndegree-2 complete homogeneous sum:", s2)
red = sym_reduce(s2)
print("in symmetric coordinates:", red)
print("round trip:", sym_expand(red, AB) == s2)

# rational functions: geometric series denominators stay factored, and the
# s -> 0 limit is an exact division followed by evaluation at X = 1
vs = ("A", "B", "X")
A, B, X = (Lau.var(vs, v) for v in vs)
L_inv = (1 - A * X) * (1 - B * X) * (1 - A * B * X ** 2)
f = RatFunc(Lau.const(vs, 1), [1 - A * X, 1 - B * X, 1 - A * B * X ** 2])
print("\nf =", f)
print("f * L^-1 =", (f * L_inv).as_laurent())
