"""Matrix decompositions with witnesses.

Every structural claim is returned with group elements that multiply back
to the input: the Iwasawa decomposition over F, the mirabolic coset labels
P(Q_p) t_a n_b K, and the generalized Cartan labels: three invariants pin
the label; one lattice test gives its witnesses (no precision cap, no
search heuristics).
"""

from fractions import Fraction

from padicasai import Mat2, QuadCtx, gen_cartan_label, iwasawa_F, pgk_label
from padicasai.padicgrp import cartan_cell, pgk_canonical

ctx = QuadCtx.make(3)

g = Mat2([1, 0, ctx.elem(Fraction(1, 9)), 1], ctx)
parts = iwasawa_F(g)
print("g =", g)
print("u =", parts.u, " f1 =", parts.f1, " f2 =", parts.f2)
print("reassembled equals g:", parts.reassemble(ctx) == g)

# the mirabolic labels: a is the bottom-row content, b reads the sqrt(r)
# part of the cleared top-right entry
h = pgk_canonical(3, 2, ctx)
w = pgk_label(h)
print("\nlabel of t_3 n_2:", w.label)
mixed = Mat2([2, ctx.sqrt_r(), 0, 1], ctx) * h
print("after a mirabolic translation:", pgk_label(mixed).label)

# generalized Cartan cells: three invariants pin the label; one lattice test
# gives its witnesses, a unit-determinant point of an exact lattice
c = cartan_cell(0, 2, 1, ctx)
k = Mat2([1, 1, 1, 2], ctx)
kappa = Mat2([ctx.elem(1), ctx.sqrt_r(), ctx.zero(), ctx.one()], ctx)
gg = k * c * kappa
lab = gen_cartan_label(gg)
print("\nCartan label:", lab.label)
print("witness product equals input:", lab.left * cartan_cell(*lab.label, ctx) * lab.right == gg)
