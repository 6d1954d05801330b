import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicasai.exactnum import (
    AB,
    INF,
    Lau,
    NotDivisible,
    NotSymmetric,
    PrecisionOverflow,
    QuadCtx,
    QuadElem,
    RatFunc,
    UV,
    _evar_pairs,
    _vint,
    complete_homog,
    fr_mod,
    fr_to_str,
    in_z_inv_p,
    is_odd_prime,
    json_dumps,
    lau_eval_x1,
    smallest_nonresidue,
    sym_expand,
    sym_reduce,
    val_p,
)
from padicasai import whitzeta


@pytest.fixture
def F3():
    return QuadCtx.make(3)


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2


def test_quad_inv_sqrt_r(F3):
    s = F3.sqrt_r()
    assert s.inv() == F3.elem(0, Fraction(1, F3.r))


def test_quad_conjugate_product(F3):
    one = F3.one()
    s = F3.sqrt_r()
    assert (one + s) * (one - s) == F3.elem(1 - F3.r)


def test_quad_inv_roundtrip():
    ctx = QuadCtx(5, 2)
    x = ctx.elem(2, 3)
    assert x * x.inv() == ctx.one()


def test_quad_inv_zero(F3):
    with pytest.raises(ZeroDivisionError):
        F3.zero().inv()


@pytest.mark.parametrize("seed", range(5))
def test_quad_field_axioms(F3, seed):
    rng = random.Random(seed)

    def rand():
        return F3.elem(
            Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9])),
            Fraction(rng.randint(-9, 9), rng.choice([1, 3])),
        )

    x, y, z = rand(), rand(), rand()
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    if x != F3.zero():
        assert x * x.inv() == F3.one()


def test_val_p(F3):
    p = 3
    assert val_p(Fraction(1, p) + 0, p) == -1
    assert val_p(F3.elem(Fraction(1, p), 1), p) == -1
    assert val_p(F3.elem(9 * 3, 9), p) == 2
    assert val_p(F3.zero(), p) == INF
    assert val_p(Fraction(0), p) == INF


@pytest.mark.parametrize("seed", range(8))
def test_val_multiplicative(F3, seed):
    rng = random.Random(100 + seed)

    def rand():
        while True:
            x = F3.elem(
                Fraction(rng.randint(-20, 20), rng.choice([1, 3, 9])),
                Fraction(rng.randint(-20, 20), rng.choice([1, 3])),
            )
            if x != F3.zero():
                return x

    x, y = rand(), rand()
    assert val_p(x * y, 3) == val_p(x, 3) + val_p(y, 3)


def test_in_z_inv_p():
    assert in_z_inv_p(Fraction(7, 27), 3)
    assert not in_z_inv_p(Fraction(1, 6), 3)


# -- Laurent polynomials ------------------------------------------------------


def test_lau_basic_arith():
    X = Lau.var(("X",), "X")
    f = (1 + X) * (1 - X)
    assert f == 1 - X ** 2
    assert (X ** -1 * X) == Lau.const(("X",), 1)


def test_lau_exact_div_and_failure():
    X = Lau.var(("X",), "X")
    f = 1 - X ** 2
    assert f.exact_div(1 - X) == 1 + X
    with pytest.raises(NotDivisible):
        (1 - X ** 3 + X).exact_div(1 - X)


def test_sym_reduce_newton():
    A = Lau.var(AB, "A")
    B = Lau.var(AB, "B")
    got = sym_reduce(A ** 2 + B ** 2)
    e1 = Lau.var(("e1", "e2"), "e1")
    e2 = Lau.var(("e1", "e2"), "e2")
    assert got == e1 ** 2 - 2 * e2


def test_sym_reduce_complete_homog_degree2():
    # oracle: expand (A^3 - B^3) / (A - B) by exact division
    A = Lau.var(AB, "A")
    B = Lau.var(AB, "B")
    s2 = (A ** 3 - B ** 3).exact_div(A - B)
    assert s2 == complete_homog(2, "A", "B", AB)
    got = sym_reduce(s2)
    e1 = Lau.var(("e1", "e2"), "e1")
    e2 = Lau.var(("e1", "e2"), "e2")
    assert got == e1 ** 2 - e2


def test_sym_reduce_not_symmetric():
    A = Lau.var(AB, "A")
    B = Lau.var(AB, "B")
    with pytest.raises(NotSymmetric):
        sym_reduce(A - B)


@pytest.mark.parametrize("seed", range(6))
def test_sym_reduce_roundtrip(seed):
    rng = random.Random(seed)
    A = Lau.var(AB, "A")
    B = Lau.var(AB, "B")
    f = Lau(AB)
    for _ in range(5):
        i, j = rng.randint(-3, 3), rng.randint(-3, 3)
        c = Fraction(rng.randint(-5, 5))
        f = f + Lau.monomial(AB, (i, j), c) + Lau.monomial(AB, (j, i), c)
    got = sym_reduce(f)
    assert sym_expand(got, AB) == f


def test_sym_reduce_laurent_negative():
    # A^-1 + B^-1 = e1 / e2
    f = Lau.monomial(AB, (-1, 0)) + Lau.monomial(AB, (0, -1))
    got = sym_reduce(f)
    assert got == Lau.monomial(("e1", "e2"), (1, -1))


def test_sym_reduce_four_vars_roundtrip():
    vs = ("u1", "v1", "u2", "v2")
    f = complete_homog(2, "u1", "v1", vs) * complete_homog(1, "u2", "v2", vs)
    got = sym_reduce(f)
    assert sym_expand(got, vs) == f


# -- the closed forms against the leading-term and substitution oracles ----------


def subst(poly: Lau, assign) -> Lau:
    """Substitute Laurent polynomials for variables (others unchanged);
    a negative exponent needs the substituted value to be an invertible
    monomial."""
    names = [v for v in poly.vars if v in assign]
    if not names:
        return poly
    target = assign[names[0]].vars
    out = Lau(target)
    for e, c in poly.terms.items():
        term = Lau.const(target, c)
        for v, k in zip(poly.vars, e):
            if k == 0:
                continue
            val = assign[v] if v in assign else Lau.var(target, v)
            term = term * val ** k
        out = out + term
    return out


def _swap_pair(e: tuple, i: int) -> tuple:
    return e[:i] + (e[i + 1], e[i]) + e[i + 2:]


def sym_reduce_by_leading_terms(poly: Lau) -> Lau:
    """sym_reduce by rewriting: subtract c (x+y)^(a-b) (xy)^b for the
    leading term c x^a y^b until nothing is left."""
    vs = poly.vars
    if len(vs) % 2:
        raise ValueError("odd number of variables")
    pair_idx = [(i, i + 1) for i in range(0, len(vs), 2)]
    for ix, iy in pair_idx:
        if {_swap_pair(e, ix): c for e, c in poly.terms.items()} != poly.terms:
            raise NotSymmetric(f"not symmetric under {vs[ix]} <-> {vs[iy]}")
    if len(pair_idx) == 1:
        out_vars = ("e1", "e2")
    else:
        out_vars = tuple(f"e{j}_{i+1}" for i in range(len(pair_idx)) for j in (1, 2))
    if poly.is_zero():
        return Lau(out_vars)
    # clear negative pair exponents with a global power of e2 per pair
    shifts = [min(min(e[ix], e[iy]) for e in poly.terms) for ix, iy in pair_idx]
    shifted = {}
    for e, c in poly.terms.items():
        e2 = list(e)
        for (ix, iy), s in zip(pair_idx, shifts):
            e2[ix] -= s
            e2[iy] -= s
        shifted[tuple(e2)] = c
    work = Lau(vs, shifted)

    def key(e):
        ks = tuple((max(e[ix], e[iy]), min(e[ix], e[iy])) for ix, iy in pair_idx)
        return (ks, e)

    terms: dict[tuple, Fraction] = {}
    while not work.is_zero():
        lead = max(work.terms, key=key)
        c = work.terms[lead]
        sub = Lau.const(vs, c)
        oexp = []
        for (ix, iy), s in zip(pair_idx, shifts):
            a, b = max(lead[ix], lead[iy]), min(lead[ix], lead[iy])
            oexp += [a - b, b + s]
            sub = sub * (Lau.var(vs, vs[ix]) + Lau.var(vs, vs[iy])) ** (a - b)
            sub = sub * (Lau.var(vs, vs[ix]) * Lau.var(vs, vs[iy])) ** b
        oexp = tuple(oexp)
        terms[oexp] = terms.get(oexp, Fraction(0)) + c
        work = work - sub
    return Lau(out_vars, terms)


def sym_expand_by_subst(sym: Lau, pair_vars) -> Lau:
    """sym_expand by substituting e1 -> x+y, e2 -> x*y per pair."""
    epairs = _evar_pairs(sym.vars)
    extra = [v for v in sym.vars if all(v not in pr for pr in epairs)]
    target = tuple(pair_vars) + tuple(extra)
    assign = {}
    for i, (e1n, e2n) in enumerate(epairs):
        x, y = pair_vars[2 * i], pair_vars[2 * i + 1]
        assign[e1n] = Lau.var(target, x) + Lau.var(target, y)
        assign[e2n] = Lau.var(target, x) * Lau.var(target, y)
    for v in extra:
        assign[v] = Lau.var(target, v)
    return subst(sym, assign)


EXPS = st.integers(-3, 4)
COEFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))


@st.composite
def pair_symmetric(draw, pairs=st.sampled_from([AB, UV])):
    """A Laurent polynomial in one or two pairs, symmetric in each pair:
    random monomials summed over their swap orbits."""
    vs = draw(pairs)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        orbit = {tuple(draw(EXPS) for _ in vs)}
        for i in range(0, len(vs), 2):
            orbit |= {_swap_pair(e, i) for e in orbit}
        c = draw(COEFS)
        for e in orbit:
            terms[e] = terms.get(e, 0) + c
    return Lau(vs, terms)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pair_symmetric(), st.lists(st.integers(-2, 3), min_size=40, max_size=40))
def test_sym_closed_forms_match_the_oracles(f, xs):
    vs = f.vars
    got = sym_reduce(f)
    want = sym_reduce_by_leading_terms(f)
    assert got.vars == want.vars and got.terms == want.terms
    assert sym_expand(got, vs) == f
    # an extra variable X is carried through; e1 exponents stay >= 0
    g = Lau(got.vars + ("X",), {e + (x,): c for (e, c), x in zip(got.terms.items(), xs) if min(e[::2]) >= 0})
    got, want = sym_expand(g, vs), sym_expand_by_subst(g, vs)
    assert got.vars == want.vars == vs + ("X",) and got.terms == want.terms


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pair_symmetric(st.just(UV)), st.sampled_from([0, 2]), st.tuples(EXPS, EXPS, EXPS), COEFS.filter(bool))
def test_sym_reduce_names_the_one_asymmetric_pair(f, i, exps, c):
    # c (m + m'), m' the swap of m in the other pair, keeps that pair's
    # symmetry and breaks pair i's when m's exponents differ in pair i
    a, b, o = exps
    m = [o, o, o, o]
    m[i], m[i + 1] = a, (a + 1 if b == a else b)
    m = tuple(m)
    g = f + Lau.monomial(UV, m, c) + Lau.monomial(UV, _swap_pair(m, 2 - i), c)
    for reduce in (sym_reduce, sym_reduce_by_leading_terms):
        with pytest.raises(NotSymmetric, match=f"{UV[i]} <-> {UV[i + 1]}"):
            reduce(g)


@pytest.mark.parametrize("sym,pair_vars", [
    (Lau.monomial(("e1", "e2"), (-1, 0)), AB),
    (Lau.monomial(("e1", "e2", "X"), (-1, 2, 1)), AB),
    (Lau.monomial(("e1_1", "e2_1", "e1_2", "e2_2"), (2, 0, -1, -1)), UV),
])
def test_sym_expand_refuses_a_negative_power_of_e1(sym, pair_vars):
    for expand in (sym_expand, sym_expand_by_subst):
        with pytest.raises(NotDivisible):
            expand(sym, pair_vars)


@pytest.mark.parametrize("k", range(1, 13))
def test_sym_reduce_power_sum_is_warings_formula(k):
    # W_k = x^k + y^k in (e1, e2), against sympy's symmetrization
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    x, y, s1, s2 = sympy.symbols("x y s1 s2")
    sym, rem, _ = symmetrize(x ** k + y ** k, x, y, formal=True, symbols=[s1, s2])
    assert rem == 0
    want = {e: Fraction(int(c)) for e, c in sympy.Poly(sym, s1, s2).as_dict().items()}
    assert sym_reduce(Lau.var(AB, "A", k) + Lau.var(AB, "B", k)).terms == want


# -- rational functions -------------------------------------------------------


def _xab():
    vs = ("A", "B", "X")
    return (Lau.var(vs, "A"), Lau.var(vs, "B"), Lau.var(vs, "X"), vs)


def test_ratfunc_cancellation():
    A, B, X, vs = _xab()
    f = RatFunc((1 - A * X) * (1 + X), [1 - A * X, 1 - B * X])
    assert f.den == [1 - B * X]
    assert f.num == 1 + X


def test_ratfunc_add_mul_eq():
    A, B, X, vs = _xab()
    f = RatFunc(Lau.const(vs, 1), [1 - A * X])
    g = RatFunc(Lau.const(vs, 1), [1 - B * X])
    h = f + g
    assert h == RatFunc(2 - (A + B) * X, [1 - A * X, 1 - B * X])
    assert f * g == RatFunc(Lau.const(vs, 1), [1 - A * X, 1 - B * X])


def test_ratfunc_exact_div_full_cancel():
    A, B, X, vs = _xab()
    L = [1 - A * X, 1 - B * X]
    f = RatFunc(Lau.const(vs, 1), L)
    g = (1 - A * X) * (1 - B * X)
    assert (f * g).as_laurent() == Lau.const(vs, 1)


def test_ratfunc_exact_div_partial():
    X = Lau.var(("X",), "X")
    f = RatFunc(1 + X, [1 - X])
    assert (f * (1 - X)).as_laurent() == 1 + X


def test_ratfunc_exact_div_laurent_quotient():
    # (1 - X^2)/(1 - X) is the Laurent polynomial 1 + X, so division succeeds
    X = Lau.var(("X",), "X")
    f = RatFunc(Lau.const(("X",), 1), [1 - X])
    assert (f * (1 - X ** 2)).as_laurent() == 1 + X


def test_ratfunc_exact_div_not_divisible():
    X = Lau.var(("X",), "X")
    f = RatFunc(Lau.const(("X",), 1), [1 - X, 1 - 2 * X])
    with pytest.raises(NotDivisible):
        (f * (1 - X)).as_laurent()


def test_eval_x1():
    A, B, X, vs = _xab()
    h = (1 - A * X) * (1 - B * X)
    got = lau_eval_x1(h, "X")
    A2 = Lau.var(("A", "B"), "A")
    B2 = Lau.var(("A", "B"), "B")
    assert got == (1 - A2) * (1 - B2)


def test_ratfunc_sum_order_independent():
    A, B, X, vs = _xab()
    terms = [
        RatFunc(Lau.const(vs, 1), [1 - A * X]),
        RatFunc(A + B, [1 - B * X]),
        RatFunc(Lau.const(vs, Fraction(2, 3)), [1 - A * B * X ** 2]),
        RatFunc.from_lau(X ** -1),
    ]
    acc1 = RatFunc(Lau(vs))
    for t in terms:
        acc1 = acc1 + t
    acc2 = RatFunc(Lau(vs))
    for t in reversed(terms):
        acc2 = acc2 + t
    assert acc1 == acc2
    assert acc1.num == acc2.num and acc1.denominator == acc2.denominator


def test_json_roundtrip():
    ctx = QuadCtx.make(5)
    x = ctx.elem(Fraction(3, 5), Fraction(-1, 2))
    assert QuadElem.from_json(x.to_json(), ctx) == x
    # a matrix row or a string where an element belongs: a ValueError
    for bad in ([x.to_json(), x.to_json()], "3", None):
        with pytest.raises(ValueError, match="object"):
            QuadElem.from_json(bad, ctx)


def test_is_odd_prime_by_trial_division():
    assert [n for n in range(-5, 40) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    # the quadratic context refuses odd composites, which have non-residues
    for n in (9, 15, 25):
        with pytest.raises(ValueError):
            QuadCtx(n, 2)


def test_fr_mod_reduces_p_integral_fractions():
    assert fr_mod(Fraction(1, 2), 3, 1) == 2
    assert fr_mod(Fraction(-7, 4), 5, 2) == (-7 * pow(4, -1, 25)) % 25
    assert fr_mod(Fraction(27), 3, 2) == 0
    with pytest.raises(ValueError):
        fr_mod(Fraction(1, 3), 3, 1)


# -- the integer QuadElem against its Fraction-pair predecessor ------------------


def frac_val(x: Fraction, p: int):
    """v_p of a Fraction by repeated division, as val_p computed it."""
    if x == 0:
        return INF
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class FracQuadElem:
    """QuadElem as it was: a + b*sqrt(r) with two Fraction coordinates."""

    __slots__ = ("a", "b", "ctx")

    def __init__(self, a, b, ctx):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.ctx = ctx

    def _coerce(self, other):
        if isinstance(other, FracQuadElem):
            return other
        return FracQuadElem(Fraction(other), 0, self.ctx)

    def __add__(self, other):
        o = self._coerce(other)
        return FracQuadElem(self.a + o.a, self.b + o.b, self.ctx)

    def __sub__(self, other):
        o = self._coerce(other)
        return FracQuadElem(self.a - o.a, self.b - o.b, self.ctx)

    def __neg__(self):
        return FracQuadElem(-self.a, -self.b, self.ctx)

    def __mul__(self, other):
        o = self._coerce(other)
        return FracQuadElem(self.a * o.a + self.ctx.r * self.b * o.b, self.a * o.b + self.b * o.a, self.ctx)

    def inv(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q_p(sqrt r)")
        return FracQuadElem(self.a / n, -self.b / n, self.ctx)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def conj(self):
        return FracQuadElem(self.a, -self.b, self.ctx)

    def norm(self):
        return self.a * self.a - self.ctx.r * self.b * self.b

    def val(self):
        return min(frac_val(self.a, self.ctx.p), frac_val(self.b, self.ctx.p))

    def is_integral(self):
        v = self.val()
        return v == INF or v >= 0

    def is_unit(self):
        return self.val() == 0

    def is_rational(self):
        return self.b == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.a == other and self.b == 0
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"({fr_to_str(self.a)}+{fr_to_str(self.b)}*sqrt{self.ctx.r})"

    def to_json(self):
        return {"a": fr_to_str(self.a), "b": fr_to_str(self.b), "r": self.ctx.r}


CTXS = [QuadCtx.make(3), QuadCtx.make(5), QuadCtx.make(7)]


@st.composite
def quad_pairs(draw):
    """A context at p = 3, 5 or 7 and three coordinate pairs whose
    denominators mix powers of p with other primes."""
    ctx = draw(st.sampled_from(CTXS))
    coord = st.builds(
        lambda n, e, u: Fraction(n, ctx.p ** e * u),
        st.integers(-30, 30),
        st.integers(-2, 2).map(lambda e: max(e, 0)),
        st.sampled_from([1, 1, 2, 4]),
    )
    scale = st.integers(-2, 2).map(lambda e: Fraction(ctx.p) ** e)
    coords = [(draw(coord) * s, draw(coord) * s) for s in (draw(scale) for _ in range(3))]
    return ctx, coords


def same(q, f):
    """q (QuadElem) and f (FracQuadElem) hold the same value, in canonical form."""
    assert q.d > 0 and math.gcd(q.x, q.y, q.d) == 1
    assert (q.a, q.b) == (f.a, f.b)
    assert repr(q) == repr(f) and q.to_json() == f.to_json()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(quad_pairs())
def test_quad_elem_matches_fraction_oracle(case):
    ctx, coords = case
    (x, fx), (y, fy), (z, fz) = [(QuadElem(a, b, ctx), FracQuadElem(a, b, ctx)) for a, b in coords]
    same(x, fx)
    for q, f in ((x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (-x, -fx), (x.conj(), fx.conj())):
        same(q, f)
    for c in (2, Fraction(-3, ctx.p)):
        same(x + c, fx + c)
        same(c + x, fx + c)
        same(x * c, fx * c)
        same(c * x, fx * c)
        same(c - x, FracQuadElem(c, 0, ctx) - fx)
        assert (x == c) == (fx == c)
    assert x.norm() == fx.norm()
    assert x.val() == fx.val() == val_p(x, ctx.p)
    assert (x.is_integral(), x.is_unit(), x.is_rational()) == (fx.is_integral(), fx.is_unit(), fx.is_rational())
    assert (x == y) == (fx == fy)
    if fy.norm() != 0:
        same(y.inv(), fy.inv())
        same(x / y, fx / fy)
        assert y * y.inv() == ctx.one()
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()
    # ring axioms
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ctx.zero() == x and x * ctx.one() == x and x - x == ctx.zero()


def test_quad_elem_form_is_canonical(F3):
    half = [
        QuadElem(Fraction(2, 4), 0, F3),
        F3.elem(1, 0) / 2,
        F3.elem(Fraction(1, 6)) * 3,
        (F3.one() + F3.sqrt_r()) * (F3.one() - F3.sqrt_r()) / (2 * (1 - F3.r)),
        QuadElem.from_json({"a": "1/2", "b": "0"}, F3),
    ]
    assert {(h.x, h.y, h.d) for h in half} == {(1, 0, 2)}
    assert len({hash(h) for h in half}) == 1 and all(h == Fraction(1, 2) for h in half)
    assert (F3.zero().x, F3.zero().y, F3.zero().d) == (0, 0, 1)
    assert ((F3.sqrt_r() * 3 - 3) / 9).d == 3


def ratfunc_cross_eq(f, g):
    """RatFunc.__eq__ as it was: cross-multiply by the expanded denominators."""
    return (f.num * g.denominator) == (g.num * f.denominator)


@st.composite
def ratfunc_pairs(draw):
    """Two RatFuncs over (A, B, X) with factors from a small pool: the same
    value built with its factors in another order and times a cancelling
    factor, another numerator over the same factors, or an unrelated value."""
    A, B, X, vs = _xab()
    pool = [1 - A * X, 1 - B * X, 1 - A * B * X ** 2, 1 + X, 1 - 2 * X]
    monos = [Lau.const(vs, 1), A, B, X, A * X, B * X ** 2]
    lau = st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(monos)), min_size=1, max_size=4).map(
        lambda cs: sum((c * m for c, m in cs), Lau(vs))
    )
    num, dens = draw(lau), draw(st.lists(st.sampled_from(pool), max_size=3))
    kind = draw(st.sampled_from(["same", "shared", "other"]))
    if kind == "same":
        extra = draw(st.sampled_from(pool))
        return kind, RatFunc(num, dens), RatFunc(num * extra, draw(st.permutations(dens + [extra])))
    if kind == "shared":
        return kind, RatFunc(num, dens), RatFunc(num + draw(lau), draw(st.permutations(dens)))
    return kind, RatFunc(num, dens), RatFunc(draw(lau), draw(st.lists(st.sampled_from(pool), max_size=3)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ratfunc_pairs())
def test_ratfunc_eq_matches_cross_multiplication(case):
    kind, f, g = case
    assert (f == g) == (g == f) == ratfunc_cross_eq(f, g)
    if kind == "same":
        assert f == g
    if kind == "shared" and f.den == g.den:
        # the shortcut answers from the numerators alone
        assert (f == g) == (f.num == g.num)


# -- the integer Lau against its Fraction-coefficient predecessor ----------------


class FracLau:
    """Lau as it was: a dict of nonzero Fraction coefficients, with the
    leading-term division on Fractions."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                e = tuple(int(k) for k in e)
                self.terms[e] = self.terms.get(e, Fraction(0)) + c
                if not self.terms[e]:
                    del self.terms[e]

    @classmethod
    def monomial(cls, variables, exps, c=1):
        return cls(variables, {tuple(exps): Fraction(c)})

    def _chk(self, other):
        if isinstance(other, FracLau):
            assert other.vars == self.vars
            return other
        return FracLau.monomial(self.vars, (0,) * len(self.vars), other)

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in self._chk(other).terms.items():
            c2 = t.get(e, Fraction(0)) + c
            if c2:
                t[e] = c2
            elif e in t:
                del t[e]
        return FracLau(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return FracLau(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._chk(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracLau(self.vars, {e: c * other for e, c in self.terms.items()})
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._chk(other).terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = t.get(e, Fraction(0)) + c1 * c2
                if c:
                    t[e] = c
                elif e in t:
                    del t[e]
        return FracLau(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.terms) != 1:
                raise NotDivisible("negative power of a non-monomial")
            ((e, c),) = self.terms.items()
            return FracLau.monomial(self.vars, tuple(n * k for k in e), Fraction(1) / c ** (-n))
        out = FracLau.monomial(self.vars, (0,) * len(self.vars))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.vars == other.vars and self.terms == other.terms

    def shift_to_poly(self):
        if not self.terms:
            return self, (0,) * len(self.vars)
        mins = tuple(min(e[i] for e in self.terms) for i in range(len(self.vars)))
        return FracLau(self.vars, {tuple(a - b for a, b in zip(e, mins)): c for e, c in self.terms.items()}), mins

    def exact_div(self, other):
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return FracLau(self.vars)
        (r, sa), (b, sb) = self.shift_to_poly(), other.shift_to_poly()
        q = FracLau(self.vars)
        lb = max(b.terms)
        while r.terms:
            lr = max(r.terms)
            diff = tuple(x - y for x, y in zip(lr, lb))
            if any(d < 0 for d in diff):
                raise NotDivisible(f"leading term {lr} not divisible by {lb}")
            mono = FracLau.monomial(self.vars, diff, r.terms[lr] / b.terms[lb])
            q = q + mono
            r = r - mono * b
        return q * FracLau.monomial(self.vars, tuple(x - y for x, y in zip(sa, sb)))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mon = "*".join(f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k != 0)
            bits.append(fr_to_str(c) + ("*" + mon if mon else ""))
        return " + ".join(bits)

    def to_json(self):
        return {"vars": list(self.vars), "terms": {",".join(map(str, e)): fr_to_str(c) for e, c in sorted(self.terms.items())}}


def canonical(f: Lau) -> Lau:
    """f, after checking its integer form: den > 0, gcd(den, *nums) == 1 and
    no zero numerator (zero is {} over 1)."""
    nums, den = f.int_terms()
    assert den > 0 and math.gcd(den, *nums.values()) == 1 and all(nums.values())
    return f


def terms_below(f: Lau, name: str, k: int) -> Lau:
    """The terms of f of degree < k in the variable name."""
    i = f.vars.index(name)
    return Lau(f.vars, {e: c for e, c in f.terms.items() if e[i] < k})


def same_lau(f: Lau, g: FracLau):
    """f (Lau) and g (FracLau) hold the same polynomial; f is canonical."""
    canonical(f)
    assert f.vars == g.vars and dict(f.terms) == g.terms
    assert repr(f) == repr(g) and f.to_json() == g.to_json()


LAU_VARS = [("X",), ("A", "B", "X")]
LAU_COEFS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4, 6, 9]))


@st.composite
def lau_terms(draw, vs, max_terms=5):
    """Coefficient dicts over vs: small exponents, so that sums and products
    cancel terms, and negative or zero coefficients."""
    return {tuple(draw(st.integers(-2, 2)) for _ in vs): draw(LAU_COEFS) for _ in range(draw(st.integers(0, max_terms)))}


@st.composite
def lau_triples(draw):
    vs = draw(st.sampled_from(LAU_VARS))
    return vs, [draw(lau_terms(vs)) for _ in range(3)]


def to_sympy(f: Lau):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f.vars)
    return sympy.expand(sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x ** k for x, k in zip(xs, e))) for e, c in f.terms.items()), sympy.Integer(0)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(lau_triples(), st.sampled_from([0, 1, -2, Fraction(-3, 4), Fraction(5, 6)]))
def test_lau_ring_matches_fraction_oracle_and_sympy(case, c):
    vs, (tf, tg, th) = case
    (f, F), (g, G), (h, H) = [(Lau(vs, t), FracLau(vs, t)) for t in (tf, tg, th)]
    same_lau(f, F)
    for got, want in ((f + g, F + G), (f - g, F - G), (f * g, F * G), (-f, -F), (f * c, F * c), (c * f, F * c),
                      (f + c, F + c), (f - f, F - F), (f ** 2, F ** 2), (f ** 0, F ** 0)):
        same_lau(got, want)
    # the ring axioms, on canonical forms
    assert f + g == g + f and f * g == g * f
    assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + 0 == f and f * 1 == f and (f - f).int_terms() == ({}, 1) and (f * 0).is_zero()
    assert hash(f * g) == hash(g * f) and hash(f + g) == hash(g + f)
    # sympy as an independent oracle
    sf, sg = to_sympy(f), to_sympy(g)
    assert to_sympy(f * g) == (sf * sg).expand() and to_sympy(f + g) == (sf + sg).expand()
    # a Lau built from its own Fraction view is equal, and from ints over
    # any nonzero denominator, of either sign
    assert Lau(vs, f.terms) == f
    nums, den = f.int_terms()
    assert canonical(Lau.from_ints(vs, {e: -3 * n for e, n in nums.items()}, -3 * den)) == f
    if len(f.terms) == 1:
        same_lau(f ** -1, F ** -1)
        same_lau(f ** -3, F ** -3)
        assert f ** -3 * f ** 3 == 1


@settings(derandomize=True, max_examples=120, deadline=None)
@given(lau_triples())
def test_lau_exact_div_undoes_mul(case):
    vs, (tf, tg, th) = case
    (f, F), (g, G) = [(Lau(vs, t), FracLau(vs, t)) for t in (tf, tg)]
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.exact_div(g)
        return
    q = canonical((f * g).exact_div(g))
    assert q == f
    same_lau(q, (F * G).exact_div(G))
    assert to_sympy(q * g) == (to_sympy(f) * to_sympy(g)).expand()
    # a non-monomial divides no monomial (the units are the monomials), so
    # f g + m is no multiple of g, for the Fraction oracle either
    if len(g.terms) > 1:
        m = Lau.monomial(vs, next(iter(th), (0,) * len(vs)), 1)
        for a, b in ((f * g + m, g), (F * G + FracLau(vs, m.terms), G)):
            with pytest.raises(NotDivisible):
                a.exact_div(b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lau_triples(), st.integers(-2, 2))
def test_lau_structure_maps_are_canonical(case, k):
    vs, (tf, tg, _) = case
    f, g = Lau(vs, tf), Lau(vs, tg)
    F = FracLau(vs, tf)
    s, mins = f.shift_to_poly()
    same_lau(s, F.shift_to_poly()[0])
    assert mins == F.shift_to_poly()[1]
    big = ("W",) + vs
    assert canonical(f.extend_vars(big)) == Lau(big, {(0,) + e: c for e, c in f.terms.items()})
    assert canonical(f.coeff_of("X", k)) == Lau(vs[:-1], {e[:-1]: c for e, c in f.terms.items() if e[-1] == k})
    assert canonical(lau_eval_x1(f, "X")) == Lau(vs[:-1], {}) + sum((f.coeff_of("X", j) for j in range(-2, 3)), Lau(vs[:-1]))
    # the product's terms below X^k agree with the Fraction oracle's
    want = FracLau(vs, {e: c for e, c in (F * FracLau(vs, tg)).terms.items() if e[-1] < k})
    same_lau(terms_below(f * g, "X", k), want)


@st.composite
def sym_coordinates(draw):
    """A Laurent polynomial in (e1, e2) or in two such pairs, with e1
    exponents >= 0: the image of sym_reduce."""
    vs = draw(st.sampled_from([("e1", "e2"), ("e1_1", "e2_1", "e1_2", "e2_2")]))
    terms = draw(lau_terms(vs, 4))
    return Lau(vs, {tuple(abs(x) if v.startswith("e1") else x for v, x in zip(vs, e)): c for e, c in terms.items()})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sym_coordinates())
def test_sym_reduce_undoes_sym_expand(s):
    pair_vars = AB if s.vars == ("e1", "e2") else UV
    f = canonical(sym_expand(s, pair_vars))
    assert canonical(sym_reduce(f)) == s
    assert f == sym_expand_by_subst(s, pair_vars)


def frac_cancel(num: FracLau, den):
    """RatFunc._cancel on the Fraction oracle: try each factor in the order
    of its sorted exponents and keep those that do not divide."""
    out = []
    for f in sorted(den, key=lambda g: sorted(g.terms)):
        try:
            num = num.exact_div(FracLau(f.vars, f.terms))
        except NotDivisible:
            out.append(f)
    return num, out


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_ratfunc_cancellation_matches_the_oracles(data):
    sympy = pytest.importorskip("sympy")
    A, B, X, vs = _xab()
    pool = [1 - A * X, 1 - B * X, 1 - A * B * X ** 2 * Fraction(1, 3), 1 + 2 * X, 1 - X]
    f = Lau(vs, data.draw(lau_terms(vs)))
    num = f * math.prod(data.draw(st.lists(st.sampled_from(pool), max_size=3)), start=Lau.const(vs, 1))
    den = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    r = RatFunc(num, den)
    canonical(r.num)
    want_num, want_den = frac_cancel(FracLau(vs, num.terms), den) if not num.is_zero() else (FracLau(vs), [])
    same_lau(r.num, want_num)
    assert r.den == want_den
    # no factor left divides the numerator, and the value is unchanged
    for g in r.den:
        with pytest.raises(NotDivisible):
            r.num.exact_div(g)
    lhs = to_sympy(num) / sympy.Mul(*(to_sympy(g) for g in den))
    rhs = to_sympy(r.num) / sympy.Mul(*(to_sympy(g) for g in r.den))
    assert sympy.cancel(lhs - rhs) == 0


# ---------------------------------------------------------------------------
# the JSON writer, against json.dumps(indent=2, sort_keys=True) as the oracle


def oracle_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII and astral (surrogate
# pair) characters, besides arbitrary text
_json_strs = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')) | st.text()
_json_ints = st.integers() | st.integers(-(10 ** 400), 10 ** 400)
_json_trees = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_strs,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_json_strs, kids, max_size=4)
        # int keys sort as numbers: 9 before 10, -10 before -9
        | st.dictionaries(st.integers(-12, 12) | _json_ints, kids, max_size=4)
    ),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_json_trees)
def test_json_dumps_matches_json_dumps(tree):
    assert json_dumps(tree) == oracle_dumps(tree)


def test_json_dumps_edge_cases():
    tree = {
        "\u00e9\"\\\x01": [(), {}, [], (1, [-(10 ** 300)])],
        "empty": {},
        "ints": {9: "9", 10: "10", -10: None, 10 ** 200: True, 0: False},
        "tuple": ("\U0001f600", 0, -1),
    }
    assert json_dumps(tree) == oracle_dumps(tree)
    assert '"9": "9",\n    "10": "10"' in json_dumps(tree)
    for atom in (None, True, False, 0, "", [], {}, ()):
        assert json_dumps(atom) == oracle_dumps(atom)


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), {1}, {0.5: 1}, [1, {"a": 0.5}], {True: 1}])
def test_json_dumps_refuses_what_it_does_not_print(bad):
    with pytest.raises(TypeError):
        json_dumps(bad)


def test_integers_past_the_digit_limit_are_a_precision_overflow():
    big = 10 ** 5000
    with pytest.raises(PrecisionOverflow, match="digits"):
        json_dumps({"n": [big]})
    with pytest.raises(PrecisionOverflow, match="digits"):
        json_dumps({big: 1})
    with pytest.raises(PrecisionOverflow, match="digits"):
        fr_to_str(Fraction(1, big))


def vint_by_single_divisions(n, p):
    """_vint as it was: one division by p per unit of valuation."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(derandomize=True, max_examples=120, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), v=st.integers(0, 10 ** 4), unit=st.integers(-10 ** 40, 10 ** 40))
@example(p=3, v=10 ** 4, unit=1)
@example(p=7, v=10 ** 4, unit=-2)
def test_vint_matches_single_divisions(p, v, unit):
    # small valuations keep the division by p; from v = 8 on the powers p^(2^k)
    unit = unit * p + 1 if unit % p == 0 else unit
    n = unit * p ** v
    assert _vint(n, p) == vint_by_single_divisions(n, p) == v
    for w in range(20):  # every step of the switch to the powers
        assert _vint(unit * p ** w, p) == w


def in_z_inv_p_by_single_divisions(x, p):
    """in_z_inv_p as it was: one division of the denominator by p per unit."""
    d = Fraction(x).denominator
    while d % p == 0:
        d //= p
    return d == 1


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]), v=st.integers(0, 10 ** 4),
    cofactor=st.sampled_from([1, 1, 2, 4, 11, 2 * 13 ** 5]), num=st.integers(-10 ** 20, 10 ** 20).filter(bool),
)
@example(p=3, v=10 ** 4, cofactor=1, num=1)
@example(p=7, v=10 ** 4, cofactor=2, num=-5)
def test_in_z_inv_p_matches_single_divisions(p, v, cofactor, num):
    x = Fraction(num, cofactor * p ** v)
    want = in_z_inv_p_by_single_divisions(x, p)
    assert in_z_inv_p(x, p) == want == (Fraction(num, cofactor).denominator == 1)


def test_in_z_inv_p_reads_a_large_valuation():
    # 50,000 divisions by 3 in the old loop; a few dozen in _vint's descent
    assert in_z_inv_p(Fraction(1, 3 ** 50000), 3)
    assert not in_z_inv_p(Fraction(1, 2 * 3 ** 50000), 3)
    assert in_z_inv_p(Fraction(2 * 3 ** 50000, 7 ** 3), 7)


def pow_by_repeated_products(f: Lau, n: int) -> Lau:
    """f ** n for n >= 0 as 1 * f * .. * f, one Lau product per factor."""
    out = Lau.const(f.vars, 1)
    for _ in range(n):
        out = out * f
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from(LAU_VARS).flatmap(lambda vs: st.tuples(st.just(vs), lau_terms(vs, max_terms=3))),
    st.integers(0, 6),
)
@example(case=(("X",), {}), n=0)
@example(case=(("X",), {}), n=3)
@example(case=(("A", "B", "X"), {(1, -2, 1): Fraction(-2, 3)}), n=5)
def test_lau_pow_matches_repeated_products(case, n):
    f = Lau(*case)
    got = f ** n
    canonical(got)
    assert got.vars == f.vars and got == pow_by_repeated_products(f, n)


def test_powers_build_no_product_they_do_not_need(monkeypatch):
    # a monomial's power is closed form; other bases start from the base and
    # do not square after the last bit
    omx2 = whitzeta._shintani(whitzeta.VS_INERT, 3).omx2
    binom = 1 + Lau.var(("X",), "X")
    want = {m: pow_by_repeated_products(omx2, m) for m in range(1, 5)}
    want_binom = {n: pow_by_repeated_products(binom, n) for n in range(7)}
    calls = []
    mul = Lau.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Lau, "__mul__", counted)
    for m in range(1, 5):
        calls.clear()
        assert omx2 ** m == want[m]
        assert not calls, m
    for n, products in enumerate((0, 0, 1, 2, 2, 3, 3)):
        calls.clear()
        assert binom ** n == want_binom[n]
        assert len(calls) == products, n
