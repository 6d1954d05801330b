import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padicasai.exactnum import INF, QuadCtx, fr_mod, val_p
from padicasai.hilbert import (
    CoefElem,
    CoefField,
    SchemaError,
    asai_artin_value,
    asai_shift_identity_check,
    ell_adic_valuation,
    ingest,
    load_fixture,
    period_ideal_check,
    rep_side_asai_inverse,
    satake_from_eigen,
    tate_identity_check,
)
from padicasai.heckealg import EulerPoly, euler_poly
from padicasai.padicgrp import Mat2
from padicasai.whitzeta import SchwartzFn


QQ, Q5 = CoefField(0), CoefField(5)


@pytest.fixture
def form():
    return load_fixture("synthetic_w2")


@pytest.fixture
def form_quad():
    return load_fixture("synthetic_w2_quad")


# -- coefficient field -------------------------------------------------------------


def test_coef_arithmetic():
    x = CoefElem(Fraction(1, 2), Fraction(1, 2), Q5)
    assert x.is_algebraic_integer()
    y = x * x - x
    assert y == CoefElem(1, 0, Q5)  # golden ratio relation x^2 = x + 1
    assert (x * x.inv()) == CoefElem(1, 0, Q5)


def test_coef_not_integer():
    assert not CoefElem(Fraction(1, 2), 0, Q5).is_algebraic_integer()
    assert not CoefElem(Fraction(1, 2), Fraction(1, 3), Q5).is_algebraic_integer()


@pytest.mark.parametrize(
    "x,ell,expect",
    [
        (CoefElem(9, 0, QQ), 3, 2),
        (CoefElem(Fraction(1, 3), 0, QQ), 3, -1),
        (CoefElem(0, 1, Q5), 3, 0),  # 3 inert in Q(sqrt 5): min val
        (CoefElem(3, 9, Q5), 3, 1),
        (CoefElem(0, 1, Q5), 5, 1),  # ramified: v(sqrt 5) = 1, v(5) = 2
        (CoefElem(5, 1, Q5), 5, 1),
        (CoefElem(10, 0, Q5), 5, 2),  # a rational at a ramified l: v(5) = 2
    ],
)
def test_ell_valuations(x, ell, expect):
    assert ell_adic_valuation(x, ell) == expect


def test_val_p_refuses_a_coefficient():
    # min(v(a), v(b)) is no valuation at a split or ramified l
    with pytest.raises(TypeError, match="hilbert.ell_adic_valuation"):
        val_p(CoefElem(5, 1, Q5), 5)


def test_ell_valuation_split():
    # 11 splits in Q(sqrt 5) (5 is a QR mod 11: 4^2 = 16 = 5)
    x = CoefElem(4, -1, Q5)  # 4 - sqrt(5): one place gives 4 - 4 = 0 mod 11
    v1 = ell_adic_valuation(x, 11)
    v2 = ell_adic_valuation(x.conj(), 11)  # x at the conjugate place
    assert sorted([v1, v2]) == [0, 1]
    assert ell_adic_valuation(x * x.conj(), 11) == 1  # norm = 11


class FracCoefElem:
    """CoefElem as it was: a + b sqrt(d) with two Fraction coordinates, d
    None for Q."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=None):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d
        if d is None and self.b:
            raise ValueError("rational field has no sqrt part")

    def _coerce(self, other):
        if isinstance(other, FracCoefElem):
            return other
        return FracCoefElem(Fraction(other), 0, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return FracCoefElem(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return FracCoefElem(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        return FracCoefElem(self.a * o.a + (self.d or 0) * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    def inv(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return FracCoefElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def conj(self):
        return FracCoefElem(self.a, -self.b, self.d)

    def norm(self):
        return self.a * self.a - (self.d or 0) * self.b * self.b

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_algebraic_integer(self):
        if self.d is None or self.b == 0:
            return self.a.denominator == 1
        return (2 * self.a).denominator == 1 and self.norm().denominator == 1

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __repr__(self):
        if self.d is None or self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}*sqrt{self.d})"

    def to_json(self):
        if self.d is None or self.b == 0:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b)}


def _frac_sqrt_mod_lk(d, ell, k):
    r = next(t for t in range(ell) if (t * t - d) % ell == 0)
    modulus = ell
    while modulus < ell ** k:
        modulus *= ell
        r = (r - (r * r - d) * pow(2 * r % modulus, -1, modulus)) % modulus
    return r % ell ** k


def frac_valuation(x, ell):
    """The valuation on Fraction coordinates, scaled by l^m to be l-integral,
    with v(l) = 2 for rationals at a ramified l as for every other element."""
    if x.is_zero():
        return INF
    d = x.d
    if d is None or x.b == 0:
        return val_p(x.a, ell) * (2 if d is not None and d % ell == 0 else 1)
    va, vb = val_p(x.a, ell), val_p(x.b, ell)
    if d % ell == 0:
        return min(2 * va, 2 * vb + 1)
    if pow(d % ell, (ell - 1) // 2, ell) != 1:
        return min(va, vb)
    m = max(0, -min(v for v in (va, vb) if v != INF))
    a, b = x.a * Fraction(ell) ** m, x.b * Fraction(ell) ** m
    K = val_p(a * a - d * b * b, ell) + 2
    return val_p(Fraction(fr_mod(a + b * _frac_sqrt_mod_lk(d, ell, K), ell, K)), ell) - m


R_VALUES = [0, 5, 13, -3, 6]
ELLS = [3, 5, 7, 11, 13]


def coef(ell):
    """A Fraction n/u * l^e: powers of l mixed with other primes."""
    return st.builds(
        lambda n, u, e: Fraction(n, u) * Fraction(ell) ** e,
        st.integers(-40, 40),
        st.sampled_from([1, 1, 2, 3, 4]),
        st.integers(-2, 2),
    )


@st.composite
def coef_triples(draw):
    r, ell = draw(st.sampled_from(R_VALUES)), draw(st.sampled_from(ELLS))
    c = coef(ell)
    pairs = [(draw(c), draw(c) if r else Fraction(0)) for _ in range(3)]
    return r, ell, pairs


def same_coef(q, f):
    assert type(q) is CoefElem and (q.a, q.b) == (f.a, f.b)
    assert repr(q) == repr(f) and q.to_json() == f.to_json()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coef_triples())
def test_coef_elem_matches_fraction_oracle(case):
    r, ell, pairs = case
    F = CoefField(r)
    (x, fx), (y, fy), (z, _) = [(CoefElem(a, b, F), FracCoefElem(a, b, r or None)) for a, b in pairs]
    for q, f in ((x, fx), (x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (x.conj(), fx.conj())):
        same_coef(q, f)
        assert q.norm() == f.norm()
        assert q.is_algebraic_integer() == f.is_algebraic_integer()
        assert ell_adic_valuation(q, ell) == frac_valuation(f, ell)
    for c in (3, Fraction(-2, ell)):
        same_coef(x + c, fx + c)
        same_coef(c * x, fx * c)
        assert (x == c) == (fx == c)
    assert (x == y) == (fx == fy)
    if fy.norm() != 0:
        same_coef(y.inv(), fy.inv())
        same_coef(x / y, fx / fy)
        # the same value reached by another route compares and hashes equal
        assert x * y / y == x and hash(x * y / y) == hash(x)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()
    assert hash(x + z - z) == hash(x)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coef_triples())
@example((5, 5, [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))]))
def test_ell_valuation_is_multiplicative(case):
    # split, inert and ramified l all occur among (r, l); v(sqrt 5 sqrt 5) = v(5) = 2
    r, ell, pairs = case
    x, y, _ = [CoefElem(a, b, CoefField(r)) for a, b in pairs]
    assert ell_adic_valuation(x * y, ell) == ell_adic_valuation(x, ell) + ell_adic_valuation(y, ell)


def test_coef_from_json_rejects_sqrt_over_q():
    assert CoefElem.from_json({"a": "1/2", "b": "0"}, QQ) == Fraction(1, 2)
    with pytest.raises(ValueError, match="rational field has no sqrt part"):
        CoefElem.from_json({"a": "1", "b": "1"}, QQ)


# -- ingest -----------------------------------------------------------------------


def test_ingest_accepts_fixture(form):
    assert form.w == 2
    assert set(form.primes) == {3, 7, 11, 13}


def test_ingest_rejects_parity():
    doc = {
        "schema": 1,
        "weights": {"k": [3, 2], "t": [0, 0]},
        "coefficient_field": {"d": None},
        "primes": {},
    }
    with pytest.raises(SchemaError):
        ingest(doc)


def test_ingest_squarefree_check_is_fast():
    # trial division stops at isqrt(|d|): about 10^6 steps here, not 10^12
    doc = {"schema": 1, "weights": {"k": [2, 2], "t": [0, 0]}, "primes": {}}
    start = time.perf_counter()
    assert ingest({**doc, "coefficient_field": {"d": 999983 * 1000003}}).field == CoefField(999983 * 1000003)
    with pytest.raises(SchemaError):
        ingest({**doc, "coefficient_field": {"d": 2 * 999983 ** 2}})
    assert time.perf_counter() - start < 10


def test_ingest_quadratic_ok(form_quad):
    assert form_quad.field == Q5


def test_satake_rejects_non_integral():
    doc = {
        "schema": 1,
        "weights": {"k": [2, 2], "t": [0, 0]},
        "coefficient_field": {"d": None},
        "primes": {"3": {"type": "inert", "lambda": ["1/2"], "omega": ["1"]}},
    }
    data = ingest(doc)
    with pytest.raises(ValueError):
        satake_from_eigen(data, 3)


# -- Satake data -------------------------------------------------------------------


def test_satake_inert_w2(form):
    sat = satake_from_eigen(form, 3)
    assert sat.kind == "inert"
    # e1 = lambda / p, e2 = q^(w-2) eps = omega for w = 2
    assert sat.values["e1"] == CoefElem(Fraction(2, 3), 0, QQ)
    assert sat.values["e2"] == CoefElem(1, 0, QQ)


def test_satake_split_structure(form):
    sat = satake_from_eigen(form, 7)
    assert sat.kind == "split"
    assert set(sat.values) == {"e1_1", "e2_1", "e1_2", "e2_2"}
    # e2_i = p * p^(w-2) eps_i-part: for w = 2, e2_i = p * omega_i
    assert sat.values["e2_1"] == CoefElem(7, 0, QQ)
    assert sat.values["e2_2"] == CoefElem(-7, 0, QQ)


# -- L-factor identities --------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_tate_identity(form, p):
    assert tate_identity_check(form, p)


@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_asai_shift_identity(form, p):
    assert asai_shift_identity_check(form, p)


@pytest.mark.parametrize("p", [3, 7, 11, 13])
def test_asai_shift_identity_quad(form_quad, p):
    assert asai_shift_identity_check(form_quad, p)


def test_rep_side_builds_each_euler_polynomial_once(form, monkeypatch):
    # criterion 9 evaluates L^-1 six times per prime; euler_poly builds P once
    # per (kind, p) and the shared polynomial builds Theta(P)(X) once
    built = []
    build = EulerPoly._satake_in_x
    monkeypatch.setattr(EulerPoly, "_satake_in_x", lambda self, p: built.append(p) or build(self, p))
    euler_poly.cache_clear()
    for p in (3, 7, 3, 7):
        assert asai_shift_identity_check(form, p)
    assert euler_poly.cache_info().misses == 2
    assert built == [3, 7]


def test_artin_value_at_ideal_point(form):
    # the ideal generator L_p^As(f, 1 - (t1+t2))^-1 is the rep-side value at X = 1
    for p in (3, 7):
        assert asai_artin_value(form, p, 1) == rep_side_asai_inverse(form, p, Fraction(1))


# -- the period ideal check -------------------------------------------------------------


def test_period_check_all_unramified(form):
    rep = period_ideal_check(form, [], [], ell=5)
    assert rep["member"]
    assert rep["value"] == "1"


def test_period_check_unramified_inputs_value_one(form):
    ctx = QuadCtx.make(3)
    inputs = [
        {"p": 3, "phi": SchwartzFn.char_zp2(3), "g": (Mat2.identity(ctx),), "level": "K"}
    ]
    rep = period_ideal_check(form, inputs, [], ell=5)
    assert rep["value"] == "1" and rep["member"]


def test_period_check_rejects_bad_ell(form):
    with pytest.raises(ValueError):
        period_ideal_check(form, [], [], ell=2)


def test_period_check_s0_membership(form):
    # p = 11 = 1 mod 5: determinant-level data with phi(0,0) = 0
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
    assert rep["member"]
    prep = rep["primes"][0]
    assert prep["in_S0"] and not prep["tate_applied"]
    assert prep["v(p-1)"] >= 1
    # the requirement is nontrivial for this fixture, and the value meets it
    assert rep["required_exponent"] == 1
    assert rep["v(value)"] == 1


def test_period_check_s0_inert_prime(form_quad):
    # 11 is inert in the quadratic fixture; S_0 data of canonical shape
    p, ell = 11, 5
    ctx = QuadCtx.make(p)
    phi = SchwartzFn.phi_p2(p)
    one = Mat2.identity(ctx)
    from fractions import Fraction as Fr
    from padicasai.exactnum import QuadElem

    n = Mat2.upper(QuadElem(0, Fr(1, p), ctx), ctx)
    inputs = [
        {"p": p, "phi": phi, "g": (one,), "level": "K[p]"},
        {"p": p, "phi": phi.scale(-1), "g": (n,), "level": "K[p]"},
    ]
    rep = period_ideal_check(form_quad, inputs, [p], ell=ell)
    assert rep["member"]
    assert rep["primes"][0]["kind"] == "inert"
    assert not rep["primes"][0]["tate_applied"]


def test_period_check_rejects_nonintegral(form):
    p = 11
    ctx = QuadCtx.make(p)
    inputs = [
        {"p": p, "phi": SchwartzFn.char_zp2(p), "g": (Mat2.identity(ctx), Mat2.identity(ctx)), "level": "K[p]"}
    ]
    with pytest.raises(ValueError):
        period_ideal_check(form, inputs, [p], ell=5)
