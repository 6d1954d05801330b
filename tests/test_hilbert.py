from fractions import Fraction

import pytest

from padicasai.exactnum import INF, QuadCtx
from padicasai.hilbert import (
    CoefElem,
    EigenformData,
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
from padicasai.padicgrp import Mat2
from padicasai.whitzeta import SchwartzFn


@pytest.fixture
def form():
    return load_fixture("synthetic_w2")


@pytest.fixture
def form_quad():
    return load_fixture("synthetic_w2_quad")


# -- coefficient field -------------------------------------------------------------


def test_coef_arithmetic():
    x = CoefElem(Fraction(1, 2), Fraction(1, 2), 5)
    assert x.is_algebraic_integer()
    y = x * x - x
    assert y == CoefElem(1, 0, 5)  # golden ratio relation x^2 = x + 1
    assert (x * x.inv()) == CoefElem(1, 0, 5)


def test_coef_not_integer():
    assert not CoefElem(Fraction(1, 2), 0, 5).is_algebraic_integer()
    assert not CoefElem(Fraction(1, 2), Fraction(1, 3), 5).is_algebraic_integer()


@pytest.mark.parametrize(
    "x,ell,expect",
    [
        (CoefElem(9, 0, None), 3, 2),
        (CoefElem(Fraction(1, 3), 0, None), 3, -1),
        (CoefElem(0, 1, 5), 3, 0),  # 3 inert in Q(sqrt 5): min val
        (CoefElem(3, 9, 5), 3, 1),
        (CoefElem(0, 1, 5), 5, 1),  # ramified: v(sqrt 5) = 1, v(5) = 2
        (CoefElem(5, 1, 5), 5, 1),
    ],
)
def test_ell_valuations(x, ell, expect):
    assert ell_adic_valuation(x, ell) == expect


def test_ell_valuation_split():
    # 11 splits in Q(sqrt 5) (5 is a QR mod 11: 4^2 = 16 = 5)
    x = CoefElem(4, -1, 5)  # 4 - sqrt(5): one place gives 4 - 4 = 0 mod 11
    v1 = ell_adic_valuation(x, 11)
    v2 = ell_adic_valuation(x.conj(), 11)  # x at the conjugate place
    assert sorted([v1, v2]) == [0, 1]
    assert ell_adic_valuation(x * x.conj(), 11) == 1  # norm = 11


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


def test_ingest_quadratic_ok(form_quad):
    assert form_quad.d == 5


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
    assert sat.values["e1"] == CoefElem(Fraction(2, 3), 0, None)
    assert sat.values["e2"] == CoefElem(1, 0, None)


def test_satake_split_structure(form):
    sat = satake_from_eigen(form, 7)
    assert sat.kind == "split"
    assert set(sat.values) == {"e1_1", "e2_1", "e1_2", "e2_2"}
    # e2_i = p * p^(w-2) eps_i-part: for w = 2, e2_i = p * omega_i
    assert sat.values["e2_1"] == CoefElem(7, 0, None)
    assert sat.values["e2_2"] == CoefElem(-7, 0, None)


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
        {"p": 3, "phi": SchwartzFn.char_zp2(3), "g": Mat2.identity(ctx), "level": "K"}
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
        {"p": p, "phi": phi, "g": one, "level": "K[p]"},
        {"p": p, "phi": phi.scale(-1), "g": n, "level": "K[p]"},
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
