import random
from fractions import Fraction

import pytest

from padicasai.exactnum import QuadCtx
from padicasai.heckealg import HeckeElem, euler_poly, gstar_gen, involution, iota_embed
from padicasai.heckemod import (
    TestVector,
    delta1,
    integrality_check,
    random_integral_vector,
    trace_level,
    vector_is_integral,
)
from padicasai.gstar import (
    GradedFactor,
    cyclotomic_factor_candidate,
    frob_grade,
    gstar_cartan_check,
    gstar_factor,
    ip_embed,
)
from padicasai.padicgrp import Mat2
from padicasai.whitzeta import SchwartzFn


@pytest.fixture
def F3():
    return QuadCtx.make(3)


def test_ip_embed_generator(F3):
    phi = SchwartzFn.char_zp2(3)
    one = Mat2.identity(F3)
    star = TestVector(F3, "inert", "K", [(phi, one, Fraction(1))], star=True)
    big = ip_embed(star)
    assert not big.star and big.terms == star.terms


def test_ip_embed_delta1(F3):
    rep = delta1(F3, "inert")
    vec = rep["vector"]
    big = ip_embed(vec)
    assert big.level == "K[p]" and not big.star


@pytest.mark.parametrize("seed", range(5))
def test_ip_preserves_integrality(F3, seed):
    rng = random.Random(seed)
    star = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True, star=True)
    big = ip_embed(star)
    assert vector_is_integral(star) and vector_is_integral(big)


def test_ip_intertwines_trace(F3):
    rng = random.Random(3)
    star = random_integral_vector(F3, rng, "K[p]", origin_vanishing=False, star=True)
    a = ip_embed(trace_level(star))
    b = trace_level(ip_embed(star))
    assert a.level == b.level == "K" and a.terms == b.terms and a.star == b.star


def test_gstar_factor_delta1_inert(F3):
    rep = delta1(F3, "inert")
    out = gstar_factor(rep["vector"])
    target = euler_poly("asai_star_inert", 3).involute_at_one()
    assert out.p_star == target
    assert out.cert.verified


def test_gstar_factor_delta1_split(F3):
    rep = delta1(F3, "split")
    out = gstar_factor(rep["vector"])
    target = euler_poly("asai_star_split", 3).involute_at_one()
    assert out.p_star == target
    assert out.cert.verified
    assert iota_embed(out.p_star) == euler_poly("rs_split", 3).involute_at_one()


@pytest.mark.parametrize("seed", range(4))
def test_gstar_factor_random_inert(F3, seed):
    rng = random.Random(400 + seed)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True, star=True)
    out = gstar_factor(vec)
    assert out.cert.verified
    assert iota_embed(out.p_star) == out.p_big


@pytest.mark.parametrize("seed", range(3))
def test_gstar_factor_random_split(F3, seed):
    rng = random.Random(500 + seed)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True, case="split", star=True)
    out = gstar_factor(vec)
    assert out.cert.verified
    assert out.p_star.group == "gstar_split"


def test_frob_grade_generators(F3):
    p = 3
    Ss = gstar_gen("Sstar", "gstar_inert", p)
    graded = frob_grade(Ss)
    assert graded.terms[0][1] == 2
    Ts = gstar_gen("Tstar", "gstar_inert", p)
    assert frob_grade(Ts).terms[0][1] == 1
    one = HeckeElem.one("gstar_inert")
    assert frob_grade(one).terms[0][1] == 0


def test_frob_grade_multiplicative_on_monomials(F3):
    h1 = HeckeElem.monomial("gstar_inert", (2, 1), 1)
    h2 = HeckeElem.monomial("gstar_inert", (1, -1), 1)
    g1 = frob_grade(h1).terms[0][1]
    g2 = frob_grade(h2).terms[0][1]
    g12 = frob_grade(h1 * h2).terms[0][1]
    assert g12 == g1 + g2


def euler_factor_at_frob_inverse(ep) -> GradedFactor:
    """P'(Frob^-1): the X^k coefficient of the involuted polynomial graded
    by Frob^(-k); the norm-relation shape of the local factor."""
    terms = []
    for k, c in enumerate(ep.involute().coeffs):
        for e, coef in sorted(c.poly.terms.items()):
            terms.append((HeckeElem.monomial(ep.group, e, coef), -k))
    return GradedFactor(ep.group, terms)


@pytest.mark.parametrize("kind", ["asai_star_inert", "asai_star_split"])
def test_frob_grade_reproduces_frob_inverse_form(kind):
    # grading the involuted factor at X = 1 gives the Frob^-1 evaluation
    p = 3
    ep = euler_poly(kind, p)
    assert frob_grade(ep.involute_at_one()) == euler_factor_at_frob_inverse(ep)


def test_cyclotomic_candidate_report(F3):
    rep = delta1(F3, "inert")
    out = gstar_factor(rep["vector"])
    cand = cyclotomic_factor_candidate(out)
    assert cand["ideal_certificate"]["verified"]
    assert "interpretation" in cand


@pytest.mark.parametrize("case", ["inert", "split"])
def test_gstar_cartan_check(F3, case):
    rng = random.Random(11)
    assert gstar_cartan_check(F3, case, 8, rng)
