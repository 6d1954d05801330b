import random
from fractions import Fraction

import pytest

from padicasai.exactnum import QuadCtx, QuadElem
from padicasai.heckealg import HeckeElem, euler_poly, gstar_gen, iota_embed
from padicasai.heckemod import (
    TestVector,
    delta1,
    random_integral_vector,
    trace_level,
    vector_is_integral,
)
from padicasai.gstar import (
    GradedFactor,
    cyclotomic_factor_candidate,
    frob_grade,
    gstar_factor,
    ip_embed,
)
from padicasai.padicgrp import Mat2, coset_reps
from padicasai.whitzeta import SchwartzFn


@pytest.fixture
def F3():
    return QuadCtx.make(3)


def test_ip_embed_generator(F3):
    phi = SchwartzFn.char_zp2(3)
    one = Mat2.identity(F3)
    star = TestVector(F3, "inert", "K", [(phi, (one,), Fraction(1))], star=True)
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


# -- the desk-scale Cartan check for G*, through determinant-one witnesses ------


def sl2_diag_factor(g: Mat2) -> tuple[Mat2, int, int, Mat2]:
    """g = k1 * diag(p^a, p^b) * k2 with k1, k2 integral of determinant 1.

    Requires det(g) = p^(a+b) exactly (unit part 1).  Used to verify that
    double-coset representatives admit determinant-one witnesses.
    """
    ctx = g.ctx
    p = ctx.p
    dv = g.det_val()
    if g.det() != ctx.elem(Fraction(p) ** dv):
        raise ValueError("determinant is not an exact power of p")
    left = Mat2.identity(ctx)
    right = Mat2.identity(ctx)
    w = Mat2([0, 1, -1, 0], ctx)  # det 1 rotation swap
    m = g
    # pivot: bring a minimal-valuation entry to position (1,1)
    vals = [x.val() for x in m.e]
    imin = vals.index(min(vals))
    if imin in (2, 3):
        m = w * m
        left = left * w.inv()
    vals = [m.e[0].val(), m.e[1].val()]
    if vals[1] < vals[0]:
        m = m * w
        right = w.inv() * right
    # clear (1,2) and (2,1)
    a = m.e[0]
    u = Mat2.upper(-(m.e[1] / a), ctx)
    m = m * u
    right = u.inv() * right
    lo = Mat2.lower(-(m.e[2] / a), ctx)
    m = lo * m
    left = left * lo.inv()
    if m.e[1] != ctx.zero() or m.e[2] != ctx.zero():
        raise AssertionError("sl2_diag_factor: elimination left an off-diagonal entry")
    d1, d2 = m.e[0], m.e[3]
    a1, a2 = d1.val(), d2.val()
    # fold units: diag(d1, d2) = diag(u1, u1^-1) diag(p^a1, p^a2), u1 u2 = 1
    u1 = d1 / ctx.elem(Fraction(p) ** a1)
    fold = Mat2.diag(u1, u1.inv(), ctx)
    left = left * fold
    # u1^-1 d2 = p^a2 since the unit parts multiply to det(g)/p^(a1+a2) = 1
    if a1 < a2:
        # diag(p^a1, p^a2) = w^-1 diag(p^a2, p^a1) w
        left = left * w.inv()
        right = w * right
        a1, a2 = a2, a1
    k1, k2 = left, right
    if k1.det() != ctx.one() or k2.det() != ctx.one():
        raise AssertionError("sl2_diag_factor: a K factor has determinant other than 1")
    if not (k1.in_KF() and k2.in_KF()):
        raise AssertionError("sl2_diag_factor: a K factor is not in GL2(O_F)")
    if k1 * Mat2.t(a1, a2, ctx) * k2 != g:
        raise AssertionError("sl2_diag_factor witnesses do not reassemble g")
    return k1, a1, a2, k2


def gstar_cartan_check(ctx: QuadCtx, case: str, samples: int, rng) -> bool:
    """Sampled verification that G* elements land in exactly one K*-double
    coset of the stated diagonal shape (equal determinant valuations in the
    split case)."""
    p = ctx.p
    for _ in range(samples):
        if case == "inert":
            # SL2(O_F) sits inside K*, so determinant-one witnesses realize
            # the K*-double coset; the label is pinned by the two exact
            # invariants (minimal entry valuation and v_p det)
            n1 = rng.randint(-1, 2)
            n2 = rng.randint(-1, n1)
            g = _rand_sl2_quad(ctx, rng) * Mat2.t(n1, n2, ctx) * _rand_sl2_quad(ctx, rng)
            if not g.det().is_rational():
                return False
            mv = g.min_val()
            label = (g.det_val() - mv, mv)
            if label != (n1, n2):
                return False
            k1, a1, a2, k2 = sl2_diag_factor(g)
            if (a1, a2) != (n1, n2):
                return False
            if not (k1.det().is_rational() and k2.det().is_rational()):
                return False
        else:
            # equal determinant valuation in the two components; determinant
            # one witnesses make the pair a genuine K*-product
            n1 = rng.randint(0, 2)
            n2 = rng.randint(-1, n1)
            tot = n1 + n2
            m1 = rng.randint(max(n2, tot - 2), n1 + 1)
            m2 = tot - m1
            if m2 > m1:
                m1, m2 = m2, m1
            g1 = _rand_sl2_base(ctx, rng) * Mat2.t(n1, n2, ctx) * _rand_sl2_base(ctx, rng)
            g2 = _rand_sl2_base(ctx, rng) * Mat2.t(m1, m2, ctx) * _rand_sl2_base(ctx, rng)
            if g1.det() != g2.det():
                return False
            k1a, a1, a2, k1b = sl2_diag_factor(g1)
            k2a, b1, b2, k2b = sl2_diag_factor(g2)
            if (a1, a2) != (n1, n2) or (b1, b2) != (m1, m2) or a1 + a2 != b1 + b2:
                return False
    return True


def _rand_sl2_base(ctx: QuadCtx, rng) -> Mat2:
    p = ctx.p
    x, y, z = (rng.randrange(p ** 2) for _ in range(3))
    return Mat2.upper(x, ctx) * Mat2.lower(y, ctx) * Mat2.upper(z, ctx)


def _rand_sl2_quad(ctx: QuadCtx, rng) -> Mat2:
    p = ctx.p

    def qe():
        return QuadElem(rng.randrange(p ** 2), rng.randrange(p ** 2), ctx)

    return Mat2.upper(qe(), ctx) * Mat2.lower(qe(), ctx) * Mat2.upper(qe(), ctx)


@pytest.mark.parametrize("lam", [1, 2])
def test_double_to_single_det_one_witnesses(F3, lam):
    # every representative is k1 t(lam, 0) k2 with det(k1) = det(k2) = 1
    for m in coset_reps(lam, F3, True):
        k1, a1, a2, k2 = sl2_diag_factor(m)
        assert (a1, a2) == (lam, 0)
        assert k1.det() == F3.one() and k2.det() == F3.one()


@pytest.mark.parametrize("case", ["inert", "split"])
def test_gstar_cartan_check(F3, case):
    rng = random.Random(11)
    assert gstar_cartan_check(F3, case, 8, rng)
