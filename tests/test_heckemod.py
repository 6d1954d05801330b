import random
from fractions import Fraction

import pytest

from padicasai.exactnum import Lau, QuadCtx, QuadElem
from padicasai.heckealg import (
    EulerPoly,
    HeckeElem,
    euler_poly,
    involution,
    iota_solve,
    satake,
)
from padicasai import heckemod
from padicasai.heckemod import (
    TestVector,
    _act_on_mirabolic,
    certify_ideal,
    chain_identity_rhs,
    delta1,
    generator_vector,
    hecke_apply,
    integrality_check,
    lambda_of_chain,
    local_factor,
    mirabolic_volume,
    normalized_period,
    phi_c_weight,
    random_integral_vector,
    trace_level,
    vector_is_integral,
    xi_phi_chain,
)
from padicasai.padicgrp import Mat2, coset_reps, pgk_label
from padicasai.whitzeta import SchwartzFn


@pytest.fixture
def F3():
    return QuadCtx.make(3)


# -- integrality ------------------------------------------------------------------


def test_integrality_unramified_K(F3):
    vinv, ok = integrality_check(SchwartzFn.char_zp2(3), Mat2.identity(F3), "K", F3)
    assert vinv == 1 and ok


def test_integrality_unramified_Kp(F3):
    # vol(G(Z_p) cap det-level)^-1 = p - 1 and ch(Z_p^2) is not integral there
    vinv, ok = integrality_check(SchwartzFn.char_zp2(3), Mat2.identity(F3), "K[p]", F3)
    assert vinv == 3 - 1
    assert not ok


def test_integrality_scaled(F3):
    phi = SchwartzFn.char_zp2(3).scale(2)
    vinv, ok = integrality_check(phi, Mat2.identity(F3), "K[p]", F3)
    assert ok


# -- trace and Hecke action ----------------------------------------------------------


def test_trace_relabels(F3):
    phi = SchwartzFn.char_zp2(3)
    vec = TestVector(F3, "inert", "K[p]", [(phi, Mat2.identity(F3), Fraction(1))])
    traced = trace_level(vec)
    assert traced.level == "K"
    assert traced.terms == vec.terms


def test_trace_tiles_full_level(F3):
    # union over K/K[p] of K[p] gamma^-1 is K, each element covered once
    from padicasai.padicgrp import coset_reps

    reps = coset_reps("K_over_Kp", F3)
    # count how many translates contain a sample of K-elements
    rng = random.Random(1)
    for _ in range(20):
        while True:
            k = Mat2([rng.randrange(9) for _ in range(4)], F3)
            if k.in_K_base():
                break
        hits = sum(1 for gam in reps if (k * gam).det_is_one_mod_p())
        assert hits == 1


def test_local_factor_generator(F3):
    assert local_factor(generator_vector(F3)) == HeckeElem.one("inert_F")


def test_local_factor_central_translate(F3):
    # ch(Z_p^2) (x) ch(t(1,1) K) is S^-1 . generator
    phi = SchwartzFn.char_zp2(3)
    vec = TestVector(F3, "inert", "K", [(phi, Mat2.t(1, 1, F3), Fraction(1))])
    assert local_factor(vec) == HeckeElem.gen("inert_F", "S", -1)


def test_freeness_witness_thirty_monomials(F3):
    # local_factor(h . generator) = h for 30 random monomials h
    rng = random.Random(31)
    for _ in range(30):
        a = rng.randint(0, 2)
        b = rng.randint(-2, 2)
        c = Fraction(rng.randint(1, 5), 3 ** rng.randint(0, 1))
        h = HeckeElem.monomial("inert_F", (a, b), c)
        vec = hecke_apply(h, generator_vector(F3))
        assert local_factor(vec) == h


@pytest.mark.parametrize("seed", range(4))
def test_freeness_witness_split(F3, seed):
    rng = random.Random(seed)
    e = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1), rng.randint(-1, 1))
    h = HeckeElem.monomial("split_pair", e, Fraction(rng.randint(1, 4)))
    vec = hecke_apply(h, generator_vector(F3, case="split"))
    assert local_factor(vec) == h


def test_contract_checks_raise_value_error(F3):
    with pytest.raises(ValueError, match="do not add"):
        generator_vector(F3, "inert") + generator_vector(F3, "split")
    with pytest.raises(ValueError, match="constant term 1"):
        EulerPoly("inert_F", [HeckeElem.zero("inert_F")])


def test_hecke_apply_sum(F3):
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    h = T + S * Fraction(2, 3)
    vec = hecke_apply(h, generator_vector(F3))
    assert local_factor(vec) == h


# -- mirabolic chain -------------------------------------------------------------------


def test_phi_c_weights(F3):
    p = 3
    assert phi_c_weight(0, 0, F3) == 1
    assert phi_c_weight(2, 0, F3) == 1
    for b in (1, 2, 3):
        assert phi_c_weight(0, b, F3) == (p - 1) * p ** (b - 1)
        assert phi_c_weight(-1, b, F3) == (p - 1) * p ** (b - 1)


def test_mirabolic_volume_full(F3):
    assert mirabolic_volume(Mat2.identity(F3)) == 1


def test_xi_chain_generator(F3):
    chain = xi_phi_chain(generator_vector(F3))
    assert chain.xi_coeffs == {(0, 0): Fraction(1)}
    assert chain.collapsed == {(0, 0): Fraction(1)}


def test_xi_chain_central(F3):
    # S . generator sits at the (a, b) = (-1, 0) cell
    vec = hecke_apply(HeckeElem.gen("inert_F", "S"), generator_vector(F3))
    chain = xi_phi_chain(vec)
    assert chain.xi_coeffs == {(-1, 0): Fraction(1)}


@pytest.mark.parametrize("seed", range(6))
def test_chain_identity(F3, seed):
    # Lambda(Phi_c(Xi_c(delta))) = Theta(P_delta'(1 - S))
    rng = random.Random(seed)
    h = HeckeElem.monomial(
        "inert_F", (rng.randint(0, 2), rng.randint(-1, 1)), Fraction(rng.randint(1, 3))
    ) + HeckeElem.one("inert_F") * rng.randint(0, 2)
    vec = hecke_apply(h, generator_vector(F3))
    chain = xi_phi_chain(vec)
    assert lambda_of_chain(chain, F3) == chain_identity_rhs(chain.p_delta, 3)


def test_trace_divisibility_property(F3):
    # for delta in the determinant-level lattice, the Xi-image of Tr(delta)
    # has all central-cell (b = 0) coefficients in (p-1) Z[1/p]
    rng = random.Random(7)
    for _ in range(5):
        vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=False)
        chain = xi_phi_chain(trace_level(vec))
        for (a, b), c in chain.xi_coeffs.items():
            if b == 0:
                q = c / (3 - 1)
                assert q.denominator in (1, 3, 9, 27, 81)


# -- certificates ------------------------------------------------------------------------


def test_certify_part1_generator(F3):
    rep = certify_ideal(generator_vector(F3), 1)
    assert rep.verified() and rep.p_target == HeckeElem.one("inert_F")


@pytest.mark.parametrize("seed", range(6))
def test_certify_part1_random(F3, seed):
    rng = random.Random(seed)
    vec = random_integral_vector(F3, rng, "K", origin_vanishing=False)
    rep = certify_ideal(vec, 1)
    assert rep.verified()


@pytest.mark.parametrize("seed", range(6))
def test_certify_part2_random(F3, seed):
    rng = random.Random(100 + seed)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True)
    rep = certify_ideal(vec, 2)
    assert rep.verified()
    assert rep.cert.target == rep.cert.gen1() * rep.cert.U + rep.cert.Q * rep.cert.V


@pytest.mark.parametrize("seed", range(6))
def test_certify_part3_random(F3, seed):
    rng = random.Random(200 + seed)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=False)
    rep = certify_ideal(vec, 3)
    assert rep.verified()


def test_certified_vectors_are_integral(F3):
    rng = random.Random(5)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True)
    assert vector_is_integral(vec)


def test_certify_rejects_nonintegral(F3):
    # the plain unramified vector is not integral at determinant level
    phi = SchwartzFn.char_zp2(3)
    vec = TestVector(F3, "inert", "K[p]", [(phi, Mat2.identity(F3), Fraction(1))])
    with pytest.raises(ValueError):
        certify_ideal(vec, 3)


def test_trace_empty_vector(F3):
    vec = TestVector(F3, "inert", "K[p]", [])
    assert trace_level(vec).terms == []


def test_certify_part2_canonical_vector(F3):
    # the canonical vector's traced factor IS the second generator, so the
    # certificate is essentially (U, V) = (0, 1)
    from padicasai.gstar import ip_embed
    from padicasai.heckealg import euler_poly

    rep = delta1(F3, "inert")
    vec = ip_embed(rep["vector"])
    out = certify_ideal(vec, 2)
    assert out.verified()
    Q = euler_poly("asai_inert", 3).involute_at_one()
    assert out.p_target == Q
    assert out.p_target == out.cert.gen1() * out.cert.U + Q * out.cert.V


# -- the canonical vector -------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_delta1_inert(p):
    ctx = QuadCtx.make(p)
    rep = delta1(ctx, "inert")
    assert rep["A_s_equals_one"]
    assert rep["godement_support_ok"]
    assert rep["vol_identity_ok"]
    assert rep["integral"]
    assert rep["stabilizer_relation_ok"]
    assert rep["local_factor_is_involuted_asai_at_one"]


def test_delta1_split(F3):
    rep = delta1(F3, "split")
    assert rep["A_s_equals_one"]
    assert rep["integral"]
    assert rep["local_factor_is_involuted_rs_at_one"]
    # the traced factor descends through iota to the G* algebra
    star = iota_solve(rep["p_trace"])
    assert star.group == "gstar_split"


def test_integrality_refuses_more_cells_than_the_cap(F3):
    # the refined function is the same function, so a truncated enumeration
    # would show as a different stabilizer volume; above the cap it raises
    from padicasai.exactnum import PrecisionOverflow

    phi = SchwartzFn.char_zp2(3)
    fine = phi.refine(1)
    assert fine == phi and len(fine.cells) == 9
    assert integrality_check(phi, Mat2.identity(F3), "K", F3) == (1, True)
    with pytest.raises(PrecisionOverflow):
        integrality_check(fine, Mat2.identity(F3), "K", F3)


# -- the memoized mirabolic step ----------------------------------------------------------


def act_on_mirabolic_by_labels(h, ctx):
    """_act_on_mirabolic as it was before its rows were memoized: one
    pgk_label per (cell, coset) at every T-step."""
    tcos = coset_reps("double_to_single", ctx, lam=1, field="quadratic")
    tmax = max((e[0] for e in h.poly.terms), default=0)
    window_b = range(0, tmax + 2)
    window_a = range(-(tmax + 2), tmax + 3)
    values = {0: {(a, b): Fraction(1 if (a, b) == (0, 0) else 0) for a in window_a for b in window_b}}

    def tstep(prev, k):
        out = {}
        for (a, b) in prev:
            x0 = Mat2.t(a, a, ctx) * Mat2.n_b(b, ctx)
            tot = Fraction(0)
            for gi in tcos:
                lab = pgk_label(x0 * gi).label
                tot += prev.get(lab, Fraction(0))
            out[(a, b)] = tot
        for (a, b), v in out.items():
            if v and (abs(a) > k or b > k):
                raise AssertionError("mirabolic support escaped its window")
        return out

    for k in range(1, tmax + 1):
        values[k] = tstep(values[k - 1], k)
    out = {}
    for (texp, sexp), coef in h.poly.terms.items():
        for (a, b), v in values[texp].items():
            if v:
                key = (a - sexp, b)
                out[key] = out.get(key, Fraction(0)) + coef * v
    return {k: v for k, v in out.items() if v}


def inert_elem(terms):
    """sum coef T^t S^s over {(t, s): coef}."""
    return HeckeElem("inert_F", Lau(("T", "S"), {e: Fraction(c) for e, c in terms.items()}))


MIRABOLIC_CASES = [
    (3, {(0, 0): 1, (0, 2): -2}),
    (3, {(1, 0): 1, (0, -1): Fraction(-1, 3)}),
    (3, {(2, -1): 2, (1, 1): -1, (0, 0): 5}),
    (3, {(3, 0): 1, (1, -2): 4, (2, 1): Fraction(1, 2)}),
    (5, {(0, 1): 3}),
    (5, {(1, 1): -1, (1, 0): 2, (0, -2): 1}),
]


def test_mirabolic_step_matches_labels_oracle(monkeypatch):
    rows, weights = heckemod._mirabolic_successors, heckemod.phi_c_weight
    served_rows, served_weights = set(), set()

    def recording_rows(a, b, ctx):
        served_rows.add((a, b, ctx))
        return rows(a, b, ctx)

    def recording_weights(a, b, ctx):
        served_weights.add((a, b, ctx))
        return weights(a, b, ctx)

    monkeypatch.setattr(heckemod, "_mirabolic_successors", recording_rows)
    monkeypatch.setattr(heckemod, "phi_c_weight", recording_weights)
    for p, terms in MIRABOLIC_CASES:
        ctx = QuadCtx.make(p)
        h = inert_elem(terms)
        expect = act_on_mirabolic_by_labels(h, ctx)
        assert _act_on_mirabolic(h, ctx) == expect, (p, terms)
        assert xi_phi_chain(generator_vector(ctx), h).xi_coeffs == expect
    # T-degree 3 at p = 3 fills its (2 * 3 + 5)(3 + 2) = 55-cell window
    assert sum(1 for _, _, ctx in served_rows if ctx.p == 3) >= 55
    assert {ctx.p for _, _, ctx in served_rows} == {3, 5}
    for key in served_rows:
        assert rows(*key) == rows.__wrapped__(*key), key
    assert {ctx.p for _, _, ctx in served_weights} == {3, 5}
    for key in served_weights:
        assert weights(*key) == weights.__wrapped__(*key), key


def test_mirabolic_memo_second_certificate_labels_nothing(F3, monkeypatch):
    # P of this vector has T-degree 1, so its chain takes one T-step
    phi = SchwartzFn(3, 2, {(Fraction(3), Fraction(1)): Fraction(432)})
    g = Mat2.upper(QuadElem(0, Fraction(1, 3), F3), F3)
    vec = TestVector(F3, "inert", "K[p]", [(phi, g, Fraction(1))])
    calls = []

    def counting(g):
        calls.append(g)
        return pgk_label(g)

    monkeypatch.setattr(heckemod, "pgk_label", counting)
    heckemod._mirabolic_successors.cache_clear()
    first = certify_ideal(vec, 3)
    assert first.route == "chain" and max(e[0] for e in first.p_target.poly.terms) == 1
    assert calls
    before = heckemod._mirabolic_successors.cache_info()
    weights_before = heckemod.phi_c_weight.cache_info()
    calls.clear()
    second = certify_ideal(vec, 3)
    assert calls == []
    assert heckemod._mirabolic_successors.cache_info().misses == before.misses
    assert heckemod.phi_c_weight.cache_info().misses == weights_before.misses
    assert second.to_json() == first.to_json()
