import random
from fractions import Fraction

import pytest

from padicasai.exactnum import AB, UV, Lau, NotInImage, complete_homog, sym_expand, sym_invert_params, sym_reduce
from padicasai.heckealg import (
    EulerPoly,
    HeckeElem,
    NotMember,
    euler_poly,
    gstar_gen,
    hecke_homog,
    ideal_cert,
    inv_satake,
    involution,
    iota_embed,
    iota_solve,
    monomial_det_val,
    satake,
)

E = ("e1", "e2")
E4 = ("e1_1", "e2_1", "e1_2", "e2_2")


def ev(name, power=1, vs=E):
    return Lau.var(vs, name, power)


def rand_inert(rng, deg=3):
    poly = Lau(("T", "S"))
    for _ in range(4):
        poly = poly + Lau.monomial(("T", "S"), (rng.randint(0, deg), rng.randint(-deg, deg)), Fraction(rng.randint(-6, 6), 3 ** rng.randint(0, 2)))
    return HeckeElem("inert_F", poly)


# -- satake --------------------------------------------------------------------


def test_satake_generators():
    p = 3
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    assert satake(T * Fraction(1, p), p) == ev("e1")
    assert satake(S, p) == ev("e2")
    # multiplicativity on a monomial
    assert satake(T * T * involution(involution(S)) ** -1 if False else T * T * HeckeElem.gen("inert_F", "S", -1), p) == Lau.monomial(E, (2, -1), 9)


@pytest.mark.parametrize("seed", range(6))
def test_satake_ring_hom(seed):
    rng = random.Random(seed)
    p = 3
    h1, h2 = rand_inert(rng), rand_inert(rng)
    assert satake(h1 * h2, p) == satake(h1, p) * satake(h2, p)
    assert satake(h1 + h2, p) == satake(h1, p) + satake(h2, p)


def test_inv_satake_roundtrip_basis():
    p = 5
    for a in range(3):
        for b in range(-2, 3):
            h = HeckeElem.monomial("inert_F", (a, b), Fraction(7, 5))
            assert inv_satake(satake(h, p), "inert_F", p) == h


def test_inv_satake_examples():
    p = 3
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    assert inv_satake(ev("e1"), "inert_F", p) == T * Fraction(1, p)
    assert inv_satake(ev("e2", -1), "inert_F", p) == HeckeElem.gen("inert_F", "S", -1)
    # degree-2 complete homogeneous sum: e1^2 - e2 -> T^2/p^2 - S
    got = inv_satake(ev("e1") ** 2 - ev("e2"), "inert_F", p)
    assert got == T * T * Fraction(1, p ** 2) - S


def test_hecke_homog_matches_whittaker_sums():
    p = 3
    for n in range(5):
        lhs = satake(hecke_homog(n, "inert_F", p), p)
        rhs = sym_reduce(complete_homog(n, "A", "B", AB))
        assert lhs == rhs


def test_satake_split_normalization():
    p = 5
    T1 = HeckeElem.gen("split_pair", "T1")
    S1 = HeckeElem.gen("split_pair", "S1")
    assert satake(T1, p) == Lau.var(E4, "e1_1")
    assert satake(S1, p) == Lau.var(E4, "e2_1") * Fraction(1, p)
    h = HeckeElem.monomial("split_pair", (1, 2, 0, -1), 1)
    assert inv_satake(satake(h, p), "split_pair", p) == h


# -- involution ------------------------------------------------------------------


def test_involution_generators():
    S = HeckeElem.gen("inert_F", "S")
    T = HeckeElem.gen("inert_F", "T")
    assert involution(S) == HeckeElem.gen("inert_F", "S", -1)
    assert involution(HeckeElem.one("inert_F")) == HeckeElem.one("inert_F")
    assert involution(T) == T * HeckeElem.gen("inert_F", "S", -1)


def test_involution_is_order_two():
    for a in range(4):
        for b in range(-2, 3):
            h = HeckeElem.monomial("inert_F", (a, b), Fraction(3, 2))
            assert involution(involution(h)) == h


@pytest.mark.parametrize("seed", range(4))
def test_involution_commutes_with_satake(seed):
    rng = random.Random(seed)
    p = 3
    h = rand_inert(rng)
    lhs = satake(involution(h), p)
    rhs = sym_invert_params(satake(h, p))
    assert lhs == rhs


# -- Euler polynomials ------------------------------------------------------------


def test_asai_inert_interpolation():
    # Theta(P_As)(X) equals the inverse Asai L-factor (1-AX)(1-BX)(1-ABX^2)
    p = 3
    P = euler_poly("asai_inert", p)
    got = P.satake_in_x(p)
    vs = ("A", "B", "X")
    A, B, X = (Lau.var(vs, v) for v in vs)
    target = (1 - A * X) * (1 - B * X) * (1 - A * B * X ** 2)
    assert sym_expand(got, ("A", "B")) == target


def test_asai_inert_at_one():
    p = 3
    P = euler_poly("asai_inert", p)
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    assert P.at_one() == (HeckeElem.one("inert_F") - T * Fraction(1, p) + S) * (HeckeElem.one("inert_F") - S)


def test_standard_factor_relation():
    # P_F(1) = P_As(1) / (1 - S)
    p = 5
    S = HeckeElem.gen("inert_F", "S")
    lhs = euler_poly("standard_F", p).at_one() * (HeckeElem.one("inert_F") - S)
    assert lhs == euler_poly("asai_inert", p).at_one()


def test_rs_split_interpolation():
    # Theta(P_rs)(X) = prod_(a,b) (1 - a b X / p) over a in {u1,v1}, b in {u2,v2}
    p = 3
    P = euler_poly("rs_split", p)
    got = P.satake_in_x(p)
    vs = UV + ("X",)
    u1, v1, u2, v2, X = (Lau.var(vs, v) for v in vs)
    target = Lau.const(vs, 1)
    for a in (u1, v1):
        for b in (u2, v2):
            target = target * (1 - a * b * X * Fraction(1, p))
    assert sym_expand(got, UV) == target


def test_asai_star_split_x2_coefficient():
    p = 3
    P = euler_poly("asai_star_split", p)
    Ts = gstar_gen("Tstar", "gstar_split", p)
    Ss = gstar_gen("Sstar", "gstar_split", p)
    T2s = gstar_gen("T2star", "gstar_split", p)
    assert P.coeffs[2] == Ts * Ts * Fraction(1, p ** 2) - T2s * Fraction(1, p ** 2) - Ss


@pytest.mark.parametrize("p", [3, 5])
def test_iota_compatibility_of_euler_factors(p):
    # iota(P_{p,As*}) is the Rankin-Selberg factor (split) or the Asai factor (inert)
    split = euler_poly("asai_star_split", p)
    rs = euler_poly("rs_split", p)
    assert [iota_embed(c) for c in split.coeffs] == rs.coeffs
    inert = euler_poly("asai_star_inert", p)
    asai = euler_poly("asai_inert", p)
    assert [iota_embed(c) for c in inert.coeffs] == asai.coeffs


def test_iota_generator_images():
    p = 3
    assert iota_embed(gstar_gen("Tstar", "gstar_inert", p)) == HeckeElem.gen("inert_F", "T")
    t1t2 = HeckeElem.monomial("split_pair", (1, 0, 1, 0), 1)
    assert iota_embed(gstar_gen("Tstar", "gstar_split", p)) == t1t2
    s1s2 = HeckeElem.monomial("split_pair", (0, 1, 0, 1), 1)
    assert iota_embed(gstar_gen("Sstar", "gstar_split", p)) == s1s2


def test_iota_t2star_satake():
    # Theta(iota(T*(p^2))) is the product of degree-2 complete homogeneous sums
    p = 3
    got = satake(iota_embed(gstar_gen("T2star", "gstar_split", p)), p)
    vs = UV
    target = complete_homog(2, "u1", "v1", vs) * complete_homog(2, "u2", "v2", vs)
    assert sym_expand(got, vs) == target


def test_iota_injective_on_monomials():
    seen = set()
    for a in range(3):
        for b in range(-1, 2):
            img = iota_embed(HeckeElem.monomial("gstar_inert", (a, b), 1))
            assert img not in seen
            seen.add(img)


def test_iota_solve_balance():
    h = HeckeElem.monomial("split_pair", (2, 0, 0, 1), 1)
    assert iota_solve(h).group == "gstar_split"
    bad = HeckeElem.monomial("split_pair", (1, 0, 0, 0), 1)
    with pytest.raises(NotInImage):
        iota_solve(bad)


def test_monomial_det_val():
    assert monomial_det_val("inert_F", (1, 0)) == 1
    assert monomial_det_val("inert_F", (0, 1)) == 2
    assert monomial_det_val("gstar_split", (2, 0, 0, 1)) == 2


# -- ideal certificates -----------------------------------------------------------


def test_ideal_cert_trivial_cases():
    p = 3
    Q = euler_poly("asai_inert", p).involute_at_one()
    cert = ideal_cert(Q, "p-1", Q, p)
    assert cert.verified
    assert cert.target == cert.gen1() * cert.U + cert.Q * cert.V
    S3 = HeckeElem.gen("inert_F", "S", -3)
    P = S3 * (p - 1)
    cert2 = ideal_cert(P, "p-1", Q, p)
    assert cert2.verified


def test_ideal_cert_constructed_example():
    # P = (p-1) T + Q S with Q the involuted Asai factor at 1
    p = 3
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    Q = euler_poly("asai_inert", p).involute_at_one()
    P = T * (p - 1) + Q * S
    cert = ideal_cert(P, "p-1", Q, p)
    assert cert.verified
    assert P == cert.gen1() * cert.U + Q * cert.V


def test_ideal_cert_two_generator_kind():
    p = 3
    S = HeckeElem.gen("inert_F", "S")
    T = HeckeElem.gen("inert_F", "T")
    Q = euler_poly("asai_inert", p).involute_at_one()
    one = HeckeElem.one("inert_F")
    P = (one - S) * T * (p - 1) + Q * (S ** -1 * T)
    cert = ideal_cert(P, "(p-1)(1-S)", Q, p)
    assert cert.verified
    assert P == cert.gen1() * cert.U + Q * cert.V


def test_ideal_cert_two_generator_kind_only_catches_not_divisible(monkeypatch):
    p = 3
    Q = euler_poly("asai_inert", p).involute_at_one()
    # a target without the (1 - S) factor is a non-member
    with pytest.raises(NotMember):
        ideal_cert(HeckeElem.one("inert_F"), "(p-1)(1-S)", Q, p)

    # any other fault inside the division propagates unchanged
    def broken(self, other):
        raise TypeError("fault inside exact_div")

    monkeypatch.setattr(Lau, "exact_div", broken)
    with pytest.raises(TypeError, match="fault inside exact_div"):
        ideal_cert(HeckeElem.one("inert_F"), "(p-1)(1-S)", Q, p)


def test_ideal_cert_not_member():
    p = 3
    Q = euler_poly("asai_inert", p).involute_at_one()
    with pytest.raises(NotMember):
        ideal_cert(HeckeElem.one("inert_F"), "p-1", Q, p)


@pytest.mark.parametrize("seed", range(8))
def test_ideal_cert_random_members(seed):
    rng = random.Random(seed)
    p = 3
    Q = euler_poly("asai_inert", p).involute_at_one()
    U = rand_inert(rng, 2)
    V = rand_inert(rng, 2)
    # force Z[1/p] coefficients
    U = HeckeElem("inert_F", U.poly.map_coeff(lambda c: Fraction(c.numerator, 3 ** 0)))
    V = HeckeElem("inert_F", V.poly.map_coeff(lambda c: Fraction(c.numerator)))
    P = U * (p - 1) + Q * V
    cert = ideal_cert(P, "p-1", Q, p)
    assert cert.verified
    assert P == cert.gen1() * cert.U + Q * cert.V


def test_ideal_cert_gstar_split():
    p = 3
    Q = euler_poly("asai_star_split", p).involute_at_one()
    Ss = gstar_gen("Sstar", "gstar_split", p)
    P = Ss * (p - 1) + Q * gstar_gen("Tstar", "gstar_split", p)
    cert = ideal_cert(P, "p-1", Q, p)
    assert cert.verified
    assert cert.U.group == "gstar_split" and cert.V.group == "gstar_split"


def test_json_roundtrip():
    h = HeckeElem.monomial("inert_F", (2, -1), Fraction(5, 3))
    assert HeckeElem.from_json(h.to_json()) == h


@pytest.mark.parametrize("p", [2, 9, 15, 1, 0, -3])
def test_entry_points_refuse_p_not_an_odd_prime(p):
    # euler_poly("asai_inert", 9) once returned 1 - S^2 - T/9 + T S/9
    with pytest.raises(ValueError, match="not an odd prime"):
        euler_poly("asai_inert", p)
    with pytest.raises(ValueError, match="not an odd prime"):
        satake(HeckeElem.gen("inert_F", "T"), p)
    with pytest.raises(ValueError, match="not an odd prime"):
        inv_satake(ev("e1"), "inert_F", p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_entry_points_accept_odd_primes(p):
    h = euler_poly("asai_inert", p).at_one()
    assert inv_satake(satake(h, p), "inert_F", p) == h
