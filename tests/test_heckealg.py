import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from padicasai import heckealg
from padicasai.acceptance import criterion_6_certificates
from padicasai.exactnum import (
    AB,
    UV,
    Lau,
    NotDivisible,
    NotInImage,
    _evar_pairs,
    complete_homog,
    sym_expand,
    sym_reduce,
)
from padicasai.heckealg import (
    INERT_VARS,
    SPLIT_VARS,
    HeckeElem,
    HeckeIdealCert,
    NotMember,
    _mod,
    _mod_divide_principal,
    _vars_for,
    divide_exact_int,
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


def sym_invert_params(sym: Lau) -> Lau:
    """Apply (x,y) -> (1/x,1/y) on each pair: e1 -> e1/e2, e2 -> 1/e2, so
    e1^a e2^b -> e1^a e2^(-a-b)."""
    idx = [(sym.vars.index(e1n), sym.vars.index(e2n)) for e1n, e2n in _evar_pairs(sym.vars)]
    terms = {}
    for e, c in sym.terms.items():
        inv = list(e)
        for i, j in idx:
            inv[j] = -e[i] - e[j]
        terms[tuple(inv)] = c
    return Lau(sym.vars, terms)


def test_sym_invert_params():
    # e1 = A + B -> A^-1 + B^-1 = e1/e2
    e = sym_reduce(Lau.var(AB, "A") + Lau.var(AB, "B"))
    inv = sym_invert_params(e)
    assert inv == Lau.monomial(("e1", "e2"), (1, -1))


def rand_inert(rng, deg=3):
    poly = Lau(("T", "S"))
    for _ in range(4):
        poly = poly + Lau.monomial(("T", "S"), (rng.randint(0, deg), rng.randint(-deg, deg)), Fraction(rng.randint(-6, 6), 3 ** rng.randint(0, 2)))
    return HeckeElem("inert_F", poly)


# -- satake --------------------------------------------------------------------


def test_hecke_arithmetic_builds_unchecked_but_entry_points_check():
    # sums and products of checked operands skip the checks; powers and the
    # public constructor keep them
    T = HeckeElem.gen("inert_F", "T")
    with pytest.raises(ValueError, match="negative exponent"):
        T ** -1
    with pytest.raises(ValueError, match="not determinant balanced"):
        HeckeElem.gen("gstar_split", "T1")
    b = HeckeElem.monomial("gstar_split", (2, 0, 0, 1))
    h = (b * b - 3 + b) * Fraction(1, 2)
    assert h == HeckeElem("gstar_split", h.poly)


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


def ideal_gen1(kind: str, group: str, p: int) -> HeckeElem:
    """The first generator of the ideal, p - 1 or (p - 1)(1 - S), built without a certificate."""
    one = HeckeElem.one(group)
    return one * (p - 1) if kind == "p-1" else (one - HeckeElem.gen(group, "S")) * (p - 1)


def test_a_certificate_whose_identity_fails_is_never_built():
    # P = T is no (p - 1) U + Q V for (U, V) = (0, 1): the constructor raises
    # with the remainder T - Q, and a built certificate cannot be changed
    p = 3
    Q = euler_poly("asai_inert", p).involute_at_one()
    T, zero, one = HeckeElem.gen("inert_F", "T"), HeckeElem.zero("inert_F"), HeckeElem.one("inert_F")
    with pytest.raises(NotMember, match="re-expand") as exc:
        HeckeIdealCert(T, "p-1", Q, zero, one, p)
    assert exc.value.remainder == T - Q
    cert = HeckeIdealCert(Q, "p-1", Q, zero, one, p)
    assert cert.verified is True and cert.to_json()["verified"] is True
    assert not hasattr(cert, "verify")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.U = one
    for kind, group in (("p-1", "split_pair"), ("(p-1)(1-S)", "inert_F"), ("(p-1)(1-S)", "gstar_inert")):
        one = HeckeElem.one(group)
        assert HeckeIdealCert(one, kind, one, HeckeElem.zero(group), one, p).gen1() == ideal_gen1(kind, group, p)


def test_a_certificate_whose_identity_fails_raises_under_optimize():
    # the check is no bare assert: python -O raises the same NotMember
    code = (
        "from padicasai.heckealg import HeckeElem, HeckeIdealCert, NotMember, euler_poly\n"
        "Q = euler_poly('asai_inert', 3).involute_at_one()\n"
        "T, one = HeckeElem.gen('inert_F', 'T'), HeckeElem.one('inert_F')\n"
        "try:\n"
        "    HeckeIdealCert(T, 'p-1', Q, HeckeElem.zero('inert_F'), one, 3)\n"
        "except NotMember as exc:\n"
        "    print(exc.remainder == T - Q)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (r.returncode, r.stdout) == (0, "True\n"), r.stderr


def test_ideal_cert_trivial_cases():
    p = 3
    Q = euler_poly("asai_inert", p).involute_at_one()
    cert = ideal_cert(Q, "p-1", Q, p)
    assert cert.target == cert.gen1() * cert.U + cert.Q * cert.V
    S3 = HeckeElem.gen("inert_F", "S", -3)
    P = S3 * (p - 1)
    assert ideal_cert(P, "p-1", Q, p).target == P


def test_ideal_cert_constructed_example():
    # P = (p-1) T + Q S with Q the involuted Asai factor at 1
    p = 3
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    Q = euler_poly("asai_inert", p).involute_at_one()
    P = T * (p - 1) + Q * S
    cert = ideal_cert(P, "p-1", Q, p)
    assert P == cert.gen1() * cert.U + Q * cert.V


def test_ideal_cert_two_generator_kind():
    p = 3
    S = HeckeElem.gen("inert_F", "S")
    T = HeckeElem.gen("inert_F", "T")
    Q = euler_poly("asai_inert", p).involute_at_one()
    one = HeckeElem.one("inert_F")
    P = (one - S) * T * (p - 1) + Q * (S ** -1 * T)
    cert = ideal_cert(P, "(p-1)(1-S)", Q, p)
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
    U, V = (HeckeElem("inert_F", Lau(W.poly.vars, {e: c.numerator for e, c in W.poly.terms.items()})) for W in (U, V))
    P = U * (p - 1) + Q * V
    cert = ideal_cert(P, "p-1", Q, p)
    assert P == cert.gen1() * cert.U + Q * cert.V


def test_ideal_cert_gstar_split():
    p = 3
    Q = euler_poly("asai_star_split", p).involute_at_one()
    Ss = gstar_gen("Sstar", "gstar_split", p)
    P = Ss * (p - 1) + Q * gstar_gen("Tstar", "gstar_split", p)
    cert = ideal_cert(P, "p-1", Q, p)
    assert cert.U.group == "gstar_split" and cert.V.group == "gstar_split"


def test_json_roundtrip():
    h = HeckeElem.monomial("inert_F", (2, -1), Fraction(5, 3))
    assert HeckeElem.from_json(h.to_json()) == h


@pytest.mark.parametrize(
    "group, terms, match",
    [
        ("inert_F", [{"T1": 2, "coef": "1"}], "unknown key 'T1'"),
        ("inert_F", [{"T": 1, "X": 1, "coef": "1"}], "unknown key 'X'"),
        ("split_pair", [{"T1": 1, "T": 1, "coef": "1"}], "unknown key 'T'"),
        ("inert_F", {}, "terms are a list"),
        ("inert_F", {"T": 1, "coef": "1"}, "terms are a list"),
    ],
)
def test_from_json_rejects_unknown_keys_and_terms_not_a_list(group, terms, match):
    # a key outside the group's variables and coef was dropped, and
    # "terms": {} read as the zero element
    with pytest.raises(ValueError, match=match):
        HeckeElem.from_json({"group": group, "terms": terms})


@pytest.mark.parametrize("terms", [[{"T": 1, "coef": "1"}], [{"T1": 1, "coef": "1"}], "x"])
def test_from_json_names_an_unknown_group_first(terms):
    # the variables were picked before the group was checked, so "bogus"
    # read as a split group and was refused for its term key T
    with pytest.raises(ValueError, match="unknown group tag 'bogus'"):
        HeckeElem.from_json({"group": "bogus", "terms": terms})


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


# -- ideal certificates on Lau arithmetic against the dict-arithmetic oracle ----
#
# The helpers below are the earlier mod-(p-1) arithmetic on exponent dicts,
# kept verbatim as the reference for _mod_divide_principal and ideal_cert.


def mod_reduce_oracle(h: HeckeElem, m: int) -> dict:
    """Coefficients mod m = p - 1 (p maps to 1, so p-power denominators drop)."""
    out = {}
    for e, c in h.poly.terms.items():
        num = c.numerator % m
        den = c.denominator % m
        # denominator is a p power, p = 1 mod m, so den = 1 mod m
        if den != 1 % m:
            inv = pow(den, -1, m)
            num = num * inv % m
        if num:
            out[e] = num
    return out


def _mod_poly_sub(a: dict, b: dict, m: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) - c) % m
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _mod_poly_mul_mono(a: dict, exps, coef: int, m: int) -> dict:
    out = {}
    for e, c in a.items():
        e2 = tuple(x + y for x, y in zip(e, exps))
        v = c * coef % m
        if v:
            out[e2] = v
    return out


def _shift_var(d: dict, var_index: int, k: int) -> dict:
    if k == 0 or not d:
        return dict(d)
    return {tuple(x + (k if i == var_index else 0) for i, x in enumerate(e)): c for e, c in d.items()}


def mod_divide_principal_oracle(P: dict, Q: dict, var_index: int, m: int):
    """Divide P by Q in the Laurent ring (Z/m)[gens^+-] along one variable.

    Requires the leading coefficient of Q in that variable to be a single
    monomial with a unit coefficient mod m (then division with remainder is
    unique since that leading unit makes Q regular).  Returns
    (quotient, remainder) or None when the leading-unit test fails.
    """
    if not Q:
        raise ZeroDivisionError
    if not P:
        return {}, {}
    # normalize away negative powers of the principal variable
    sp = min(e[var_index] for e in P)
    sq = min(e[var_index] for e in Q)
    Ps = _shift_var(P, var_index, -sp)
    Qs = _shift_var(Q, var_index, -sq)
    dq = max(e[var_index] for e in Qs)
    lead = {e: c for e, c in Qs.items() if e[var_index] == dq}
    if len(lead) != 1:
        return None
    ((lexp, lcoef),) = lead.items()
    try:
        linv = pow(lcoef, -1, m)
    except ValueError:
        return None
    quot: dict = {}
    rem = dict(Ps)
    while rem:
        dr = max(e[var_index] for e in rem)
        if dr < dq:
            break
        e = min(e for e in rem if e[var_index] == dr)
        c = rem[e]
        qe = tuple(x - y for x, y in zip(e, lexp))
        qc = c * linv % m
        quot[qe] = (quot.get(qe, 0) + qc) % m
        if quot[qe] == 0:
            del quot[qe]
        rem = _mod_poly_sub(rem, _mod_poly_mul_mono(Qs, qe, qc, m), m)
    return _shift_var(quot, var_index, sp - sq), _shift_var(rem, var_index, sp)


def _one_minus_s_mod(group: str, m: int) -> dict:
    vs = _vars_for(group)
    one = (0,) * len(vs)
    s = tuple(1 if i == 1 else 0 for i in range(len(vs)))
    return {one: 1 % m, s: (-1) % m}


def _extract_one_minus_s(Q: dict, group: str, m: int):
    """Q = (1 - S)^j * Q1 mod m with (1 - S) exactly divided out."""
    oms = _one_minus_s_mod(group, m)
    j = 0
    cur = Q
    while True:
        res = mod_divide_principal_oracle(cur, oms, 1, m)
        if res is None:
            break
        q, r = res
        if r:
            break
        cur = q
        j += 1
        if not cur:
            break
    return j, cur


def _lift_mod_poly(d: dict, group: str, m: int) -> HeckeElem:
    terms = {}
    for e, c in d.items():
        c = c % m
        terms[e] = c - m if c > m // 2 else c
    return HeckeElem(group, Lau(_vars_for(group), terms))


def _project_balanced(h: HeckeElem, group: str) -> HeckeElem:
    """Keep the determinant-balanced monomials (projection onto the G* image)."""
    terms = {e: c for e, c in h.poly.terms.items() if e[0] + 2 * e[1] == e[2] + 2 * e[3]}
    return HeckeElem(group, Lau(h.poly.vars, terms))


def ideal_cert_oracle(P: HeckeElem, gen1_kind: str, Q: HeckeElem, p: int) -> HeckeIdealCert:
    """Certificate that P lies in <gen1, Q>, gen1 = (p-1) or (p-1)(1-S).

    Algorithm: reduce mod p - 1 (p becomes invertible, in fact 1); peel off
    the (1 - S)-factors both generators share; divide by the remaining
    unit-T-leading part; lift the quotient and divide the discrepancy by
    gen1 exactly.  NotMember carries the offending remainder.
    """
    group = P.group
    if Q.group != group:
        raise ValueError("mixed groups")
    if not (P.is_integral(p) and Q.is_integral(p)):
        raise ValueError("ideal_cert expects Z[1/p] coefficients")
    m = p - 1
    vs = _vars_for(group)

    if gen1_kind == "(p-1)(1-S)":
        if group not in ("inert_F", "gstar_inert"):
            raise ValueError("the (p-1)(1-S) ideal arises in the inert setting")
        one = HeckeElem.one(group)
        S = HeckeElem.gen(group, "S")
        # both generators carry a (1 - S) factor, so the ideal is
        # (1 - S) * <p-1, Q/(1-S)> and membership reduces to the p-1 case
        try:
            Q1 = HeckeElem(group, Q.poly.exact_div((one - S).poly))
        except NotDivisible as exc:
            raise ValueError("second generator is not divisible by (1 - S)") from exc
        try:
            P1 = HeckeElem(group, P.poly.exact_div((one - S).poly))
        except NotDivisible:
            raise NotMember("target not divisible by (1 - S)", P)
        inner = ideal_cert_oracle(P1, "p-1", Q1, p)
        return HeckeIdealCert(P, gen1_kind, Q, inner.U, inner.V, p)

    if gen1_kind != "p-1":
        raise ValueError(f"unknown ideal kind {gen1_kind!r}")

    Pm = mod_reduce_oracle(P, m)
    Qm = mod_reduce_oracle(Q, m)
    if not Qm:
        if Pm:
            raise NotMember("Q vanishes mod p-1 but P does not", P)
        V = HeckeElem.zero(group)
        return HeckeIdealCert(P, gen1_kind, Q, divide_exact_int(P - Q * V, m, p), V, p)
    j, Q1m = _extract_one_minus_s(Qm, group, m)
    cur = Pm
    for _ in range(j):
        res = mod_divide_principal_oracle(cur, _one_minus_s_mod(group, m), 1, m)
        if res is None or res[1]:
            raise NotMember("target lacks the (1 - S) factor mod p-1", _lift_mod_poly(cur, group, m))
        cur = res[0]
    # principal variable: T (index 0); for split also try T2 (index 2)
    quotient = None
    for vi in (0, 2) if len(vs) == 4 else (0,):
        res = mod_divide_principal_oracle(cur, Q1m, vi, m)
        if res is not None:
            q, r = res
            if not r:
                quotient = q
                break
            last_rem = r
        else:
            last_rem = None
    if quotient is None:
        rem = _lift_mod_poly(last_rem, group, m) if last_rem else None
        raise NotMember("nonzero remainder mod p-1", rem)
    V = _lift_mod_poly(quotient, group, m)
    if group == "gstar_split":
        V = _project_balanced(V, group)
    return HeckeIdealCert(P, gen1_kind, Q, divide_exact_int(P - Q * V, m, p), V, p)


def rand_laurent(rng, vs, n_terms, coef):
    """Random Laurent polynomial with negative exponents in every variable."""
    return Lau(vs, {tuple(rng.randint(-2, 2) for _ in vs): coef(rng) for _ in range(n_terms)})


def rand_unit_led(rng, vs, i, m):
    """A polynomial whose leading part in variable i is a single monomial;
    its coefficient is a non-unit mod m about one time in four."""
    deg = rng.randint(1, 2)
    lead = [rng.randint(0, 1) for _ in vs]
    lead[i] = deg
    rest = rand_laurent(rng, vs, rng.randint(1, 3), lambda r: r.randint(1, m - 1))
    rest = Lau(vs, {e: c for e, c in rest.terms.items() if e[i] < deg})
    lc = rng.choice([c for c in range(1, m) if math.gcd(c, m) > 1] or [1]) if rng.random() < 0.25 else 1
    return rest + Lau.monomial(vs, lead, lc)


def mod_divide_principal_lau_oracle(P: Lau, Q: Lau, i: int, m: int):
    """_mod_divide_principal as it was: each step builds a Fraction Lau
    monomial and reduces the whole remainder with _mod."""
    if Q.is_zero():
        raise ZeroDivisionError
    if P.is_zero():
        return P, P
    Ps, sp = P.shift_to_poly()
    Qs, sq = Q.shift_to_poly()
    dq = max(e[i] for e in Qs.terms)
    lead = [(e, c) for e, c in Qs.terms.items() if e[i] == dq]
    if len(lead) != 1:
        return None
    ((lexp, lcoef),) = lead
    try:
        linv = pow(int(lcoef), -1, m)
    except ValueError:
        return None
    vs = P.vars
    quot = Lau(vs)
    rem = Ps
    while not rem.is_zero():
        dr = max(e[i] for e in rem.terms)
        if dr < dq:
            break
        e = min(e for e in rem.terms if e[i] == dr)
        q = Lau.monomial(vs, tuple(x - y for x, y in zip(e, lexp)), rem.terms[e] * linv % m)
        quot = quot + q
        rem = _mod(rem - Qs * q, m)
    return quot * Lau.monomial(vs, tuple(a - b for a, b in zip(sp, sq))), rem * Lau.monomial(vs, sp)


def test_mod_divide_principal_matches_lau_oracle_in_criterion_6(monkeypatch):
    calls = []

    def checked(P, Q, i, m):
        got = _mod_divide_principal(P, Q, i, m)
        assert got == mod_divide_principal_lau_oracle(P, Q, i, m)
        calls.append(got is None)
        return got

    monkeypatch.setattr(heckealg, "_mod_divide_principal", checked)
    assert criterion_6_certificates()["ok"]
    assert len(calls) > 50


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_mod_divide_principal_matches_dict_oracle(p):
    m = p - 1
    rng = random.Random(p)
    seen = {"divided": 0, "refused": 0}
    for vs in (INERT_VARS, SPLIT_VARS):
        for i in range(len(vs)):
            for _ in range(20):
                if rng.random() < 0.7:
                    Q = rand_unit_led(rng, vs, i, m)
                else:
                    Q = rand_laurent(rng, vs, 3, lambda r: r.randint(-9, 9))
                P = rand_laurent(rng, vs, rng.randint(0, 4), lambda r: Fraction(r.randint(-20, 20), p ** r.randint(0, 2)))
                if rng.random() < 0.5:
                    P = P + Q * rand_laurent(rng, vs, 2, lambda r: r.randint(-5, 5))
                Pm, Qm = _mod(P, m), _mod(Q, m)
                # the oracle reads only .poly; T exponents may be negative here
                Pd, Qd = (mod_reduce_oracle(SimpleNamespace(poly=f), m) for f in (P, Q))
                assert Pm == Lau(vs, Pd) and Qm == Lau(vs, Qd)
                if Qm.is_zero():
                    continue
                got = _mod_divide_principal(Pm, Qm, i, m)
                assert got == mod_divide_principal_lau_oracle(Pm, Qm, i, m)
                want = mod_divide_principal_oracle(Pd, Qd, i, m)
                if want is None:
                    assert got is None
                    seen["refused"] += 1
                else:
                    assert got == (Lau(vs, want[0]), Lau(vs, want[1]))
                    seen["divided"] += 1
    assert seen["divided"] > 50 and seen["refused"] > 0


def rand_member_part(rng, group, p):
    """Random element with Z[1/p] coefficients; balanced monomials for gstar_split."""
    vs = INERT_VARS if group in ("inert_F", "gstar_inert") else SPLIT_VARS
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if len(vs) == 2:
            e = (rng.randint(0, 2), rng.randint(-2, 2))
        else:
            a, b, c = rng.randint(0, 2), rng.randint(-1, 1), rng.randint(0, 2)
            if group == "gstar_split":
                c = a if (a + c) % 2 else c
                e = (a, b, c, (a + 2 * b - c) // 2)
            else:
                e = (a, b, c, rng.randint(-1, 1))
        terms[e] = Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2))
    return HeckeElem(group, Lau(vs, terms))


# (group, ideal kind, Euler polynomial whose involuted value at 1 is Q)
CERT_CASES = [
    ("inert_F", "p-1", "standard_F"),
    ("inert_F", "p-1", "asai_inert"),
    ("inert_F", "(p-1)(1-S)", "asai_inert"),
    ("gstar_inert", "p-1", "asai_star_inert"),
    ("gstar_inert", "(p-1)(1-S)", "asai_star_inert"),
    ("split_pair", "p-1", "rs_split"),
    ("gstar_split", "p-1", "asai_star_split"),
]


def cert_outcome(fn, *args):
    try:
        return "cert", fn(*args).to_json()
    except NotMember as exc:
        rem = exc.remainder
        return "NotMember", str(exc), None if rem is None else rem.to_json()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("group,kind,euler", CERT_CASES)
def test_ideal_cert_matches_dict_oracle(group, kind, euler, p):
    rng = random.Random(f"{group}{kind}{euler}{p}")
    Q = euler_poly(euler, p).involute_at_one()
    outcomes = []
    for _ in range(8):
        U, V = rand_member_part(rng, group, p), rand_member_part(rng, group, p)
        member = ideal_gen1(kind, group, p) * U + Q * V
        got = cert_outcome(ideal_cert, member, kind, Q, p)
        assert got[0] == "cert"
        assert got == cert_outcome(ideal_cert_oracle, member, kind, Q, p)
        # a perturbed target is mostly a non-member: same remainder either way
        other = member + rand_member_part(rng, group, p)
        got = cert_outcome(ideal_cert, other, kind, Q, p)
        assert got == cert_outcome(ideal_cert_oracle, other, kind, Q, p)
        outcomes.append(got[0])
    assert "NotMember" in outcomes
