"""Spherical Hecke algebras as Laurent polynomial algebras.

Groups and generator conventions:

* tag "inert_F":   H(GL2(F)), F the unramified quadratic extension;
  generators T = ch(K t(1,0) K) and S^+- = ch(t(1,1) K)^+-.
* tag "split_pair": H(GL2(Q_p) x GL2(Q_p)); generators T1, S1^+-, T2, S2^+-.
* tag "gstar_inert": the determinant-in-Q_p subgroup; its spherical algebra
  is isomorphic to the inert one (same double-coset monoid), carried on the
  same (T, S) variables.
* tag "gstar_split": realized inside the split-pair algebra as the balanced
  subalgebra (each monomial T1^a S1^b T2^c S2^d with a + 2b = c + 2d,
  i.e. equal determinant valuations in both components); the embedding into
  the split pair algebra is then literally the identity on coefficients.

The Satake transform lands in symmetric coordinates with only rational
coefficients: inert T -> p(A + B), S -> AB, written in e1 = A + B and
e2 = AB; split T_i -> u_i + v_i, S_i -> u_i v_i / p in Hecke-normalized
parameters, written in e1_i = u_i + v_i and e2_i = u_i v_i.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .exactnum import (
    Lau,
    NotDivisible,
    NotInImage,
    _too_long,
    fr_to_str,
    is_odd_prime,
)

INERT_VARS = ("T", "S")
SPLIT_VARS = ("T1", "S1", "T2", "S2")

GROUPS = ("inert_F", "split_pair", "gstar_inert", "gstar_split")


class NotMember(AssertionError):
    """Ideal membership failed; carries the irreducible remainder."""

    def __init__(self, msg, remainder=None):
        super().__init__(msg)
        self.remainder = remainder


def _vars_for(group: str):
    return INERT_VARS if group in ("inert_F", "gstar_inert") else SPLIT_VARS


class HeckeElem:
    """Element of a spherical Hecke algebra (sparse Laurent polynomial)."""

    __slots__ = ("group", "poly")

    def __init__(self, group: str, poly: Lau):
        if group not in GROUPS:
            raise ValueError(f"unknown group tag {group!r}")
        if poly.vars != _vars_for(group):
            raise ValueError("variable tuple does not match group tag")
        exps = poly.int_terms()[0]
        for e in exps:
            t_exps = e[::2]
            if any(t < 0 for t in t_exps):
                raise ValueError("negative exponent on a T generator")
        if group == "gstar_split":
            for e in exps:
                if e[0] + 2 * e[1] != e[2] + 2 * e[3]:
                    raise ValueError("gstar_split element is not determinant balanced")
        self.group = group
        self.poly = poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, group: str) -> "HeckeElem":
        return cls(group, Lau.const(_vars_for(group), 1))

    @classmethod
    def zero(cls, group: str) -> "HeckeElem":
        return cls(group, Lau(_vars_for(group)))

    @classmethod
    def gen(cls, group: str, name: str, power: int = 1) -> "HeckeElem":
        return cls(group, Lau.var(_vars_for(group), name, power))

    @classmethod
    def monomial(cls, group: str, exps: Sequence[int], coef=1) -> "HeckeElem":
        return cls(group, Lau.monomial(_vars_for(group), tuple(exps), coef))

    # -- algebra --------------------------------------------------------------

    def _chk(self, other) -> "HeckeElem":
        if isinstance(other, HeckeElem):
            if other.group != self.group:
                raise ValueError("mixed Hecke group tags")
            return other
        return _hecke(self.group, Lau.const(self.poly.vars, other))

    def __add__(self, other):
        return _hecke(self.group, self.poly + self._chk(other).poly)

    __radd__ = __add__

    def __sub__(self, other):
        return _hecke(self.group, self.poly - self._chk(other).poly)

    def __rsub__(self, other):
        return self._chk(other) - self

    def __neg__(self):
        return _hecke(self.group, -self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _hecke(self.group, self.poly * other)
        return _hecke(self.group, self.poly * self._chk(other).poly)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return HeckeElem(self.group, self.poly ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.poly == Lau.const(self.poly.vars, other)
        return isinstance(other, HeckeElem) and self.group == other.group and self.poly == other.poly

    def __hash__(self):
        return hash((self.group, self.poly))

    def is_integral(self, p: int) -> bool:
        """All coefficients in Z[1/p]."""
        return self.poly.coeffs_in_z_inv_p(p)

    def __repr__(self):
        return f"Hecke[{self.group}]({self.poly!r})"

    def to_json(self) -> dict:
        terms = []
        nums, den = self.poly.int_terms()
        for e, c in sorted(nums.items()):
            d = {v: k for v, k in zip(self.poly.vars, e)}
            d["coef"] = fr_to_str(c, den)
            terms.append(d)
        return {"group": self.group, "terms": terms}

    @classmethod
    def from_json(cls, d: Mapping) -> "HeckeElem":
        if d["group"] not in GROUPS:
            raise ValueError(f"unknown group tag {d['group']!r}")
        vs = _vars_for(d["group"])
        if not isinstance(d["terms"], list):
            raise ValueError("a Hecke element's terms are a list")
        terms: dict[tuple, Fraction] = {}
        for t in d["terms"]:
            unknown = sorted(set(t) - {*vs, "coef"})
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r} in a term of {d['group']}")
            e = tuple(int(t.get(v, 0)) for v in vs)
            terms[e] = terms.get(e, Fraction(0)) + Fraction(t["coef"])
        return cls(d["group"], Lau(vs, terms))


def _hecke(group: str, poly: Lau) -> HeckeElem:
    """A HeckeElem built unchecked: the constructor of sums, differences
    and products of checked operands, which keep every T exponent >= 0 and
    every gstar_split term balanced."""
    out = object.__new__(HeckeElem)
    out.group, out.poly = group, poly
    return out


# ---------------------------------------------------------------------------
# Satake transform and its inverse


def _check_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")


def _p_scaled(f: Lau, vs, weight, p: int) -> Lau:
    """f over the variables vs, its term at e times p^weight(e).

    Before any p-power is built: the term of largest |weight| = w keeps
    p^m in lowest terms, m = w - max(bit lengths of its numerator and the
    denominator), as p^v_p(x) < 2^bit_length(x).  As 3^21 > 10^10, p^m has
    more digits than the limit L once m >= 21 ceil(L / 10): exit 3."""
    nums, den = f.int_terms()
    k = max([0, *(-weight(e) for e in nums)])
    cap = 21 * -(-sys.get_int_max_str_digits() // 10)
    if cap and max([k, *map(weight, nums)]) >= cap:
        top = max(nums, key=lambda e: abs(weight(e)))
        if abs(weight(top)) - max(den.bit_length(), abs(nums[top]).bit_length()) >= cap:
            raise _too_long()
    return Lau.from_ints(vs, {e: c * p ** (weight(e) + k) for e, c in nums.items()}, den * p ** k)


def satake(h: HeckeElem, p: int) -> Lau:
    """Satake transform into symmetric coordinates, as a ring homomorphism.

    inert:  T^a S^b -> p^a e1^a e2^b
    split:  T1^a S1^b T2^c S2^d -> p^-(b+d) e1_1^a e2_1^b e1_2^c e2_2^d
    """
    _check_prime(p)
    if h.group in ("inert_F", "gstar_inert"):
        return _p_scaled(h.poly, ("e1", "e2"), lambda e: e[0], p)
    return _p_scaled(h.poly, ("e1_1", "e2_1", "e1_2", "e2_2"), lambda e: -(e[1] + e[3]), p)


def inv_satake(f: Lau, group: str, p: int) -> HeckeElem:
    """Inverse Satake transform; raises NotInImage when f is not expressible.

    Input is a Laurent polynomial in the symmetric coordinates (e1, e2) or
    (e1_1, e2_1, e1_2, e2_2).  e1-exponents must be non-negative; for
    gstar_split the monomials must be determinant balanced.
    """
    _check_prime(p)
    vs = _vars_for(group)
    exps = f.int_terms()[0]
    if group in ("inert_F", "gstar_inert"):
        if f.vars != ("e1", "e2"):
            raise ValueError("expected inert symmetric coordinates")
        if any(a < 0 for a, _ in exps):
            raise NotInImage("negative power of e1")
        return HeckeElem(group, _p_scaled(f, vs, lambda e: -e[0], p))
    if f.vars != ("e1_1", "e2_1", "e1_2", "e2_2"):
        raise ValueError("expected split symmetric coordinates")
    for a, b, cc, d in exps:
        if a < 0 or cc < 0:
            raise NotInImage("negative power of e1")
        if group == "gstar_split" and a + 2 * b != cc + 2 * d:
            raise NotInImage("monomial not determinant balanced")
    return HeckeElem(group, _p_scaled(f, vs, lambda e: e[1] + e[3], p))


def involution(h: HeckeElem) -> HeckeElem:
    """xi -> xi((-)^(-1)): T -> T S^-1, S -> S^-1 on each component."""
    vs = h.poly.vars
    nums, den = h.poly.int_terms()
    terms = {}
    for e, c in nums.items():
        e2 = list(e)
        for i in range(0, len(vs), 2):
            t, s = e2[i], e2[i + 1]
            e2[i], e2[i + 1] = t, -s - t
        terms[tuple(e2)] = c
    return HeckeElem(h.group, Lau.from_ints(vs, terms, den))


def monomial_det_val(group: str, exps: Sequence[int]) -> int:
    """v_p(det) grading of a monomial: each T carries 1, each S carries 2.
    For split tags this is the first-component value; on determinant
    balanced monomials both components agree."""
    return exps[0] + 2 * exps[1]


# ---------------------------------------------------------------------------
# the complete homogeneous Hecke lifts


def hecke_homog(n: int, group: str, p: int) -> HeckeElem:
    """Unique spherical operator with Satake value the degree-n complete
    homogeneous sum of the parameters: recursion h_n = (T/p) h_(n-1) - S h_(n-2).
    Only meaningful for the inert tags."""
    if group not in ("inert_F", "gstar_inert"):
        raise ValueError("complete homogeneous lifts are used in the inert setting")
    if n < 0:
        return HeckeElem.zero(group)
    a, b = HeckeElem.one(group), HeckeElem.zero(group)  # h_0, h_-1
    if n == 0:
        return a
    T = HeckeElem.gen(group, "T")
    S = HeckeElem.gen(group, "S")
    for _ in range(n):
        a, b = T * a * Fraction(1, p) - S * b, a
    return a


# ---------------------------------------------------------------------------
# Euler polynomials


@dataclass
class EulerPoly:
    """Polynomial in X with Hecke-operator coefficients; constant term 1.

    Each derived value (at_one, involute_at_one, satake_in_x) is built at
    most once per instance and kept on it, so coeffs must not change."""

    group: str
    coeffs: list  # HeckeElem, degree 0 first
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coeffs[0] != HeckeElem.one(self.group):
            raise ValueError("an Euler polynomial has constant term 1")

    def _once(self, key, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def at_one(self) -> HeckeElem:
        return self._once("at_one", lambda: sum(self.coeffs, HeckeElem.zero(self.group)))

    def involute(self) -> "EulerPoly":
        return EulerPoly(self.group, [involution(c) for c in self.coeffs])

    def involute_at_one(self) -> HeckeElem:
        return self._once("involute_at_one", lambda: self.involute().at_one())

    def satake_in_x(self, p: int) -> Lau:
        """Theta applied coefficientwise, as a polynomial in X over the
        symmetric coordinates."""
        return self._once(("satake_in_x", p), lambda: self._satake_in_x(p))

    def _satake_in_x(self, p: int) -> Lau:
        first = satake(self.coeffs[0], p)
        xvars = first.vars + ("X",)
        out = Lau(xvars)
        for k, c in enumerate(self.coeffs):
            sc = satake(c, p).extend_vars(xvars)
            out = out + sc * Lau.var(xvars, "X") ** k
        return out

    def to_json(self) -> dict:
        return {"group": self.group, "coeffs": [c.to_json() for c in self.coeffs]}


def gstar_gen(name: str, group: str, p: int) -> HeckeElem:
    """G* generators in their carried representation.

    T*(p) and S*(p) are T, S (inert) or T1 T2, S1 S2 (split); T*(p^2) is
    the full determinant-valuation-2 operator: T^2 - p^2 S (inert) or
    (T1^2 - p S1)(T2^2 - p S2) (split).
    """
    if group == "gstar_inert":
        T = HeckeElem.gen(group, "T")
        S = HeckeElem.gen(group, "S")
        if name == "Tstar":
            return T
        if name == "Sstar":
            return S
        if name == "T2star":
            return T * T - S * (p ** 2)
    elif group == "gstar_split":
        T1 = Lau.var(SPLIT_VARS, "T1")
        S1 = Lau.var(SPLIT_VARS, "S1")
        T2 = Lau.var(SPLIT_VARS, "T2")
        S2 = Lau.var(SPLIT_VARS, "S2")
        if name == "Tstar":
            return HeckeElem(group, T1 * T2)
        if name == "Sstar":
            return HeckeElem(group, S1 * S2)
        if name == "T2star":
            return HeckeElem(group, (T1 * T1 - p * S1) * (T2 * T2 - p * S2))
    raise ValueError(f"unknown G* generator {name!r} for {group!r}")


@lru_cache(maxsize=None)
def euler_poly(kind: str, p: int) -> EulerPoly:
    """The local Euler factor polynomials, built once per (kind, p) and
    shared: treat the result as immutable.

    asai_inert      (1 - (1/p) T X + S X^2)(1 - S X^2) in H(GL2(F));
    standard_F      1 - (1/p) T X + S X^2;
    asai_star_inert the same shape on G*;
    asai_star_split the degree-4 G* factor with the T*(p^2) middle term;
    rs_split        the Rankin-Selberg factor, defined through the
                    interpolation property Theta(P)(p^-s) = L(pi1 x pi2, s)^-1.
    """
    _check_prime(p)
    if kind in ("asai_inert", "asai_star_inert"):
        group = "inert_F" if kind == "asai_inert" else "gstar_inert"
        one = HeckeElem.one(group)
        T = HeckeElem.gen(group, "T")
        S = HeckeElem.gen(group, "S")
        return EulerPoly(
            group,
            [one, T * Fraction(-1, p), HeckeElem.zero(group), T * S * Fraction(1, p), -(S * S)],
        )
    if kind == "standard_F":
        group = "inert_F"
        one = HeckeElem.one(group)
        T = HeckeElem.gen(group, "T")
        S = HeckeElem.gen(group, "S")
        return EulerPoly(group, [one, T * Fraction(-1, p), S])
    if kind == "rs_split":
        group = "split_pair"
        one = HeckeElem.one(group)
        T1 = HeckeElem.gen(group, "T1")
        S1 = HeckeElem.gen(group, "S1")
        T2 = HeckeElem.gen(group, "T2")
        S2 = HeckeElem.gen(group, "S2")
        return EulerPoly(
            group,
            [
                one,
                T1 * T2 * Fraction(-1, p),
                (T1 * T1 * S2 + S1 * T2 * T2) * Fraction(1, p) - 2 * S1 * S2,
                T1 * T2 * S1 * S2 * Fraction(-1, p),
                S1 * S1 * S2 * S2,
            ],
        )
    if kind == "asai_star_split":
        group = "gstar_split"
        one = HeckeElem.one(group)
        Ts = gstar_gen("Tstar", group, p)
        Ss = gstar_gen("Sstar", group, p)
        T2s = gstar_gen("T2star", group, p)
        return EulerPoly(
            group,
            [
                one,
                Ts * Fraction(-1, p),
                Ts * Ts * Fraction(1, p ** 2) - T2s * Fraction(1, p ** 2) - Ss,
                Ss * Ts * Fraction(-1, p),
                Ss * Ss,
            ],
        )
    raise ValueError(f"unknown Euler polynomial kind {kind!r}")


# ---------------------------------------------------------------------------
# iota: G* Hecke algebra into the Res(GL2) Hecke algebra


def iota_embed(h: HeckeElem) -> HeckeElem:
    """ch(K* g K*) -> ch(K g K); in the carried coordinates this is a retag
    (the split balanced subalgebra sits inside the split pair algebra)."""
    if h.group == "gstar_inert":
        return HeckeElem("inert_F", h.poly)
    if h.group == "gstar_split":
        return HeckeElem("split_pair", h.poly)
    raise ValueError("iota_embed expects a G* element")


def iota_solve(h: HeckeElem) -> HeckeElem:
    """Inverse of iota_embed on its image; NotInImage otherwise."""
    if h.group == "inert_F":
        return HeckeElem("gstar_inert", h.poly)
    if h.group == "split_pair":
        for e in h.poly.int_terms()[0]:
            if e[0] + 2 * e[1] != e[2] + 2 * e[3]:
                raise NotInImage(f"monomial {e} is not determinant balanced")
        return HeckeElem("gstar_split", h.poly)
    raise ValueError("iota_solve expects a big-group element")


# ---------------------------------------------------------------------------
# ideal membership certificates


@dataclass(frozen=True)
class HeckeIdealCert:
    """P = gen1 * U + Q * V, checked by exact re-expansion when it is built:
    a failure raises NotMember carrying the remainder, so every certificate
    that exists is verified."""

    target: HeckeElem
    gen1_kind: str  # "p-1" or "(p-1)(1-S)"
    Q: HeckeElem
    U: HeckeElem
    V: HeckeElem
    p: int
    verified = True  # a class constant, not a field

    def __post_init__(self):
        expanded = self.gen1() * self.U + self.Q * self.V
        if self.target != expanded:
            raise NotMember("the cofactors do not re-expand to the target", self.target - expanded)

    def gen1(self) -> HeckeElem:
        group = self.target.group
        if self.gen1_kind == "p-1":
            return HeckeElem.one(group) * (self.p - 1)
        one = HeckeElem.one(group)
        S = HeckeElem.gen(group, "S")
        return (one - S) * (self.p - 1)

    def to_json(self) -> dict:
        return {
            "target": self.target.to_json(),
            "ideal": [self.gen1_kind, self.Q.to_json()],
            "U": self.U.to_json(),
            "V": self.V.to_json(),
            "verified": self.verified,
        }


def _mod(f: Lau, m: int) -> Lau:
    """Coefficients reduced into [0, m), m = p - 1: p = 1 mod m, so p-power
    denominators are units."""
    nums, den = f.int_terms()
    inv = pow(den, -1, m)
    return Lau.from_ints(f.vars, {e: c * inv % m for e, c in nums.items()})


def _lift(f: Lau, m: int) -> Lau:
    """The balanced lift of residues mod m (integers in [0, m)) into (-m/2, m/2]."""
    return Lau.from_ints(f.vars, {e: c - m if c > m // 2 else c for e, c in f.int_terms()[0].items()})


def _mod_divide_principal(P: Lau, Q: Lau, i: int, m: int):
    """Divide P by Q in the Laurent ring (Z/m)[gens^+-] along variable i.

    P carries residues in [0, m), Q integer coefficients read mod m.
    Requires the leading coefficient of Q in that variable to be a single
    monomial with a unit coefficient mod m (then division with remainder is
    unique since that leading unit makes Q regular).  Returns (quotient,
    remainder) or None when the leading-unit test fails.
    """
    if Q.is_zero():
        raise ZeroDivisionError
    if P.is_zero():
        return P, P
    # a monomial is a unit of the Laurent ring: divide the polynomial parts,
    # as {exponent: residue} dicts
    Ps, sp = P.shift_to_poly()
    Qs, sq = Q.shift_to_poly()
    qs = {e: c % m for e, c in Qs.int_terms()[0].items()}
    dq = max(e[i] for e in qs)
    lead = [(e, c) for e, c in qs.items() if e[i] == dq]
    if len(lead) != 1:
        return None
    ((lexp, lcoef),) = lead
    try:
        linv = pow(lcoef, -1, m)
    except ValueError:
        return None
    quot = {}
    rem = dict(Ps.int_terms()[0])
    while rem:
        dr = max(e[i] for e in rem)
        if dr < dq:
            break
        e = min(e for e in rem if e[i] == dr)
        c = rem[e] * linv % m
        shift = tuple(x - y for x, y in zip(e, lexp))
        quot[shift] = c
        for eq, cq in qs.items():
            k = tuple(x + y for x, y in zip(eq, shift))
            r = (rem.get(k, 0) - cq * c) % m
            if r:
                rem[k] = r
            else:
                rem.pop(k, None)

    def shifted(terms, s):
        return Lau.from_ints(P.vars, {tuple(x + y for x, y in zip(e, s)): c for e, c in terms.items()})

    return shifted(quot, tuple(a - b for a, b in zip(sp, sq))), shifted(rem, sp)


def ideal_cert(P: HeckeElem, gen1_kind: str, Q: HeckeElem, p: int) -> HeckeIdealCert:
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
        inner = ideal_cert(P1, "p-1", Q1, p)
        return HeckeIdealCert(P, gen1_kind, Q, inner.U, inner.V, p)

    if gen1_kind != "p-1":
        raise ValueError(f"unknown ideal kind {gen1_kind!r}")

    Pm = _mod(P.poly, m)
    Q1 = _mod(Q.poly, m)
    V = HeckeElem.zero(group)
    if Q1.is_zero():
        if not Pm.is_zero():
            raise NotMember("Q vanishes mod p-1 but P does not", P)
    else:
        # Q = (1 - S)^j Q1 mod m, and P must carry the same factor
        one_minus_s = 1 - Lau.var(vs, vs[1])
        j = 0
        while True:
            q, r = _mod_divide_principal(Q1, one_minus_s, 1, m)
            if not r.is_zero():
                break
            Q1, j = q, j + 1
        for _ in range(j):
            q, r = _mod_divide_principal(Pm, one_minus_s, 1, m)
            if not r.is_zero():
                raise NotMember("target lacks the (1 - S) factor mod p-1", HeckeElem(group, _lift(Pm, m)))
            Pm = q
        # divide along a T generator (even index): T, or T1 and then T2
        for i in range(0, len(vs), 2):
            res = _mod_divide_principal(Pm, Q1, i, m)
            rem = None if res is None else res[1]
            if rem is not None and rem.is_zero():
                break
        else:
            raise NotMember("nonzero remainder mod p-1", None if rem is None else HeckeElem(group, _lift(rem, m)))
        # a quotient of balanced by balanced is balanced, as gstar_split needs
        V = HeckeElem(group, _lift(res[0], m))
    return HeckeIdealCert(P, gen1_kind, Q, divide_exact_int(P - Q * V, m, p), V, p)


def divide_exact_int(W: HeckeElem, m: int, p: int) -> HeckeElem:
    """W / m, with NotMember unless every quotient coefficient is in Z[1/p]."""
    nums, den = W.poly.int_terms()
    q = Lau.from_ints(W.poly.vars, nums, den * m)
    if not q.coeffs_in_z_inv_p(p):
        raise NotMember(f"coefficient not divisible by {m}", W)
    return HeckeElem(W.group, q)
