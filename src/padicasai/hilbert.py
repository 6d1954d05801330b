"""Hilbert eigenform Hecke data and the l-adic period ideal check.

The eigenform is pure data (this package computes no modular forms): for
each requested prime it carries the Hecke eigenvalues per place and the
finite-order part of the central character.  The local engines specialize
their symbolic period values at the Satake data derived from that input,
and the product is tested for membership in the product ideal

    prod_(p in S0) < p - 1, L_p^As(f, 1 - (t1 + t2))^(-1) >

read locally at a fixed place v | l of the coefficient field (degree at
most 2 over Q; larger fields are rejected rather than approximated).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import INF, QuadCtx, fr_mod, is_odd_prime, val_p
from .heckealg import euler_poly
from .heckemod import TestVector, normalized_period, trace_level, vector_is_integral


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient field Q(sqrt d)


class CoefElem:
    """a + b sqrt(d) in the coefficient field (d squarefree, possibly None
    for Q).  Separate from the p-adic quadratic context: d is arbitrary."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int | None = None):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d
        if d is None and self.b:
            raise ValueError("rational field has no sqrt part")

    def _coerce(self, other) -> "CoefElem":
        if isinstance(other, CoefElem):
            if other.d != self.d and other.b:
                raise ValueError("mixed coefficient fields")
            return CoefElem(other.a, other.b, self.d)
        return CoefElem(Fraction(other), 0, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return CoefElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return CoefElem(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return CoefElem(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.d if self.d is not None else o.d
        dd = d if d is not None else 0
        return CoefElem(self.a * o.a + dd * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inv(self) -> "CoefElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return CoefElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def conj(self) -> "CoefElem":
        return CoefElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - (self.d or 0) * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_algebraic_integer(self) -> bool:
        if self.d is None or self.b == 0:
            return self.a.denominator == 1
        return self.trace().denominator == 1 and self.norm().denominator == 1

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.d is None or self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}*sqrt{self.d})"

    @classmethod
    def from_json(cls, v, d: int | None) -> "CoefElem":
        if isinstance(v, str):
            return cls(Fraction(v), 0, d)
        return cls(Fraction(v["a"]), Fraction(v.get("b", 0)), d)

    def to_json(self):
        if self.d is None or self.b == 0:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b)}


def ell_adic_valuation(x: CoefElem, ell: int):
    """Normalized valuation of x at a place v | l of Q(sqrt d).

    Split l: v(x) = v_l(a + b s) for a Hensel lift s of sqrt(d) (the
    conjugate place values x as this one values x.conj());
    inert l: min(v_l(a), v_l(b)); ramified l | d: v(sqrt d) = 1, v(l) = 2.
    """
    if x.is_zero():
        return INF
    d = x.d
    if d is None or x.b == 0:
        return val_p(x.a, ell)
    if ell == 2:
        raise ValueError("l = 2 is excluded by the running hypotheses")
    dm = d % ell
    if dm == 0:
        # ramified: v(a + b sqrt d) = min(2 v(a), 2 v(b) + 1)
        va = val_p(x.a, ell)
        vb = val_p(x.b, ell)
        cands = []
        if va != INF:
            cands.append(2 * int(va))
        if vb != INF:
            cands.append(2 * int(vb) + 1)
        return min(cands)
    if pow(dm, (ell - 1) // 2, ell) != 1:
        # inert
        return min(val_p(x.a, ell), val_p(x.b, ell))
    # split: scale to an l-integral element, whose valuation at one place is
    # bounded by v(Norm), then read it off a deep enough Hensel lift
    va = val_p(x.a, ell)
    vb = val_p(x.b, ell)
    m = max(0, -int(min(v for v in (va, vb) if v != INF)))
    xs = CoefElem(x.a * Fraction(ell) ** m, x.b * Fraction(ell) ** m, d)
    n = int(val_p(xs.norm(), ell))
    K = n + 2
    rep = fr_mod(xs.a + xs.b * _sqrt_mod_lk(d, ell, K), ell, K)
    if rep == 0:
        raise AssertionError("valuation exceeded its norm bound")
    return int(val_p(Fraction(rep), ell)) - m


def _sqrt_mod_lk(d: int, ell: int, k: int) -> int:
    r = None
    for t in range(ell):
        if (t * t - d) % ell == 0:
            r = t
            break
    if r is None:
        raise ValueError("d is not a square mod l")
    modulus = ell
    while modulus < ell ** k:
        modulus *= ell
        # Newton: r <- r - (r^2 - d)/(2r)
        inv = pow(2 * r % modulus, -1, modulus)
        r = (r - (r * r - d) * inv) % modulus
    return r % ell ** k


# ---------------------------------------------------------------------------
# eigenform data


@dataclass
class PrimePlaceData:
    kind: str  # "inert" or "split"
    lam: list  # CoefElem per place above p
    omega: list  # finite-order central character values per place


@dataclass
class EigenformData:
    field_disc: int
    level_norm: int
    k: tuple[int, int]
    t: tuple[int, int]
    d: int | None
    primes: dict[int, PrimePlaceData]
    label: str = ""
    synthetic: bool = True

    @property
    def w(self) -> int:
        return self.k[0] + 2 * self.t[0]

    def epsilon_at(self, p: int) -> CoefElem:
        """The central character on a uniformizer above p (product of the
        places when p splits): q^(w-2) times the finite-order part."""
        pd = self.primes[p]
        w = self.w
        if pd.kind == "inert":
            q = p * p
            return CoefElem(Fraction(q) ** (w - 2), 0, self.d) * pd.omega[0]
        out = CoefElem(1, 0, self.d)
        for om in pd.omega:
            out = out * (CoefElem(Fraction(p) ** (w - 2), 0, self.d) * om)
        return out

    def omega_at(self, p: int) -> CoefElem:
        pd = self.primes[p]
        out = CoefElem(1, 0, self.d)
        for om in pd.omega:
            out = out * om
        return out


def ingest(doc: Mapping) -> EigenformData:
    """Validate and load an eigenform record (schema version 1)."""
    if doc.get("schema") != 1:
        raise SchemaError("unknown schema version")
    k = tuple(int(x) for x in doc["weights"]["k"])
    t = tuple(int(x) for x in doc["weights"]["t"])
    if len(k) != 2 or len(t) != 2 or min(k) < 2 or min(t) < 0:
        raise SchemaError("weights out of range")
    if k[0] + 2 * t[0] != k[1] + 2 * t[1]:
        raise SchemaError("weight parity k1 + 2 t1 = k2 + 2 t2 fails")
    d = doc["coefficient_field"].get("d")
    if d is not None:
        d = int(d)
        if d in (0, 1) or any(d % (q * q) == 0 for q in range(2, abs(d)) if q * q <= abs(d)):
            raise SchemaError("d must be squarefree and not a square")
    if not isinstance(doc["primes"], Mapping):
        raise SchemaError("primes must be an object")
    primes = {}
    for key, rec in doc["primes"].items():
        p = int(key)
        kind = rec["type"]
        if kind not in ("inert", "split"):
            raise SchemaError(f"bad splitting type at {p}")
        if not (isinstance(rec["lambda"], list) and isinstance(rec["omega"], list)):
            raise SchemaError(f"lambda and omega at {p} must be lists")
        lam = [CoefElem.from_json(v, d) for v in rec["lambda"]]
        om = [CoefElem.from_json(v, d) for v in rec["omega"]]
        want = 1 if kind == "inert" else 2
        if len(lam) != want or len(om) != want:
            raise SchemaError(f"wrong number of place entries at {p}")
        for o in om:
            if (o * o != CoefElem(1, 0, d)) and (o * o * o * o != CoefElem(1, 0, d)):
                raise SchemaError("omega values must be finite order (order dividing 4 here)")
        primes[p] = PrimePlaceData(kind, lam, om)
    return EigenformData(
        int(doc.get("field_disc", 0)),
        int(doc.get("level_norm", 1)),
        k,
        t,
        d,
        primes,
        doc.get("label", ""),
        bool(doc.get("synthetic", True)),
    )


def load_fixture(name: str = "synthetic_w2") -> EigenformData:
    from importlib import resources

    with resources.files("padicasai.data").joinpath(f"{name}.json").open() as f:
        return ingest(json.load(f))


# ---------------------------------------------------------------------------
# Satake data from eigenvalues


@dataclass
class SatakeData:
    kind: str
    values: dict  # symmetric-coordinate values, CoefElem


def satake_from_eigen(data: EigenformData, p: int) -> SatakeData:
    """Symmetric-coordinate Satake values at p: the parameters are the
    roots of X^2 - lambda X + q^(w-1) eps(pi), Hecke-normalized, and only
    their sum and product enter any computed quantity.

    Verifies that the spherical eigenvalues lambda and q^(w-2) eps(pi) are
    algebraic integers.
    """
    if p not in data.primes:
        raise KeyError(f"no eigenvalue data at {p}")
    pd = data.primes[p]
    w = data.w
    d = data.d
    if pd.kind == "inert":
        q = p * p
        lam = pd.lam[0]
        eps = CoefElem(Fraction(q) ** (w - 2), 0, d) * pd.omega[0]
        s_eig = CoefElem(Fraction(q) ** (w - 2), 0, d) * eps
        for x in (lam, s_eig):
            if not x.is_algebraic_integer():
                raise ValueError("spherical eigenvalue is not an algebraic integer")
        return SatakeData(
            "inert",
            {"e1": lam / CoefElem(p, 0, d), "e2": s_eig},
        )
    vals = {}
    for i in range(2):
        lam = pd.lam[i]
        eps_v = CoefElem(Fraction(p) ** (w - 2), 0, d) * pd.omega[i]
        s_eig = CoefElem(Fraction(p) ** (w - 2), 0, d) * eps_v
        for x in (lam, s_eig):
            if not x.is_algebraic_integer():
                raise ValueError("spherical eigenvalue is not an algebraic integer")
        vals[f"e1_{i+1}"] = lam
        vals[f"e2_{i+1}"] = CoefElem(p, 0, d) * s_eig
    return SatakeData("split", vals)


def tate_factor_inverse(data: EigenformData, p: int) -> CoefElem:
    """L_p(eps_f, 0)^(-1) = 1 - eps_f(pi_p)."""
    return CoefElem(1, 0, data.d) - data.epsilon_at(p)


def tate_identity_check(data: EigenformData, p: int) -> bool:
    """1 - eps(pi_p) = (1 - omega(pi_p)) - (p^(2(w-2)) - 1) omega(pi_p)."""
    w = data.w
    om = data.omega_at(p)
    lhs = tate_factor_inverse(data, p)
    rhs = (CoefElem(1, 0, data.d) - om) - om * (Fraction(p) ** (2 * (w - 2)) - 1)
    return lhs == rhs


def asai_artin_value(data: EigenformData, p: int, s0: int) -> CoefElem:
    """P_p^As(f, p^(-s0)), through the representation-side Euler polynomial
    and the shift X_artin = X_rep * p^(1 - t1 - t2)."""
    shift = 1 - (data.t[0] + data.t[1])
    x = Fraction(p) ** (-s0 + shift)
    return rep_side_asai_inverse(data, p, x)


def asai_shift_identity_check(data: EigenformData, p: int) -> bool:
    """L_p^As(Pi_f, s) = L_p^As(f, 1 + s - (t1 + t2)) at several integers s."""
    for s in (0, 1, 2):
        rep = rep_side_asai_inverse(data, p, Fraction(p) ** (-s))
        artin = asai_artin_value(data, p, 1 + s - (data.t[0] + data.t[1]))
        if rep != artin:
            return False
    return True


def rep_side_asai_inverse(data: EigenformData, p: int, x: Fraction) -> CoefElem:
    """Theta(P_As)(x) (inert) or Theta(P_rs)(x) (split), specialized."""
    sat = satake_from_eigen(data, p)
    kind = "asai_inert" if sat.kind == "inert" else "rs_split"
    ep = euler_poly(kind, p)
    sym_x = ep.satake_in_x(p)
    point = dict(sat.values)
    point["X"] = CoefElem(x, 0, data.d)
    return sym_x.eval(point)


# ---------------------------------------------------------------------------
# the period ideal check


def period_ideal_check(
    data: EigenformData,
    local_inputs: Sequence[Mapping],
    S0: Sequence[int],
    ell: int,
    assume_class_coprime: bool = False,
) -> dict:
    """Evaluate the product of normalized local periods on the given data
    and decide membership in the stated product ideal.

    local_inputs entries: {"p": prime, "phi": SchwartzFn, "g": Mat2 or pair,
    "level": "K" | "K[p]"}; primes not listed contribute the unramified
    value 1.  S0 must consist of primes = 1 mod l carrying determinant
    level data.  The class-number coprimality is an assertion of the
    caller (assume_class_coprime), not something this package computes.
    """
    if not is_odd_prime(ell):
        raise ValueError(f"l = {ell} is not an odd prime (l = 2 lies in the excluded set S)")
    if data.level_norm % ell == 0:
        raise ValueError("l must not divide the level norm")
    d = data.d
    S0 = sorted(set(S0))
    for p in S0:
        if (p - 1) % ell != 0:
            raise ValueError(f"{p} is not 1 mod {ell}")
    value = CoefElem(1, 0, d)
    reports = []
    by_p: dict[int, list] = {}
    for item in local_inputs:
        by_p.setdefault(int(item["p"]), []).append(item)
    exponents_total = 0
    for p in sorted(set(list(by_p) + list(S0))):
        if p == ell or p == 2:
            raise ValueError(f"{p} lies in the excluded set S")
        sat = satake_from_eigen(data, p)
        items = by_p.get(p, [])
        phi0_nonzero = False
        zval = CoefElem(1, 0, d)
        if items:
            ctx = QuadCtx.make(p)
            level = items[0]["level"]
            if any(it["level"] != level for it in items):
                raise ValueError("mixed levels at one prime")
            # an unknown level or a g of the wrong shape for the splitting
            # type fails here, before any stabilizer is computed
            vec = TestVector(ctx, sat.kind, level, [(it["phi"], it["g"], Fraction(1)) for it in items])
            if not vector_is_integral(vec):
                raise ValueError(f"input at {p} fails the integrality precondition")
            phi0_nonzero = any(phi.value_at(0, 0) != 0 for phi, _, _ in vec.terms)
            if p in S0 and level != "K[p]":
                raise ValueError(f"{p} in S0 needs determinant-level data")
            # the period pairs with the traced (full-level) vector
            sym = normalized_period(trace_level(vec) if level == "K[p]" else vec)
            # a constant period evaluates to a Fraction: coerce into the field
            zval = CoefElem(0, 0, d) + sym.eval(sat.values)
        tate = False
        if p in S0 and phi0_nonzero and not assume_class_coprime:
            eps = data.epsilon_at(p)
            if eps == CoefElem(1, 0, d):
                raise ValueError(f"eps(pi_{p}) = 1 with phi_p(0,0) != 0 is excluded")
            value = value * tate_factor_inverse(data, p)
            tate = True
        value = value * zval
        rep = {
            "p": p,
            "kind": sat.kind,
            "zeta_value": zval.to_json(),
            "in_S0": p in S0,
            "tate_applied": tate,
            "v(p-1)": None,
            "v(L_inverse)": None,
            "ideal_exponent": None,
        }
        if p in S0:
            linv = rep_side_asai_inverse(data, p, Fraction(1))
            va = ell_adic_valuation(CoefElem(p - 1, 0, d), ell)
            vb = ell_adic_valuation(linv, ell) if not linv.is_zero() else INF
            expo = min(va, vb)
            rep["v(p-1)"], rep["v(L_inverse)"], rep["ideal_exponent"] = _v_str(va), _v_str(vb), _v_str(expo)
            exponents_total += 0 if expo == INF else expo
        reports.append(rep)
    vval = ell_adic_valuation(value, ell) if not value.is_zero() else INF
    ok = vval == INF or vval >= exponents_total
    return {
        "ell": ell,
        "value": value.to_json(),
        "v(value)": _v_str(vval),
        "required_exponent": exponents_total,
        "member": bool(ok),
        "assume_class_coprime": assume_class_coprime,
        "primes": reports,
    }


def _v_str(v):
    return "inf" if v == INF else int(v)
