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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import INF, QuadCtx, QuadElem, fr_to_str, is_odd_prime, is_qr, val_p
from .heckealg import euler_poly
from .heckemod import TestVector, period_value, trace_level, vector_is_integral


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient field Q(sqrt r)


@dataclass(frozen=True)
class CoefField:
    """The coefficient field Q(sqrt r): r squarefree and not 1, or r = 0 for
    Q.  Unlike QuadCtx it has no prime: r is arbitrary."""

    r: int


class CoefElem(QuadElem):
    """(x + y sqrt r) / d in the coefficient field: QuadElem's arithmetic
    over a CoefField context."""

    __slots__ = ()

    def is_algebraic_integer(self) -> bool:
        return 2 * self.x % self.d == 0 and self.norm().denominator == 1

    def __repr__(self):
        return fr_to_str(self.a) if self.y == 0 else super().__repr__()

    def to_json(self):
        return fr_to_str(self.a) if self.y == 0 else {"a": fr_to_str(self.a), "b": fr_to_str(self.b)}

    @classmethod
    def from_json(cls, v, ctx: CoefField) -> "CoefElem":
        if isinstance(v, str):
            return cls(Fraction(v), 0, ctx)
        b = Fraction(v.get("b", 0))
        if b and not ctx.r:
            raise ValueError("rational field has no sqrt part")
        return cls(Fraction(v["a"]), b, ctx)


def ell_adic_valuation(x: CoefElem, ell: int):
    """Normalized valuation of x = (a + b sqrt r) / d at a place v | l of
    Q(sqrt r), for the integers a, b, d of x.

    Split l: v(x) = v_l(a + b s) - v_l(d) for a Hensel lift s of sqrt(r) (the
    conjugate place values x as this one values x.conj());
    inert l: min(v_l(a), v_l(b)) - v_l(d); ramified l | r: v(sqrt r) = 1, v(l) = 2.
    """
    if ell == 2:
        raise ValueError("l = 2 is excluded by the running hypotheses")
    a, b, r, vd = x.x, x.y, x.ctx.r, val_p(x.d, ell)
    if r and r % ell == 0:
        return min(2 * val_p(a, ell), 2 * val_p(b, ell) + 1) - 2 * vd
    if b == 0 or not is_qr(r, ell):
        return min(val_p(a, ell), val_p(b, ell)) - vd
    # split: a valuation at one place is at most v_l(a^2 - r b^2), so sqrt(r)
    # one digit deeper reads it off
    k = val_p(a * a - r * b * b, ell) + 1
    return val_p((a + b * _sqrt_mod_lk(r, ell, k)) % ell ** k, ell) - vd


def _sqrt_mod_lk(r: int, ell: int, k: int) -> int:
    """The root of r mod l^k that lifts the least root mod l (Newton)."""
    s, m = next(t for t in range(ell) if (t * t - r) % ell == 0), ell ** k
    for _ in range(k):
        s = (s - (s * s - r) * pow(2 * s, -1, m)) % m
    return s


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
    field: CoefField
    primes: dict[int, PrimePlaceData]
    label: str = ""
    synthetic: bool = True

    @property
    def w(self) -> int:
        return self.k[0] + 2 * self.t[0]

    def epsilon_at(self, p: int) -> CoefElem:
        """The central character on a uniformizer above p (product of the
        places when p splits): q^(w-2) times the finite-order part, which is
        p^(2(w-2)) omega(pi_p) either way."""
        return self.omega_at(p) * p ** (2 * (self.w - 2))

    def omega_at(self, p: int) -> CoefElem:
        return math.prod(self.primes[p].omega, start=CoefElem(1, 0, self.field))


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
        if d in (0, 1) or any(d % (q * q) == 0 for q in range(2, math.isqrt(abs(d)) + 1)):
            raise SchemaError("d must be squarefree and not a square")
    field = CoefField(d or 0)
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
        lam = [CoefElem.from_json(v, field) for v in rec["lambda"]]
        om = [CoefElem.from_json(v, field) for v in rec["omega"]]
        want = 1 if kind == "inert" else 2
        if len(lam) != want or len(om) != want:
            raise SchemaError(f"wrong number of place entries at {p}")
        for o in om:
            if o * o != 1 and o * o * o * o != 1:
                raise SchemaError("omega values must be finite order (order dividing 4 here)")
        primes[p] = PrimePlaceData(kind, lam, om)
    return EigenformData(
        int(doc.get("field_disc", 0)),
        int(doc.get("level_norm", 1)),
        k,
        t,
        field,
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
    scale = p ** (2 * (data.w - 2))
    if pd.kind == "inert":
        # q^(w-2) eps(pi) with q = p^2
        places = [(pd.lam[0], data.epsilon_at(p) * scale)]
    else:
        # per place p^(w-2) eps_v, with eps_v = p^(w-2) omega_v
        places = [(lam, om * scale) for lam, om in zip(pd.lam, pd.omega)]
    if not all(x.is_algebraic_integer() for place in places for x in place):
        raise ValueError("spherical eigenvalue is not an algebraic integer")
    if pd.kind == "inert":
        return SatakeData("inert", {"e1": places[0][0] / p, "e2": places[0][1]})
    vals = {}
    for i, (lam, s_eig) in enumerate(places, 1):
        vals[f"e1_{i}"], vals[f"e2_{i}"] = lam, s_eig * p
    return SatakeData("split", vals)


def tate_factor_inverse(data: EigenformData, p: int) -> CoefElem:
    """L_p(eps_f, 0)^(-1) = 1 - eps_f(pi_p)."""
    return 1 - data.epsilon_at(p)


def tate_identity_check(data: EigenformData, p: int) -> bool:
    """1 - eps(pi_p) = (1 - omega(pi_p)) - (p^(2(w-2)) - 1) omega(pi_p)."""
    om = data.omega_at(p)
    return tate_factor_inverse(data, p) == (1 - om) - om * (p ** (2 * (data.w - 2)) - 1)


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
    point = dict(sat.values)
    point["X"] = CoefElem(x, 0, data.field)
    return euler_poly(kind, p).satake_in_x(p).eval(point)


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

    local_inputs entries: {"p": prime, "phi": SchwartzFn, "g": (g,) inert
    or (g1, g2) split, "level": "K" | "K[p]"}; primes not listed contribute
    the unramified value 1.  S0 must consist of primes = 1 mod l carrying
    determinant level data.  The class-number coprimality is an assertion of
    the caller (assume_class_coprime), not something this package computes.
    """
    if not is_odd_prime(ell):
        raise ValueError(f"l = {ell} is not an odd prime (l = 2 lies in the excluded set S)")
    if data.level_norm % ell == 0:
        raise ValueError("l must not divide the level norm")
    F = data.field
    S0 = sorted(set(S0))
    for p in S0:
        if (p - 1) % ell != 0:
            raise ValueError(f"{p} is not 1 mod {ell}")
    value = CoefElem(1, 0, F)
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
        if p in S0 and not items:
            raise ValueError(f"{p} in S0 needs determinant-level data")
        phi0_nonzero = False
        zval = CoefElem(1, 0, F)
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
            phi0_nonzero = any(phi.value_at(0, 0) != 0 for phi, _, _ in vec.summands)
            if p in S0 and level != "K[p]":
                raise ValueError(f"{p} in S0 needs determinant-level data")
            # the period pairs with the traced (full-level) vector
            sym = period_value(trace_level(vec) if level == "K[p]" else vec).normalized()
            # a constant period evaluates to a Fraction: coerce into the field
            zval = CoefElem(0, 0, F) + sym.eval(sat.values)
        tate = False
        if p in S0 and phi0_nonzero and not assume_class_coprime:
            if data.epsilon_at(p) == 1:
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
            va = ell_adic_valuation(CoefElem(p - 1, 0, F), ell)
            vb = ell_adic_valuation(linv, ell)
            expo = min(va, vb)
            rep["v(p-1)"], rep["v(L_inverse)"], rep["ideal_exponent"] = _v_str(va), _v_str(vb), _v_str(expo)
            exponents_total += expo  # expo <= v(p - 1), finite
        reports.append(rep)
    vval = ell_adic_valuation(value, ell)
    ok = vval >= exponents_total
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
