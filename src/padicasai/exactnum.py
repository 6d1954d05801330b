"""Exact arithmetic foundation.

Everything downstream (matrix decompositions, Hecke algebras, zeta
integrals) is built on the four algebraic layers in this module:

* ``Fraction`` rationals, with p-adic valuations and Z[1/p] membership
  tests;
* ``QuadElem``, elements (x + y*sqrt(r)) / d (integers, lowest terms) of
  a quadratic field over a context holding r: the unramified extension
  F = Q_p(sqrt(r)) of a ``QuadCtx``, and (through ``hilbert.CoefElem``) the
  coefficient field Q(sqrt(r)) of an eigenform;
* ``Lau``, sparse multivariate Laurent polynomials over Q, integer
  numerators over one denominator (the same class carries symmetric
  coordinates, Hecke operators and zeta numerators, told apart only by
  their variable tuples);
* ``RatFunc``, quotients of Laurent polynomials with the denominator kept
  as an explicit multiset of factors of constant term 1: the reduced form
  of a zeta value (carried as a numerator over a fixed L-factor
  denominator) and the values of the Godement section.

The one float is INF = float("inf"), the valuation of 0.  Limits s -> 0 are
taken by exact division followed by evaluation at X = 1 (X stands for p^{-s}).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

INF = float("inf")


class NotSymmetric(AssertionError):
    """Input polynomial is not invariant under the required variable swap."""


class NotDivisible(AssertionError):
    """Exact division failed (a denominator factor does not cancel)."""


class NotInImage(AssertionError):
    """Symmetric expression is not in the image of the Satake transform."""


class PrecisionOverflow(RuntimeError):
    """A computation would read lines or build cells above the work cap,
    whitzeta.WORK_CAP, or print an integer past the interpreter's digit limit."""


# ---------------------------------------------------------------------------
# rationals


def val_p(x, p: int):
    """p-adic valuation of a Fraction, int or QuadElem; val_p(0) = +inf.

    For a QuadElem a + b*sqrt(r) of the unramified extension this is
    min(v_p(a), v_p(b)).
    """
    if isinstance(x, QuadElem):
        if not isinstance(x.ctx, QuadCtx):  # a CoefElem: min(v(a), v(b)) is no valuation at l
            raise TypeError("val_p needs a QuadElem over Q_p; use hilbert.ell_adic_valuation")
        return x.val() if p == x.ctx.p else min(val_p(x.a, p), val_p(x.b, p))
    if isinstance(x, int):
        return _vint(x, p) if x else INF
    x = Fraction(x)
    if x == 0:
        return INF
    return _vint(x.numerator, p) - _vint(x.denominator, p)


def _vint(n: int, p: int) -> int:
    """v_p of a nonzero integer, in O(log v) divisions: one by p per unit up
    to v = 8, then by p, p^2, p^4, .. while they divide and back down the
    same powers, so a valuation of 10^5 costs about 34 divisions, not 10^5."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 8:
            pows = [p]
            while n % pows[-1] == 0:
                n //= pows[-1]
                v += 1 << (len(pows) - 1)
                pows.append(pows[-1] * pows[-1])
            for k in range(len(pows) - 2, -1, -1):
                if n % pows[k] == 0:
                    n //= pows[k]
                    v += 1 << k
            break
    return v


def _vquad(x: int, y: int, p: int):
    """v_p(x + y*sqrt(r)) = min(v_p(x), v_p(y)) for ints, r a unit; INF for 0."""
    g = math.gcd(x, y)
    return _vint(g, p) if g else INF


def in_z_inv_p(x: Fraction, p: int) -> bool:
    """True when x lies in Z[1/p]: its denominator is p^v, v by _vint."""
    d = Fraction(x).denominator
    return d == p ** _vint(d, p)


def fr_mod(x: Fraction, p: int, k: int) -> int:
    """The residue in [0, p^k) of a p-integral Fraction; a denominator
    divisible by p has no inverse mod p^k and raises ValueError, and a p^k
    past the digit limit is refused before it is built."""
    _check_power(p, k)
    m = p ** k
    return x.numerator * pow(x.denominator, -1, m) % m


def is_odd_prime(n: int) -> bool:
    """Trial division: n is an odd prime."""
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def fr_to_str(x, d: int = 1) -> str:
    """x / d in lowest terms as "n" or "n/d", for x an int or Fraction and
    d > 0; a PrecisionOverflow past the interpreter's digit limit."""
    x, d = x.numerator, x.denominator * d
    g = math.gcd(x, d)
    try:
        return str(x // g) if d == g else f"{x // g}/{d // g}"
    except ValueError:
        raise _too_long() from None


def _check_power(b: int, n: int) -> None:
    """A PrecisionOverflow before b ** n is built when it has more digits
    than the interpreter's limit L: |b^n| >= 2^((bits(b) - 1) |n|) and
    2^(4 L) > 10^L."""
    limit = sys.get_int_max_str_digits()
    if limit and (abs(b).bit_length() - 1) * abs(n) > 4 * limit:
        raise PrecisionOverflow(f"a power to the exponent {n} has more than {limit} digits, the interpreter's limit")


def _too_long() -> PrecisionOverflow:
    limit = sys.get_int_max_str_digits()
    return PrecisionOverflow(f"an output integer has more than {limit} digits, the interpreter's limit")


def quad_json(x: int, y: int, d: int, r: int) -> dict:
    """The JSON form of the field element (x + y sqrt(r)) / d, d > 0."""
    return {"a": fr_to_str(x, d), "b": fr_to_str(y, d), "r": r}


# ---------------------------------------------------------------------------
# the quadratic extension F = Q_p(sqrt(r))


def is_qr(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


def smallest_nonresidue(p: int) -> int:
    for r in range(2, p):
        if not is_qr(r, p):
            return r
    raise ValueError(f"no quadratic non-residue mod {p}")


@dataclass(frozen=True)
class QuadCtx:
    """Fixed data of F = Q_p(sqrt(r)): p odd, r a non-residue unit mod p.

    sqrt(r) has trace zero, so the additive character psi_F(x) =
    psi(Tr(x*sqrt(r))) is trivial on Q_p, which the zeta integrals rely on.
    """

    p: int
    r: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime")
        if self.r % self.p == 0 or is_qr(self.r, self.p):
            raise ValueError(f"r={self.r} is not a non-residue unit mod {self.p}")

    @classmethod
    def make(cls, p: int, r: int | None = None) -> "QuadCtx":
        return cls(p, smallest_nonresidue(p) if r is None else r)

    def sqrt_r(self) -> "QuadElem":
        return QuadElem(0, 1, self)

    def one(self) -> "QuadElem":
        return QuadElem(1, 0, self)

    def zero(self) -> "QuadElem":
        return QuadElem(0, 0, self)

    def elem(self, a, b=0) -> "QuadElem":
        return QuadElem(a, b, self)


class QuadElem:
    """(x + y*sqrt(r)) / d with integers x, y and d > 0, gcd(x, y, d) = 1.

    The form is canonical, so equality and hashing compare integer tuples.
    a and b, the Fraction coordinates of a + b*sqrt(r), are for the edges
    (printing and JSON); the arithmetic reads x, y, d and ctx.r, and keeps
    its operands' class and context.  The p-adic methods (val, is_integral,
    is_unit) read ctx.p and so need a QuadCtx.
    """

    __slots__ = ("x", "y", "d", "ctx")

    def __init__(self, a, b, ctx: QuadCtx):
        if type(a) is int and type(b) is int:
            self.x, self.y, self.d = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            da, db = a.denominator, b.denominator
            d = da * db // math.gcd(da, db)
            # over the least common denominator the form is already canonical
            self.x, self.y, self.d = a.numerator * (d // da), b.numerator * (d // db), d
        self.ctx = ctx

    @classmethod
    def from_ints(cls, x: int, y: int, d: int, ctx) -> "QuadElem":
        """(x + y*sqrt(r)) / d in canonical form, for ints and a nonzero d."""
        if d < 0:
            x, y, d = -x, -y, -d
        elif not d:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(x, y, d)
        q = object.__new__(cls)
        q.x, q.y, q.d, q.ctx = x // g, y // g, d // g, ctx
        return q

    @property
    def a(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.y, self.d)

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("mixed quadratic contexts")
            return other
        return type(self)(other, 0, self.ctx)

    def __add__(self, other):
        o = self._coerce(other)
        if self.d == o.d:
            return _quad(self.x + o.x, self.y + o.y, self.d, self)
        return _quad(self.x * o.d + o.x * self.d, self.y * o.d + o.y * self.d, self.d * o.d, self)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if self.d == o.d:
            return _quad(self.x - o.x, self.y - o.y, self.d, self)
        return _quad(self.x * o.d - o.x * self.d, self.y * o.d - o.y * self.d, self.d * o.d, self)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _quad(-self.x, -self.y, self.d, self)

    def __mul__(self, other):
        o = self._coerce(other)
        x1, y1, x2, y2 = self.x, self.y, o.x, o.y
        return _quad(x1 * x2 + self.ctx.r * y1 * y2, x1 * y2 + y1 * x2, self.d * o.d, self)

    __rmul__ = __mul__

    def inv(self) -> "QuadElem":
        x, y = self.x, self.y
        n = x * x - self.ctx.r * y * y
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        if n < 0:
            n, x, y = -n, -x, -y
        return _quad(self.d * x, -self.d * y, n, self)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def conj(self) -> "QuadElem":
        return _quad(self.x, -self.y, self.d, self)

    def norm(self) -> Fraction:
        return Fraction(self.x * self.x - self.ctx.r * self.y * self.y, self.d * self.d)

    def val(self):
        """min(v(a), v(b)); p divides d or misses one of x, y, as gcd(x, y, d) = 1."""
        p = self.ctx.p
        if self.d % p:
            return min(val_p(self.x, p), val_p(self.y, p))
        return -_vint(self.d, p)

    def is_integral(self) -> bool:
        return self.d % self.ctx.p != 0

    def is_unit(self) -> bool:
        p = self.ctx.p
        return self.d % p != 0 and (self.x % p != 0 or self.y % p != 0)

    def is_rational(self) -> bool:
        return self.y == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other * self.d
        if not isinstance(other, QuadElem):
            return NotImplemented
        return (
            self.x == other.x and self.y == other.y and self.d == other.d
            and (self.ctx is other.ctx or self.ctx == other.ctx)
        )

    def __hash__(self):
        return hash((self.x, self.y, self.d, self.ctx.r))

    def __repr__(self):
        return f"({fr_to_str(self.a)}+{fr_to_str(self.b)}*sqrt{self.ctx.r})"

    def to_json(self) -> dict:
        return quad_json(self.x, self.y, self.d, self.ctx.r)

    @classmethod
    def from_json(cls, d: Mapping, ctx: QuadCtx) -> "QuadElem":
        if not isinstance(d, Mapping):
            raise ValueError(f"a field element is an object {{a, b}}, not {type(d).__name__}")
        if int(d.get("r", ctx.r)) != ctx.r:
            raise ValueError("non-residue mismatch")
        return cls(Fraction(d["a"]), Fraction(d["b"]), ctx)


def _quad(x: int, y: int, d: int, like: QuadElem) -> QuadElem:
    """(x + y*sqrt(r)) / d for d > 0, in lowest terms, of like's class and
    context: the one constructor of internal results."""
    g = math.gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    q = object.__new__(type(like))
    q.x, q.y, q.d, q.ctx = x, y, d, like.ctx
    return q


# ---------------------------------------------------------------------------
# sparse multivariate Laurent polynomials over Q


class Lau:
    """Laurent polynomial over Q in a fixed tuple of variables.

    The coefficients are integer numerators over one denominator: _nums
    maps exponent tuples (integers, possibly negative) to nonzero ints, over
    the int _den, in the canonical form _den > 0 and
    gcd(_den, *_nums.values()) == 1 (zero is {} over 1), so equality and
    hashing are dict comparisons.  Other modules read the coefficients
    through int_terms(), the integer form, or terms, a Fraction view built
    on each access; both are read-only, so no Lau changes once built and
    sharing one (a memo, a cache) is safe.
    """

    __slots__ = ("vars", "_nums", "_den")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        """From int or Fraction coefficients; equal exponents add up."""
        self.vars = tuple(variables)
        fr: dict[tuple, Fraction] = {}
        for e, c in (terms or {}).items():
            if c := Fraction(c):
                e = tuple(int(k) for k in e)
                if len(e) != len(self.vars):
                    raise ValueError("exponent arity mismatch")
                fr[e] = fr.get(e, 0) + c
        fr = {e: c for e, c in fr.items() if c}
        # over the least common denominator the form is already canonical
        d = self._den = math.lcm(*(c.denominator for c in fr.values()))
        self._nums = {e: c.numerator * (d // c.denominator) for e, c in fr.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, variables, nums: Mapping[tuple, int], den: int = 1) -> "Lau":
        """nums / den in canonical form, for integer numerators (the keys integer
        tuples of len(variables)) and a nonzero integer den."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        s = -1 if den < 0 else 1
        return _canon(tuple(variables), {e: s * c for e, c in nums.items() if c}, s * den)

    @classmethod
    def const(cls, variables, c) -> "Lau":
        return cls.monomial(variables, (0,) * len(variables), c)

    @classmethod
    def var(cls, variables, name, power: int = 1) -> "Lau":
        e = [0] * len(variables)
        e[tuple(variables).index(name)] = power
        return cls.monomial(variables, e)

    @classmethod
    def monomial(cls, variables, exps, c=1) -> "Lau":
        e, q = tuple(map(int, exps)), c if isinstance(c, (int, Fraction)) else Fraction(c)
        if len(e) != len(variables):
            raise ValueError("exponent arity mismatch")
        return _lau(tuple(variables), {e: q.numerator} if q else {}, q.denominator)

    def int_terms(self) -> tuple[Mapping[tuple, int], int]:
        """The integer form (numerators, denominator), read-only."""
        return MappingProxyType(self._nums), self._den

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """The coefficients as a read-only Fraction view, built on each access."""
        return MappingProxyType({e: Fraction(c, self._den) for e, c in self._nums.items()})

    # -- ring operations ----------------------------------------------------

    def _chk(self, other) -> "Lau":
        if isinstance(other, Lau):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch {other.vars} vs {self.vars}")
            return other
        return Lau.const(self.vars, other)

    def __add__(self, other):
        o = self._chk(other)
        a, b, d = self._nums, o._nums, self._den
        if d != o._den:
            d = math.lcm(d, o._den)
            a = {e: c * (d // self._den) for e, c in a.items()}
            b = {e: c * (d // o._den) for e, c in b.items()}
        t = dict(a)
        for e, c in b.items():
            c2 = t.get(e, 0) + c
            if c2:
                t[e] = c2
            else:
                del t[e]  # c != 0, so e was in t
        return _canon(self.vars, t, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._chk(other))

    def __rsub__(self, other):
        return self._chk(other) - self

    def __neg__(self):
        return _lau(self.vars, {e: -c for e, c in self._nums.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _canon(self.vars, {e: c * n for e, c in self._nums.items()} if n else {}, self._den * other.denominator)
        o = self._chk(other)
        t: dict[tuple, int] = {}
        get = t.get
        for e1, c1 in self._nums.items():
            for e2, c2 in o._nums.items():
                e = tuple(map(add, e1, e2))
                t[e] = get(e, 0) + c1 * c2
        return _canon(self.vars, {e: c for e, c in t.items() if c}, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n; a monomial's power in closed form, (c/d)^n in lowest terms
        as gcd(c, d) = 1, refused before it is built past the digit limit;
        other bases square while bits remain (x ** 3: 2 products)."""
        if self.is_monomial():
            ((e, c),) = self._nums.items()
            _check_power(max(abs(c), self._den), n)
            num, den = (c ** n, self._den ** n) if n >= 0 else (self._den ** -n, c ** -n)
            if den < 0:
                num, den = -num, -den
            return _lau(self.vars, {tuple(n * k for k in e): num}, den)
        if n < 0:
            raise NotDivisible("negative power of a non-monomial")
        if n <= 1:
            return self if n else Lau.const(self.vars, 1)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Lau.const(self.vars, other)
        if not isinstance(other, Lau):
            return NotImplemented
        return self.vars == other.vars and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.vars, self._den, frozenset(self._nums.items())))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_monomial(self) -> bool:
        return len(self._nums) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(self._nums.get((0,) * len(self.vars), 0), self._den)

    def is_constant(self) -> bool:
        return not self._nums or (len(self._nums) == 1 and (0,) * len(self.vars) in self._nums)

    def degree_in(self, name: str):
        i = self.vars.index(name)
        return max((e[i] for e in self._nums), default=0)

    def coeff_of(self, name: str, k: int) -> "Lau":
        """Coefficient of name**k, as a Laurent polynomial in the other vars."""
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        return _canon(rest, {e[:i] + e[i + 1:]: c for e, c in self._nums.items() if e[i] == k}, self._den)

    def eval(self, point: Mapping[str, object]):
        """Evaluate at field values (Fraction, QuadElem, or any element with
        +, * and Fraction(1) / x), all vars bound."""
        total = None
        for e, c in sorted(self.terms.items()):
            term = c
            for v, k in zip(self.vars, e):
                if k == 0:
                    continue
                x = point[v]
                if k < 0:
                    x = Fraction(1) / x
                    k = -k
                for _ in range(k):
                    term = term * x
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def extend_vars(self, variables: Sequence[str]) -> "Lau":
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.vars]
        out = {}
        for e, c in self._nums.items():
            e2 = [0] * len(variables)
            for pos, k in zip(idx, e):
                e2[pos] = k
            out[tuple(e2)] = c
        return _lau(variables, out, self._den)

    # -- division ------------------------------------------------------------

    def shift_to_poly(self) -> tuple["Lau", tuple]:
        """Factor out the minimal monomial so all exponents are >= 0."""
        if not self._nums:
            return self, (0,) * len(self.vars)
        mins = tuple(map(min, *self._nums)) if len(self._nums) > 1 else next(iter(self._nums))
        return _lau(self.vars, {tuple(map(sub, e, mins)): c for e, c in self._nums.items()}, self._den), mins

    def exact_div(self, other: "Lau") -> "Lau":
        """Exact quotient self/other; raises NotDivisible when impossible.

        The leading-term algorithm (lex) on the numerators of the polynomial
        parts a and b: with b = cont * B, B primitive, Gauss's lemma puts the
        quotient by B in Z[vars] whenever it exists, so every step divides
        exactly and a remainder raises NotDivisible.
        """
        o = self._chk(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        (a, sa), (b, sb) = self.shift_to_poly(), o.shift_to_poly()
        shift = tuple(map(sub, sa, sb))
        cont = math.gcd(*b._nums.values())
        B = {e: c // cont for e, c in b._nums.items()}
        lb = max(B)
        cb = B[lb]
        q, r = {}, dict(a._nums)
        while r:
            lr = max(r)
            diff = tuple(map(sub, lr, lb))
            if min(diff, default=0) < 0:
                raise NotDivisible(f"leading term {lr} not divisible by {lb}")
            c, rest = divmod(r[lr], cb)
            if rest:
                raise NotDivisible(f"leading coefficient at {lr} not divisible by {cb}")
            q[tuple(map(add, diff, shift))] = c
            for e, cq in B.items():
                k = tuple(map(add, e, diff))
                v = r.get(k, 0) - c * cq
                if v:
                    r[k] = v
                else:
                    del r[k]
        # self / other = (quotient by B) * b's denominator / (a's * cont)
        return _canon(self.vars, {e: c * b._den for e, c in q.items()}, a._den * cont)

    # -- misc -----------------------------------------------------------------

    def coeffs_in_z_inv_p(self, p: int) -> bool:
        # the canonical denominator is the lcm of the coefficients' ones
        return self._den == p ** _vint(self._den, p)

    def __repr__(self):
        if not self._nums:
            return "0"
        bits = []
        for e, c in sorted(self._nums.items()):
            mon = "*".join(f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k != 0)
            bits.append(fr_to_str(c, self._den) + ("*" + mon if mon else ""))
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": {",".join(map(str, e)): fr_to_str(c, self._den) for e, c in sorted(self._nums.items())},
        }


def _lau(variables: tuple, n: dict, d: int = 1) -> Lau:
    """n over d, already canonical: the constructor of internal results."""
    out = object.__new__(Lau)
    out.vars, out._nums, out._den = variables, n, d
    return out


def _canon(variables: tuple, n: dict, d: int) -> Lau:
    """Nonzero integer numerators n over d > 0, divided by their common gcd."""
    if d != 1:
        g = math.gcd(d, *n.values())
        if g != 1:
            n, d = {e: c // g for e, c in n.items()}, d // g
    return _lau(variables, n, d)


# ---------------------------------------------------------------------------
# symmetric reduction: per pair (x, y), e1 = x + y and e2 = x y.  A swap orbit
# x^a y^b + x^b y^a (a > b) is e2^b W_(a-b), where Waring's formula gives the
# power sum W_k = x^k + y^k = sum_(j <= k/2) (-1)^j k/(k-j) C(k-j, j) e1^(k-2j) e2^j,
# and a fixed point x^a y^a is e2^a.  The binomial theorem goes back:
# e1^a e2^b = sum_i C(a, i) x^(i+b) y^(a-i+b).  A symmetric Laurent polynomial
# has one expression in Q[e1, e2, 1/e2], so the two maps are mutually inverse.

AB = ("A", "B")
UV = ("u1", "v1", "u2", "v2")


def _orbit_sum(a: int, b: int) -> tuple:
    """The swap orbit of x^a y^b as ((e1, e2) exponents, integer coefficient)
    pairs: e2^b W_(a-b) for a >= b, W_0 = 1 at a fixed point; empty for
    a < b, as that orbit is read at x^b y^a."""
    k = a - b
    return tuple(
        ((k - 2 * j, j + b), (-1) ** j * (k * math.comb(k - j, j) // (k - j)) if j else 1)
        for j in range(k // 2 + 1)
    )


def _binomial(a: int, b: int) -> tuple:
    """e1^a e2^b as ((x, y) exponents, integer coefficient) pairs."""
    if a < 0:
        raise NotDivisible("negative power of a non-monomial")
    return tuple(((i + b, a - i + b), math.comb(a, i)) for i in range(a + 1))


def _sum_of_products(variables, rows, d: int) -> Lau:
    """The sum of c * prod(factors) * monomial(tail) over rows (c, factors,
    tail), over the denominator d; c is an integer numerator and each factor
    a tuple of (pair exponents, integer weight) pairs."""
    out: dict[tuple, int] = {}
    for c, factors, tail in rows:
        for picks in product(*factors):
            k = sum((ex for ex, _ in picks), ()) + tail
            out[k] = out.get(k, 0) + c * math.prod(w for _, w in picks)
    return _canon(variables, {k: c for k, c in out.items() if c}, d)


def sym_reduce(poly: Lau) -> Lau:
    """Rewrite a Laurent polynomial symmetric in each consecutive pair (x, y)
    of its variables in terms of e1 = x + y and e2 = x*y (Laurent in e2).

    Raises NotSymmetric when the input is not swap-invariant.
    """
    vs, terms = poly.vars, poly._nums
    if len(vs) % 2:
        raise ValueError("odd number of variables")
    pairs = range(0, len(vs), 2)
    for i in pairs:
        for e, c in terms.items():
            if e[i] != e[i + 1] and terms.get(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != c:
                raise NotSymmetric(f"not symmetric under {vs[i]} <-> {vs[i + 1]}")
    out_vars = ("e1", "e2") if len(vs) == 2 else tuple(f"e{j}_{i // 2 + 1}" for i in pairs for j in (1, 2))
    rows = ((c, [_orbit_sum(e[i], e[i + 1]) for i in pairs], ()) for e, c in terms.items())
    return _sum_of_products(out_vars, rows, poly._den)


def _evar_pairs(variables: Sequence[str]) -> list[tuple[str, str]]:
    out = []
    if "e1" in variables:
        out.append(("e1", "e2"))
    i = 1
    while f"e1_{i}" in variables:
        out.append((f"e1_{i}", f"e2_{i}"))
        i += 1
    return out


def sym_expand(sym: Lau, pair_vars: Sequence[str]) -> Lau:
    """Inverse of sym_reduce: e1 -> x+y, e2 -> x*y per pair (x, y) of
    pair_vars, any other variable (X) carried through.  A negative power
    of e1 raises NotDivisible."""
    vs = sym.vars
    epairs = _evar_pairs(vs)
    extra = [v for v in vs if all(v not in pr for pr in epairs)]
    idx = [(vs.index(e1n), vs.index(e2n)) for e1n, e2n in epairs]
    rest = [vs.index(v) for v in extra]
    rows = ((c, [_binomial(e[i], e[j]) for i, j in idx], tuple(e[k] for k in rest)) for e, c in sym._nums.items())
    return _sum_of_products(tuple(pair_vars) + tuple(extra), rows, sym._den)


def complete_homog(n: int, x: str, y: str, variables: tuple) -> Lau:
    """Complete homogeneous symmetric sum of degree n in two variables,
    (x^(n+1) - y^(n+1)) / (x - y); zero for n < 0.  Not memoized: the inner
    zeta integrals sum their roots in closed form, so only wsph_value and
    psi_epsilon_extract read it, a few small sums per call."""
    terms = {}
    if n >= 0:
        ix, iy = variables.index(x), variables.index(y)
        for i in range(n + 1):
            e = [0] * len(variables)
            e[ix], e[iy] = i, n - i
            terms[tuple(e)] = 1
    return _lau(variables, terms)


# ---------------------------------------------------------------------------
# rational functions with factored denominators


class RatFunc:
    """num / prod(factors), factors Laurent polynomials of constant term 1.

    Keeping the denominator factored makes cancellation a sequence of exact
    trial divisions, so sums and products stay fully reduced without any
    multivariate gcd machinery.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Lau, den: Iterable[Lau] = ()):
        self.num = num
        self.den: list[Lau] = [f for f in den if not f.is_constant() or f.constant_value() != 1]
        for f in self.den:
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
        self._cancel()

    def _cancel(self):
        if self.num.is_zero():
            self.den = []
            return
        out = []
        for f in sorted(self.den, key=lambda g: sorted(g._nums)):
            try:
                self.num = self.num.exact_div(f)
            except NotDivisible:
                out.append(f)
        self.den = out

    @classmethod
    def from_lau(cls, num: Lau) -> "RatFunc":
        return cls(num, [])

    @property
    def denominator(self) -> Lau:
        d = Lau.const(self.num.vars, 1)
        for f in self.den:
            d = d * f
        return d

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc.from_lau(Lau.const(self.num.vars, other))
        # common denominator = multiset union of the factor lists
        shared = list(self.den)
        extra = []
        for f in other.den:
            if f in shared:
                shared.remove(f)
            else:
                extra.append(f)
        den = list(self.den) + extra
        n1 = self.num
        for f in extra:
            n1 = n1 * f
        n2 = other.num
        for f in shared:
            n2 = n2 * f
        return RatFunc(n1 + n2, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction, Lau)):
            return RatFunc(self.num * other, self.den)
        return RatFunc(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.from_lau(Lau.const(self.num.vars, other))
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == other.den:  # reduced factor lists are sorted alike
            return self.num == other.num
        return (self.num * other.denominator) == (other.num * self.denominator)

    def is_laurent(self) -> bool:
        return not self.den

    def as_laurent(self) -> Lau:
        if self.den:
            raise NotDivisible(f"denominator {self.den} does not cancel")
        return self.num

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return f"({self.num!r}) / ({' * '.join(map(repr, self.den))})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": [f.to_json() for f in self.den]}


def lau_eval_x1(h: Lau, name: str) -> Lau:
    """Evaluate a Laurent polynomial at name = 1 (drop that variable)."""
    rest = tuple(v for v in h.vars if v != name)
    i = h.vars.index(name)
    terms: dict[tuple, int] = {}
    for e, c in h._nums.items():
        key = e[:i] + e[i + 1:]
        terms[key] = terms.get(key, 0) + c
    return _canon(rest, {k: c for k, c in terms.items() if c}, h._den)


def json_dumps(obj) -> str:
    """obj exactly as json.dumps(obj, indent=2, sort_keys=True) prints it,
    without that call's pure-Python encoder (the C encoder serves only
    indent=None).  Keys are sorted before they are converted, so int keys
    come out in numeric order; strings and keys are escaped to ASCII by the
    C function json.dumps uses.  obj holds only str, int, bool, None, dict
    (str or int keys), list and tuple: anything else is a TypeError.  An int
    past the interpreter's digit limit (sys.get_int_max_str_digits()) is a
    PrecisionOverflow."""
    out: list[str] = []
    put = out.append

    def emit(v, nl: str) -> None:  # nl: a newline and the indent of v's own line
        t = type(v)
        if t is dict:
            if not v:
                put("{}")
                return
            inner = nl + "  "
            sep, between = "{" + inner, "," + inner
            for k in sorted(v):
                head = sep + _json_key(k) + ": "
                x = v[k]
                if type(x) is str:
                    put(head + _json_str(x))
                elif type(x) is int:
                    put(head + int.__repr__(x))
                else:
                    put(head)
                    emit(x, inner)
                sep = between
            put(nl + "}")
        elif t is list or t is tuple:
            if not v:
                put("[]")
                return
            inner = nl + "  "
            sep, between = "[" + inner, "," + inner
            for x in v:
                put(sep)
                emit(x, inner)
                sep = between
            put(nl + "]")
        elif t is str:
            put(_json_str(v))
        elif t is int:
            put(int.__repr__(v))
        elif v is None or t is bool:
            put(_JSON_ATOMS[v])
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    try:
        emit(obj, "\n")
    except ValueError:  # raised here only by int.__repr__ past the digit limit
        raise _too_long() from None
    return "".join(out)


_json_str = json.encoder.encode_basestring_ascii
_JSON_ATOMS = {None: "null", True: "true", False: "false"}


def _json_key(k) -> str:
    if type(k) is str:
        return _json_str(k)
    if type(k) is int:
        return f'"{int.__repr__(k)}"'
    raise TypeError(f"keys must be str or int, not {type(k).__name__}")
