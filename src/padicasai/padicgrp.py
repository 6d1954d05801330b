"""2x2 matrix groups over Q_p and its unramified quadratic extension.

Provides exact Iwasawa decomposition, the mirabolic coset labels
P(Q_p) t_a n_b G(O_F) (with witnesses), the generalized Cartan labels
G(Z_p) \\ G(F) / G(O_F) (three invariants pin the label; one lattice test
gives its witnesses, no precision cap), and the single cosets of
K t(lam, 0) K.

A Mat2 is one canonical integer block: entry i (row-major) is
(x_i + y_i sqrt(r)) / D, eight ints over one denominator D > 0 with
gcd(D, x_0, .., y_3) = 1, so equality and hashing compare tuples.
Products, inverses, the predicates and every decomposition read these
ints, and each result takes one gcd (_mat).  QuadElem entries (.e) are
built only at the edges: printing, JSON, the witnesses u, f1, f2 of
iwasawa_F.  Other modules read the block through Mat2.int_block().  The
three generalized Cartan invariants come in one pass that reads det once
(_cartan_invariants), for the labels and the Hecke module's double-coset
key.

Iwasawa and the mirabolic labels clear the bottom row (c, d) of g by one
pivot rule (_bottom_pivot: the entry y of least valuation, d on a tie) and
read their witnesses off the entries of g in closed form (u = x/y,
f1 = det/y, f2 = y; a = v(y), B = p^a x/y); no column operation is built.

Every lattice question takes one path.  conj_condition_rows writes
"left X right is integral" as linear conditions on X; the one solver,
lattice_solve_affine (the only caller of the p-local Smith engine),
turns conditions into an affine Z_p-lattice; and one residue search,
lattice_residues, reads that lattice mod p.  lattice_measure counts its
residue classes, which gives every stabilizer volume (subgroup_volume
here, the mirabolic volumes of the Hecke-module layer), and kck_membership
takes its first class of unit determinant as the Cartan witness.  Every
question stacks the identity rows (full column rank, a lattice in Z_p^n;
a breach is DecompositionError, exit 4).  A volume keeps beside them only
the rows that constrain; kck_membership reads its witness off the basis
of every row.

The lattice layer runs on ints.  Every condition has one row format, Row
= (nums, t, den): integer coefficients and target over one positive
denominator.  The Smith engine takes these rows and returns ints (t over
its row scales, V as integer columns over w); it eliminates fraction-free,
and scaling a row by a p-adic unit, or every row by one power of p, moves
no pivot and no ratio to a pivot, so its rational result is exactly that
of Fraction elimination.  The solver and the residue search read
integrality, levels and residues mod p off those ints; a Fraction is built
only where a result leaves the layer: a Cartan witness, a weight or a
volume.

Matrices are immutable, and every decomposition returns witnesses checked
in every mode before it returns.  The Iwasawa check has one
implementation, _iwasawa_ints, on an integer block (e, D) with no matrix
or field element built: it checks n(u) diag(f1, f2) kappa = g on all four
entries by cross-multiplying its quotient ints against e, and kappa in
GL2(O_F), which is w p-integral as det kappa = 1.  The zeta engine's row
certificate calls it on ints (whitzeta._y_data_by_iwasawa); iwasawa_F
wraps it for a Mat2 and builds the IwasawaParts.  pgk_label builds its right witness as
(q t_a n_b)^-1 g, so the product is g by construction, and checks that
witness in GL2(O_F).  kck_membership (the Cartan witnesses) builds
kappa = cell^-1 x g and k = x^-1 likewise and checks x in GL2(Z_p) and
kappa in GL2(O_F).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactnum import INF, QuadCtx, QuadElem, _vint, _vquad, quad_json


class DecompositionError(AssertionError):
    """A decomposition or lattice the theory guarantees could not be found."""


# ---------------------------------------------------------------------------
# matrices


def _coords(v, ctx: QuadCtx) -> tuple[int, int, int]:
    """(x, y, d) with v = (x + y sqrt(r)) / d in lowest terms, d > 0, for a
    QuadElem over ctx, a Fraction or an int."""
    if isinstance(v, QuadElem):
        if v.ctx is not ctx and v.ctx != ctx:
            raise ValueError("mixed quadratic contexts")
        return v.x, v.y, v.d
    if type(v) is int:
        return v, 0, 1
    v = Fraction(v)
    return v.numerator, 0, v.denominator


class Mat2:
    """2x2 matrix over a fixed quadratic context, as one integer block.

    _xy holds the eight ints (x_0, y_0, .., x_3, y_3) and _d the denominator
    of the entries (x_i + y_i sqrt(r)) / _d, row-major, in the canonical
    form _d > 0, gcd(_d, *_xy) == 1.  Other modules read the block through
    int_block(), or the entries through .e, a tuple of QuadElem built on
    each access; no Mat2 changes once built.
    """

    __slots__ = ("_xy", "_d", "ctx")

    def __init__(self, entries: Sequence, ctx: QuadCtx):
        """From QuadElem, Fraction or int entries, row-major."""
        cs = [_coords(v, ctx) for v in entries]
        if len(cs) != 4:
            raise ValueError("need 4 entries")
        (x0, y0, d0), (x1, y1, d1), (x2, y2, d2), (x3, y3, d3) = cs
        # over the least common denominator the form is already canonical
        d = lcm(d0, d1, d2, d3)
        k0, k1, k2, k3 = d // d0, d // d1, d // d2, d // d3
        self._xy = (x0 * k0, y0 * k0, x1 * k1, y1 * k1, x2 * k2, y2 * k2, x3 * k3, y3 * k3)
        self._d = d
        self.ctx = ctx

    # constructors ----------------------------------------------------------

    @classmethod
    def from_ints(cls, xy: Sequence[int], d: int, ctx: QuadCtx) -> "Mat2":
        """The matrix of entries (xy[2i] + xy[2i+1] sqrt(r)) / d, in canonical
        form, for eight ints and a nonzero d."""
        if len(xy) != 8:
            raise ValueError("need 8 ints")
        if d < 0:
            xy, d = [-n for n in xy], -d
        elif not d:
            raise ZeroDivisionError("zero denominator")
        return _mat(tuple(xy), d, ctx)

    @classmethod
    def identity(cls, ctx: QuadCtx) -> "Mat2":
        return _mat((1, 0, 0, 0, 0, 0, 1, 0), 1, ctx)

    @classmethod
    def diag(cls, a, b, ctx: QuadCtx) -> "Mat2":
        (ax, ay, ad), (bx, by, bd) = _coords(a, ctx), _coords(b, ctx)
        return _mat((ax * bd, ay * bd, 0, 0, 0, 0, bx * ad, by * ad), ad * bd, ctx)

    @classmethod
    def t(cls, a: int, b: int, ctx: QuadCtx) -> "Mat2":
        """diag(p^a, p^b)."""
        return _p_power_block(a, None, b, ctx)

    @classmethod
    def upper(cls, u, ctx: QuadCtx) -> "Mat2":
        x, y, d = _coords(u, ctx)
        return _mat((d, 0, x, y, 0, 0, d, 0), d, ctx)

    @classmethod
    def lower(cls, u, ctx: QuadCtx) -> "Mat2":
        x, y, d = _coords(u, ctx)
        return _mat((d, 0, 0, 0, x, y, d, 0), d, ctx)

    @classmethod
    def n_b(cls, b: int, ctx: QuadCtx) -> "Mat2":
        """The basis unipotent [[1, sqrt(r) p^-b], [0, 1]]."""
        return _p_power_block(0, -b, 0, ctx)

    # ring / group ops ------------------------------------------------------

    def __mul__(self, other: "Mat2") -> "Mat2":
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("mixed quadratic contexts")
        r = self.ctx.r
        a0, a1, b0, b1, c0, c1, d0, d1 = self._xy
        e0, e1, f0, f1, g0, g1, h0, h1 = other._xy
        return _mat(
            (
                a0 * e0 + b0 * g0 + r * (a1 * e1 + b1 * g1), a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0,
                a0 * f0 + b0 * h0 + r * (a1 * f1 + b1 * h1), a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0,
                c0 * e0 + d0 * g0 + r * (c1 * e1 + d1 * g1), c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0,
                c0 * f0 + d0 * h0 + r * (c1 * f1 + d1 * h1), c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0,
            ),
            self._d * other._d,
            self.ctx,
        )

    def __eq__(self, other):
        return isinstance(other, Mat2) and self._xy == other._xy and self._d == other._d and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.r, self._d) + self._xy)

    def _det2(self) -> tuple[int, int]:
        """(X, Y) with det = (X + Y sqrt(r)) / _d^2."""
        return _block_det(self._xy, self.ctx.r)

    def det(self) -> QuadElem:
        return QuadElem.from_ints(*self._det2(), self._d ** 2, self.ctx)

    def inv(self) -> "Mat2":
        X, Y = self._det2()
        if not (X or Y):
            raise ZeroDivisionError("singular matrix")
        a0, a1, b0, b1, c0, c1, d0, d1 = self._xy
        D, r = self._d, self.ctx.r
        # adj / det entry by entry, ((u + v sqrt r) / D) / ((X + Y sqrt r) / D^2): one denominator n
        xy = []
        for u, v in ((d0, d1), (-b0, -b1), (-c0, -c1), (a0, a1)):
            x, y, n = _quot(D * u, D * v, X, Y, r)
            xy += (x, y)
        return _mat(tuple(xy), n, self.ctx)

    def scale(self, s) -> "Mat2":
        sx, sy, sd = _coords(s, self.ctx)
        r, xy = self.ctx.r, self._xy
        out = []
        for i in range(0, 8, 2):
            x, y = xy[i], xy[i + 1]
            out += (x * sx + r * y * sy, x * sy + y * sx)
        return _mat(tuple(out), self._d * sd, self.ctx)

    # predicates ------------------------------------------------------------

    def min_val(self):
        """The least entry valuation; p divides _d or misses some x_i, y_i."""
        p = self.ctx.p
        if self._d % p:
            g = gcd(*self._xy)
            return _vint(g, p) if g else INF
        return -_vint(self._d, p)

    def det_val(self):
        return _vquad(*self._det2(), self.ctx.p) - 2 * _vint(self._d, self.ctx.p)

    def is_integral(self) -> bool:
        return self._d % self.ctx.p != 0

    def in_KF(self) -> bool:
        """Membership in GL2(O_F)."""
        p = self.ctx.p
        if self._d % p == 0:
            return False
        X, Y = self._det2()
        return X % p != 0 or Y % p != 0

    def in_K_base(self) -> bool:
        """Membership in GL2(Z_p)."""
        return self.is_rational() and self.in_KF()

    def is_rational(self) -> bool:
        return not any(self._xy[1::2])

    # the block and the entries ---------------------------------------------

    def int_block(self) -> tuple[tuple[int, ...], int]:
        """The integer form (xy, D): entry i is (xy[2i] + xy[2i+1] sqrt(r)) / D."""
        return self._xy, self._d

    @property
    def e(self) -> tuple[QuadElem, ...]:
        """The four entries as QuadElem, row-major, built on each access."""
        xy, d, ctx = self._xy, self._d, self.ctx
        return tuple(QuadElem.from_ints(xy[i], xy[i + 1], d, ctx) for i in range(0, 8, 2))

    def __repr__(self):
        e = self.e
        return f"[[{e[0]!r}, {e[1]!r}], [{e[2]!r}, {e[3]!r}]]"

    def to_json(self) -> list:
        xy, d, r = self._xy, self._d, self.ctx.r
        e = [quad_json(xy[i], xy[i + 1], d, r) for i in range(0, 8, 2)]
        return [e[:2], e[2:]]

    @classmethod
    def from_json(cls, d, ctx: QuadCtx) -> "Mat2":
        if not (isinstance(d, list) and len(d) == 2 and all(isinstance(r, list) and len(r) == 2 for r in d)):
            raise ValueError("a matrix is two rows of two entries")
        return cls([QuadElem.from_json(x, ctx) for row in d for x in row], ctx)


def _block_det(e: Sequence[int], r: int) -> tuple[int, int]:
    """(X, Y) with det = (X + Y sqrt(r)) / D^2 for the block e over D."""
    a0, a1, b0, b1, c0, c1, d0, d1 = e
    return a0 * d0 - b0 * c0 + r * (a1 * d1 - b1 * c1), a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0


def _mat(xy: tuple[int, ...], d: int, ctx: QuadCtx) -> Mat2:
    """The Mat2 of the eight ints xy over d > 0, in lowest terms: the one
    constructor of internal results."""
    g = gcd(d, *xy)
    if g != 1:
        xy, d = tuple(n // g for n in xy), d // g
    m = object.__new__(Mat2)
    m._xy, m._d, m.ctx = xy, d, ctx
    return m


def _p_power_block(e0: int, e1: int | None, e3: int, ctx: QuadCtx) -> Mat2:
    """[[p^e0, sqrt(r) p^e1], [0, p^e3]]; e1 = None leaves the corner 0."""
    p = ctx.p
    k = max(0, -min(e0, e3, e0 if e1 is None else e1))
    corner = 0 if e1 is None else p ** (e1 + k)
    return _mat((p ** (e0 + k), 0, 0, corner, 0, 0, p ** (e3 + k), 0), p ** k, ctx)


def _quot(a: int, b: int, c: int, d: int, r: int) -> tuple[int, int, int]:
    """(x, y, n) with (a + b sqrt(r)) / (c + d sqrt(r)) = (x + y sqrt(r)) / n,
    n > 0, for ints and c + d sqrt(r) != 0: times the conjugate over the norm."""
    n = c * c - r * d * d
    x, y = a * c - r * b * d, b * c - a * d
    return (x, y, n) if n > 0 else (-x, -y, -n)


# ---------------------------------------------------------------------------
# Iwasawa decomposition over F


@dataclass(frozen=True)
class IwasawaParts:
    u: QuadElem
    f1: QuadElem
    f2: QuadElem
    kappa: Mat2

    def reassemble(self, ctx: QuadCtx) -> Mat2:
        """n(u) diag(f1, f2) kappa, built from the witnesses."""
        return Mat2.upper(self.u, ctx) * Mat2.diag(self.f1, self.f2, ctx) * self.kappa


def _bottom_pivot(e: Sequence[int], ctx: QuadCtx) -> tuple[int, tuple[int, int]]:
    """(j, det) for the block e of g = [[a, b], [c, d]] over any common
    denominator D: j = 3 (y = d, x = b) when v(c) >= v(d), else j = 2
    (y = c, x = a), so entry j is the bottom-row entry y of least valuation
    and entry j - 2 the entry x above it; det = (X, Y) with
    det g = (X + Y sqrt(r)) / D^2.  A singular g raises ZeroDivisionError.
    """
    X, Y = _block_det(e, ctx.r)
    if not (X or Y):
        raise ZeroDivisionError("singular matrix")
    # c and d share the denominator D, so their numerators compare
    p = ctx.p
    return (3 if _vquad(e[4], e[5], p) >= _vquad(e[6], e[7], p) else 2), (X, Y)


def _iwasawa_ints(e: Sequence[int], ctx: QuadCtx) -> tuple:
    """The witnesses of g = n(u) diag(f1, f2) kappa, checked, for g the block
    of eight ints e over a common denominator D != 0 (any D: no check reads
    it, and neither its sign nor a factor shared with e matters).

    Returns (j, y, u, f, w): the pivot j of _bottom_pivot, y = (y0, y1) its
    numerator, and the quotients u = (ux, uy, un), f = (fx, fy, fn) and
    w = (wx, wy, wn), each (x + y sqrt(r)) / n with n > 0, so that
    u = x / y, f1 = det / y = (fx + fy sqrt(r)) / (D fn), f2 = y / D, and
    kappa = [[1, 0], [w, 1]], w = c/d, when y = d, [[0, -1], [1, w]],
    w = d/c, when y = c.  Every mode checks n(u) diag(f1, f2) kappa = g on
    all four entries, cross-multiplying the quotient ints against e (no
    matrix is built for it), and kappa in GL2(O_F): det kappa = 1, so that
    is w p-integral, which holds because v(y) is least in the bottom row.
    """
    r = ctx.r
    j, (X, Y) = _bottom_pivot(e, ctx)
    i = 2 * j
    y = y0, y1 = e[i], e[i + 1]
    # the other bottom entry over y: w = c/d when y = d, d/c when y = c
    wx, wy, wn = _quot(e[10 - i], e[11 - i], y0, y1, r)
    ux, uy, un = _quot(e[i - 4], e[i - 3], y0, y1, r)
    # det / y = ((X + Y sqrt r) / D^2) / ((y0 + y1 sqrt r) / D)
    fx, fy, fn = _quot(X, Y, y0, y1, r)
    # n(u) diag(f1, f2) kappa = [[f1 + u f2 w, u f2], [f2 w, f2]] (j = 3),
    # [[u f2, u f2 w - f1], [f2, f2 w]] (j = 2); over D, u f2 = uf / un,
    # f2 w = fw / wn, u f2 w = ufw / (un wn) and f1 = (fx + fy sqrt r) / fn;
    # entry j is y itself
    uf0, uf1 = ux * y0 + r * uy * y1, ux * y1 + uy * y0
    s, n = (un * wn if j == 3 else -un * wn), fn * un * wn
    f1x = s * fx + fn * (uf0 * wx + r * uf1 * wy)
    f1y = s * fy + fn * (uf0 * wy + uf1 * wx)
    k = 6 - i  # entry 3 - j
    if (
        uf0 != un * e[i - 4] or uf1 != un * e[i - 3]
        or y0 * wx + r * y1 * wy != wn * e[10 - i] or y0 * wy + y1 * wx != wn * e[11 - i]
        or f1x != n * e[k] or f1y != n * e[k + 1]
    ):
        raise AssertionError("Iwasawa witnesses do not reassemble g")
    # w = (wx + wy sqrt r) / wn is p-integral when p misses its reduced
    # denominator; wn = 0 is y = 0, no w at all (only a wrong pivot gives it)
    if not wn or not wn // gcd(wn, wx, wy) % ctx.p:
        raise AssertionError("Iwasawa kappa is not in GL2(O_F)")
    return j, y, (ux, uy, un), (fx, fy, fn), (wx, wy, wn)


def iwasawa_F(g: Mat2) -> IwasawaParts:
    """g = n(u) diag(f1, f2) kappa with kappa in GL2(O_F): the witnesses
    that _iwasawa_ints reads off g's integer block and checks, as
    IwasawaParts."""
    ctx, D = g.ctx, g._d
    j, y, u, (fx, fy, fn), (wx, wy, wn) = _iwasawa_ints(g._xy, ctx)
    if j == 3:
        kappa = _mat((wn, 0, 0, 0, wx, wy, wn, 0), wn, ctx)
    else:
        kappa = _mat((0, 0, -wn, 0, wn, 0, wx, wy), wn, ctx)
    f1, f2 = QuadElem.from_ints(fx, fy, D * fn, ctx), QuadElem.from_ints(*y, D, ctx)
    return IwasawaParts(QuadElem.from_ints(*u, ctx), f1, f2, kappa)


# ---------------------------------------------------------------------------
# p-local Smith normal form and lattice solving


# A condition row (nums, t, den): the row nums/den of a condition matrix and
# its target entry t/den, all ints, den > 0.
Row = tuple[list[int], int, int]


def plocal_smith(rows: list[Row], p: int):
    """p-local Smith form of the condition rows: returns (t, tden, exps, V, w),
    all ints, with U*M*V = D and t[i]/tden[i] = (U*target)[i].

    M and target are the rows nums/den and their entries t/den.  U (m x m,
    applied to target as its row operations run, never built) and V (n x n,
    entry V[i][j]/w[j]) are Z_(p)-invertible rational matrices and D is
    diagonal with D[i][i] = p**exps[i] for i < len(exps), all other entries
    zero.  Row i of D beyond len(exps) is identically zero.  The pivot is
    the first entry of least valuation in row-major order; it is scaled to
    p**exps[i].

    The elimination runs on ints (Bareiss; Cohen, GTM 138, 2.4).  Row i of
    (M | target) is carried times s_i * p^E = tden[i]: p^E is the largest
    power of p in any den, and s_i a p-unit (on entry, den_i over its power
    of p).  Row i is eliminated as (a/g)*row_i - (b/g)*row_k, with a the
    pivot, b = row_i[k] and g = gcd(a, b); a/g is a p-unit and joins s_i.
    A unit scale changes no valuation, no zero pattern and no ratio
    row_k[j]/a, and p^E shifts every valuation alike, so pivots, exps, V
    (built from those ratios) and t/tden are exactly those of the Fraction
    elimination.
    """
    m = len(rows)
    n = len(rows[0][0]) if m else 0
    vden = [_vint(d, p) for _, _, d in rows]
    E = max(vden, default=0)
    pE = p ** E
    M, t, scale = [], [], []
    for (nums, x, d), e in zip(rows, vden):
        c = p ** (E - e)
        M.append([y * c for y in nums])
        t.append(x * c)
        scale.append(d // p ** e)
    V, w = [[int(i == j) for j in range(n)] for i in range(n)], [1] * n
    exps: list[int] = []
    for k in range(min(m, n)):
        best = None  # the first entry of least valuation: p**v divides no earlier one
        for i in range(k, m):
            for j in range(k, n):
                if M[i][j] and (best is None or M[i][j] % pv):
                    best = (_vint(M[i][j], p), i, j)
                    pv = p ** best[0]
        if best is None:
            break
        v, bi, bj = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
            t[k], t[bi] = t[bi], t[k]
            scale[k], scale[bi] = scale[bi], scale[k]
        if bj != k:
            for r in M[k:] + V + [w]:
                r[k], r[bj] = r[bj], r[k]
        rk = M[k]
        a = rk[k]
        for i in range(k + 1, m):
            ri = M[i]
            b = ri[k]
            if b:
                g = gcd(a, b)
                a_g, b_g = a // g, b // g
                for j in range(k + 1, n):
                    ri[j] = a_g * ri[j] - b_g * rk[j]
                ri[k] = 0
                t[i] = a_g * t[i] - b_g * t[k]
                scale[i] *= a_g
        # the column step only clears row k; V gets column j -= (rk[j]/a) * column k
        for j in range(k + 1, n):
            if rk[j]:
                c, d = a * w[k], rk[j] * w[j]
                for r in V:
                    r[j] = c * r[j] - d * r[k]
                w[j] *= c
        scale[k] = a // p ** v
        exps.append(v - E)
    return t, [s * pE for s in scale], exps, V, w


def lattice_solve_affine(rows: list[Row], p: int):
    """Solve {x : rows@x - target is p-integral}; returns (x0, basis) or None.

    All ints, from one plocal_smith: x0 = (nums, den) is the point nums/den,
    and basis vector i = (V column i, w[i], exps[i]) is that column over w[i]
    times p^-exps[i].  basis spans the homogeneous solution lattice
    L = {x : rows@x is p-integral}.  The condition matrix must have full
    column rank (callers stack identity rows; else DecompositionError).
    """
    n = len(rows[0][0])
    t, tden, exps, V, w = plocal_smith(rows, p)
    if len(exps) < n:
        raise DecompositionError("condition matrix not of full column rank")
    # row i >= n of D is zero: it asks t[i]/tden[i] in Z_p
    if any(t[i] and _vint(t[i], p) < _vint(tden[i], p) for i in range(n, len(rows))):
        return None
    # x0 = V y, y[i] = t[i]/tden[i] * p^-exps[i], over one denominator
    ys = [(i, t[i] * p ** max(0, -exps[i]), tden[i] * w[i] * p ** max(0, exps[i])) for i in range(n) if t[i]]
    den = lcm(*(d for _, _, d in ys))
    x0 = [sum(V[r][i] * y * (den // d) for i, y, d in ys) for r in range(n)]
    return (x0, den), [([r[i] for r in V], w[i], exps[i]) for i in range(n)]


def _mod_p(nums: list[int], den: int, p: int) -> list[int]:
    """The vector nums/den mod p; DecompositionError when it is not p-integral."""
    pv = p ** _vint(den, p)
    if any(x % pv for x in nums):
        raise DecompositionError("lattice not contained in Z_p^n")
    inv = pow(den // pv, -1, p)
    return [x // pv * inv % p for x in nums]


def lattice_residues(rows: list[Row], p: int):
    """The coset x0 + L = {x : rows@x - target is p-integral} read mod p.

    Returns None when the coset is empty, else (free, weight, classes).  A
    basis vector of level a is p^a times a primitive vector; free are the
    level-0 ones, which are independent mod p, each as ints (column, w) for
    the vector column/w.  classes yields (coefs, x mod p) for
    x = x0 + sum(coefs * free), over coefs in range(p)^len(free) in product
    order: every residue class of x0 + L once.  Each class has additive
    Haar measure (vol Z_p^n = 1) weight: a level-a vector contributes p^-a
    to vol L, so weight = p^-(sum a) / p^(#level 0).  A coset outside Z_p^n
    raises DecompositionError.

    Everything up to weight runs on the ints of lattice_solve_affine.  V is
    Z_(p)-invertible, so each of its columns has a unit entry: the level of
    basis vector i is -exps[i], and a level-0 column reduces mod p entrywise.
    """
    sol = lattice_solve_affine(rows, p)
    if sol is None:
        return None
    x0, basis = sol
    levels = [-e for _, _, e in basis]
    if min(levels) < 0:
        raise DecompositionError("lattice not contained in Z_p^n")
    free = [(col, w) for col, w, e in basis if e == 0]
    red = [_mod_p(col, w, p) for col, w in free]
    start = _mod_p(*x0, p)

    def classes():
        # product order as an odometer: each digit that steps adds its vector (p-1 -> 0 adds 1-p = 1 mod p)
        coefs, x = [0] * len(red), start
        while True:
            yield tuple(coefs), x
            for j in reversed(range(len(red))):
                x = [(a + b) % p for a, b in zip(x, red[j])]
                coefs[j] = (coefs[j] + 1) % p
                if coefs[j]:
                    break
            else:
                return

    return free, Fraction(1, p ** (sum(levels) + len(free))), classes()


def lattice_measure(rows: list[Row], p: int, accept) -> Fraction:
    """Additive Haar measure (vol Z_p^n = 1) of {x in x0 + L : accept(x mod p)},
    with x0 + L = {x : rows@x - target is p-integral}: the residue classes
    of lattice_residues (lists of ints, handed to accept) that accept takes,
    each of the same measure.
    """
    res = lattice_residues(rows, p)
    if res is None:
        return Fraction(0)
    _, weight, classes = res
    return sum(bool(accept(x)) for _, x in classes) * weight


def identity_rows() -> list[Row]:
    """The four unit rows: with them a condition matrix on a 2x2 unknown has
    full column rank and confines the unknown to M2(Z_p)."""
    return [([int(i == j) for j in range(4)], 0, 1) for i in range(4)]


def constrains(row: Row, p: int) -> bool:
    """Whether the row can fail on an integral unknown: some coefficient or
    the target over den is not p-integral.  Beside identity rows no other
    row cuts anything."""
    nums, t, den = row
    pv = p ** _vint(den, p)
    return t % pv != 0 or any(x % pv for x in nums)


def conj_condition_rows(left: Mat2, right: Mat2) -> list[Row]:
    """Rows expressing the components of left * X * right for rational X.

    X is a rational 2x2 unknown (4 coordinates, row-major).  Entry (i, j) of
    left * E_st * right is left_is * right_tj; each entry contributes two
    rows (its 1 and sqrt(r) components), in row-major entry order, with
    target 0 over the product of the two blocks' denominators.
    """
    L, R = left._xy, right._xy
    r = left.ctx.r
    den = left._d * right._d
    rows = []
    for i in range(2):
        for j in range(2):
            # (x + y sqrt r) of left_is and right_tj, coordinate k = 2s + t of X
            pairs = [(L[4 * i + 2 * s], L[4 * i + 2 * s + 1], R[4 * t + 2 * j], R[4 * t + 2 * j + 1]) for s in range(2) for t in range(2)]
            rows.append(([ux * vx + r * uy * vy for ux, uy, vx, vy in pairs], 0, den))
            rows.append(([ux * vy + uy * vx for ux, uy, vx, vy in pairs], 0, den))
    return rows


def kck_membership(g: Mat2, cell: Mat2):
    """Decide g in GL2(Z_p) * cell * GL2(O_F), with witnesses.

    Returns (k, kappa) with g = k * cell * kappa, or None.  The set
    {x : cell^-1 x g in M2(O_F), x in M2(Z_p)} is an exact Z_p-lattice;
    a point of unit determinant in it is the first residue class of
    lattice_residues with a unit determinant, or shown not to exist (the
    determinant mod p is a quadratic form on the reduction, so emptiness
    mod p settles exact emptiness).
    """
    ctx = g.ctx
    p = ctx.p
    if g.det_val() != cell.det_val():
        return None
    cell_inv = cell.inv()
    free, _, classes = lattice_residues(identity_rows() + conj_condition_rows(cell_inv, g), p)
    coefs = next((c for c, v in classes if (v[0] * v[3] - v[1] * v[2]) % p), None)
    if coefs is None:
        return None
    den = lcm(*(w for _, w in free))
    nums = [sum(c * col[i] * (den // w) for c, (col, w) in zip(coefs, free)) for i in range(4)]
    x = _mat((nums[0], 0, nums[1], 0, nums[2], 0, nums[3], 0), den, ctx)
    kappa = cell_inv * x * g
    k = x.inv()
    if not (x.in_K_base() and kappa.in_KF()):
        raise AssertionError("KcK witnesses are not in K")
    return k, kappa


# ---------------------------------------------------------------------------
# the P(Q_p) t_a n_b G(O_F) labels


@dataclass(frozen=True)
class CosetWitness:
    label: tuple
    left: Mat2
    right: Mat2
    kind: str  # "pgk" or "cartan"

    def to_json(self) -> dict:
        if self.kind == "pgk":
            lab = {"a": self.label[0], "b": self.label[1]}
        else:
            lab = {"nu2": self.label[0], "nu1": self.label[1], "nu": self.label[2]}
        return {"label": lab, "left": self.left.to_json(), "right": self.right.to_json()}


def pgk_canonical(a: int, b: int, ctx: QuadCtx) -> Mat2:
    """t_a * n_b = [[p^a, p^(a-b) sqrt r], [0, p^a]]."""
    return _p_power_block(a, a - b, a, ctx)


def pgk_label(g: Mat2) -> CosetWitness:
    """Unique (a, b) with g in P(Q_p) t_a n_b G(O_F), plus witnesses.

    With the pivot y and the entry x above it (_bottom_pivot), the column
    operation that clears the bottom row to (0, p^a), a = v(y), leaves the
    top row (A, B) with A = +-det/y and B = p^a x/y.  b and the mirabolic
    witness q are read off u = x/y and v(A) = v(det) - a; the right witness
    is (q t_a n_b)^-1 g.
    """
    ctx = g.ctx
    p = ctx.p
    e = g._xy
    j, (X, Y) = _bottom_pivot(e, ctx)
    vD = _vint(g._d, p)
    a = _vquad(e[2 * j], e[2 * j + 1], p) - vD
    vA = _vquad(X, Y, p) - 2 * vD - a
    # u = x/y = (ux + uy sqrt r) / n; v(B_b) = a + v(uy) - v(n)
    ux, uy, n = _quot(e[2 * j - 4], e[2 * j - 3], e[2 * j], e[2 * j + 1], ctx.r)
    b = max(0, vA - a - _vint(uy, p) + _vint(n, p)) if uy else 0
    # q = [[q1, u_a], [0, 1]] in P(Q_p) with (A, B; 0, p^a) in q * (t_a n_b) * GL2(O_F):
    # q1 = u_b p^b when b > 0, else p^(vA - a); q1 = n1 / d1
    if b > 0:
        n1, d1 = uy * p ** b, n
    else:
        n1, d1 = (p ** (vA - a), 1) if vA >= a else (1, p ** (a - vA))
    q = _mat((n1 * n, 0, ux * d1, 0, 0, 0, d1 * n, 0), d1 * n, ctx)
    qM = q * pgk_canonical(a, b, ctx)
    right = qM.inv() * g
    if not right.in_KF():
        raise AssertionError("pgk_label: the right witness is not in GL2(O_F)")
    return CosetWitness((a, b), q, right, "pgk")


# ---------------------------------------------------------------------------
# generalized Cartan labels


def cartan_cell(nu2: int, nu1: int, nu: int, ctx: QuadCtx) -> Mat2:
    """t(1, nu)^-1 n_alpha^t t(nu2, nu1)^-1 = [[p^-nu2, sqrt(r) p^-nu1], [0, p^-nu-nu1]]."""
    return _p_power_block(-nu2, -nu1, -nu - nu1, ctx)


def gen_cartan_candidates(g: Mat2) -> list[tuple[int, int, int]]:
    mu = g.min_val()
    vdet = g.det_val()
    nu_plus_nu1 = -mu
    nu2 = -vdet - nu_plus_nu1
    out = []
    for nu1 in range(nu2, nu_plus_nu1 + 1):
        nu = nu_plus_nu1 - nu1
        if nu >= 0 and nu1 >= nu2:
            out.append((nu2, nu1, nu))
    return out


def _adj_mul_val(g: Mat2, xy: Sequence[int]):
    """v(adj(B) xy) for g = B / D on its integer block and the eight ints
    xy of a block h: the least valuation of the eight numerators of that
    product, INF when it is 0."""
    p, r = g.ctx.p, g.ctx.r
    a0, a1, b0, b1, c0, c1, d0, d1 = g._xy
    e0, e1, f0, f1, s0, s1, t0, t1 = xy
    # adj(B) = [[d, -b], [-c, a]] times [[e, f], [s, t]], entry by entry
    n = gcd(
        d0 * e0 - b0 * s0 + r * (d1 * e1 - b1 * s1), d0 * e1 + d1 * e0 - b0 * s1 - b1 * s0,
        d0 * f0 - b0 * t0 + r * (d1 * f1 - b1 * t1), d0 * f1 + d1 * f0 - b0 * t1 - b1 * t0,
        a0 * s0 - c0 * e0 + r * (a1 * s1 - c1 * e1), a0 * s1 + a1 * s0 - c0 * e1 - c1 * e0,
        a0 * t0 - c0 * f0 + r * (a1 * t1 - c1 * f1), a0 * t1 + a1 * t0 - c0 * f1 - c1 * f0,
    )
    return _vint(n, p) if n else INF


def _inv_mul_val(g: Mat2, xy: Sequence[int], d: int):
    """min_val(g^-1 h) for h the matrix of the eight ints xy over d > 0,
    building neither g^-1 nor h: with g = B / D, g^-1 h = (D / d) adj(B) xy
    / det(B), so it is v(adj(B) xy) on the integer block, plus v(D) - v(d),
    minus v(det B).  A singular g raises ZeroDivisionError."""
    X, Y = g._det2()
    if not (X or Y):
        raise ZeroDivisionError("singular matrix")
    p = g.ctx.p
    return _adj_mul_val(g, xy) + _vint(g._d, p) - _vint(d, p) - _vquad(X, Y, p)


def _cartan_invariants(g: Mat2) -> tuple:
    """(min_val(g), v(det g), min_val(g^-1 sigma(g))), sigma the conjugation
    of F/Q_p entrywise: the invariants that pin g's generalized Cartan label
    (gen_cartan_label), reading det g and its valuation once.  sigma(g) is
    g's block with every y_i negated over the same D, so the twist is
    v(adj(B) sigma(B)) - v(det B) (_inv_mul_val).  A singular g raises
    ZeroDivisionError."""
    X, Y = g._det2()
    if not (X or Y):
        raise ZeroDivisionError("singular matrix")
    p = g.ctx.p
    a0, a1, b0, b1, c0, c1, d0, d1 = g._xy
    vdet = _vquad(X, Y, p)
    twist = _adj_mul_val(g, (a0, -a1, b0, -b1, c0, -c1, d0, -d1)) - vdet
    return g.min_val(), vdet - 2 * _vint(g._d, p), twist


def gen_cartan_label(g: Mat2, all_matches: bool = False):
    """Unique (nu2 <= nu1, nu >= 0) with g in G(Z_p) cell G(O_F), witnesses.

    Three invariants pin the label; one lattice test gives its witnesses.
    For g = k c kappa, k in GL2(Z_p), kappa in GL2(O_F), sigma fixes k, so
    g^-1 sigma(g) = kappa^-1 (c^-1 sigma(c)) sigma(kappa) and its minimal
    entry valuation is an invariant; for c = cartan_cell(nu2, nu1, nu) it is
    that of c^-1 sigma(c) = [[1, -2 sqrt(r) p^(nu2-nu1)], [0, 1]], nu2 - nu1
    (2 and r are units).  With s = -min_val(g) = nu + nu1 and
    v(det g) = -(nu2 + nu1 + nu), the label is read off and every other
    cell is excluded.  The min(0, .) keeps nu1 >= nu2, so any label
    returned is canonical and kck_membership's verified witnesses prove it.
    all_matches returns the match as a list, [] when there is none.
    """
    mv, vdet, twist = _cartan_invariants(g)
    nu2 = mv - vdet
    nu1 = nu2 - min(0, twist)
    nu = -mv - nu1
    wit = kck_membership(g, cartan_cell(nu2, nu1, nu, g.ctx)) if nu >= 0 else None
    matches = [] if wit is None else [CosetWitness((nu2, nu1, nu), wit[0], wit[1], "cartan")]
    if all_matches:
        return matches
    if not matches:
        raise DecompositionError("no generalized Cartan cell found (engine bug)")
    return matches[0]


# ---------------------------------------------------------------------------
# single cosets of K t(lam, 0) K


def coset_reps(lam: int, ctx: QuadCtx, quadratic: bool) -> list[Mat2]:
    """Single cosets x_i GL2(O) covering GL2(O) t(lam, 0) GL2(O), O = O_F
    (quadratic) or Z_p: [[p^lam, b], [0, 1]] for b mod p^lam, then
    [[p^i, b], [0, p^(lam-i)]] for 0 < i < lam and b a unit mod p^i, then
    diag(1, p^lam)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0:
        return [Mat2.identity(ctx)]
    p = ctx.p
    out = [_mat((p ** lam, 0, x, y, 0, 0, 1, 0), 1, ctx) for x, y in _of_residues(p, lam, quadratic)]
    for i in range(1, lam):
        for x, y in _of_residues(p, i, quadratic):
            if x % p or y % p:  # b a unit
                out.append(_mat((p ** i, 0, x, y, 0, 0, p ** (lam - i), 0), 1, ctx))
    out.append(_mat((1, 0, 0, 0, 0, 0, p ** lam, 0), 1, ctx))
    return out


def _of_residues(p: int, L: int, quadratic: bool) -> list[tuple[int, int]]:
    """The residues x + y sqrt(r) of O mod p^L as (x, y), y = 0 for O = Z_p."""
    q = p ** L
    if quadratic:
        return [(x, y) for x in range(q) for y in range(q)]
    return [(x, 0) for x in range(q)]


# ---------------------------------------------------------------------------
# exact volumes of congruence-type subgroups of GL2(Z_p)


def subgroup_volume(p: int, branches: list[list[Row]], det_mode: str) -> Fraction:
    """Haar volume (vol GL2(Z_p) = 1) of the gamma in GL2(Z_p) that meet the
    rows of one of the disjoint branches, stacked under the identity rows,
    with det gamma a unit (det_mode "unit") or 1 mod p ("one_mod_p").

    Exact at every odd p: the lattice measure of each branch, with the
    determinant condition read mod p, over vol GL2(Z_p) = |GL2(F_p)| / p^4
    in the additive measure of M2(Z_p); no large enumeration.
    """
    unit = det_mode == "unit"

    def accept(x):
        det = (x[0] * x[3] - x[1] * x[2]) % p
        return det != 0 if unit else det == 1

    total = sum((lattice_measure(identity_rows() + rows, p, accept) for rows in branches), Fraction(0))
    return total * p ** 4 / ((p ** 2 - 1) * (p ** 2 - p))
