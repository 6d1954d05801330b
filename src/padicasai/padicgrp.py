"""2x2 matrix groups over Q_p and its unramified quadratic extension.

Provides exact Iwasawa decomposition, the mirabolic coset labels
P(Q_p) t_a n_b G(O_F) (with witnesses), the generalized Cartan labels
G(Z_p) \\ G(F) / G(O_F) (decided by an exact lattice computation, no
precision cap), and the single cosets of K t(lam, 0) K.

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
takes its first class of unit determinant as the Cartan witness.

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

Matrices are immutable; every decomposition returns witnesses and is
re-verified by exact multiplication before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactnum import QuadCtx, QuadElem, _vint, val_p


class DecompositionError(AssertionError):
    """A coset decomposition the theory guarantees could not be found."""


# ---------------------------------------------------------------------------
# matrices


class Mat2:
    """2x2 matrix with QuadElem entries over a fixed quadratic context."""

    __slots__ = ("e", "ctx")

    def __init__(self, entries: Sequence, ctx: QuadCtx):
        self.ctx = ctx
        self.e = tuple(x if isinstance(x, QuadElem) else QuadElem(x, 0, ctx) for x in entries)
        if len(self.e) != 4:
            raise ValueError("need 4 entries")

    # constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, ctx: QuadCtx) -> "Mat2":
        return cls([1, 0, 0, 1], ctx)

    @classmethod
    def diag(cls, a, b, ctx: QuadCtx) -> "Mat2":
        return cls([a, 0, 0, b], ctx)

    @classmethod
    def t(cls, a: int, b: int, ctx: QuadCtx) -> "Mat2":
        """diag(p^a, p^b)."""
        p = Fraction(ctx.p)
        return cls.diag(p ** a, p ** b, ctx)

    @classmethod
    def upper(cls, u, ctx: QuadCtx) -> "Mat2":
        return cls([1, u, 0, 1], ctx)

    @classmethod
    def lower(cls, u, ctx: QuadCtx) -> "Mat2":
        return cls([1, 0, u, 1], ctx)

    @classmethod
    def n_b(cls, b: int, ctx: QuadCtx) -> "Mat2":
        """The basis unipotent [[1, sqrt(r) p^-b], [0, 1]]."""
        return cls.upper(QuadElem(0, Fraction(1, ctx.p ** b) if b >= 0 else Fraction(ctx.p) ** (-b), ctx), ctx)

    # ring / group ops ------------------------------------------------------

    def __mul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self.e
        x, y, z, w = other.e
        return Mat2([a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w], self.ctx)

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.e == other.e and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.r) + tuple((x.x, x.y, x.d) for x in self.e))

    def det(self) -> QuadElem:
        a, b, c, d = self.e
        return a * d - b * c

    def inv(self) -> "Mat2":
        dt = self.det()
        if dt == self.ctx.zero():
            raise ZeroDivisionError("singular matrix")
        a, b, c, d = self.e
        di = dt.inv()
        return Mat2([d * di, -b * di, -c * di, a * di], self.ctx)

    def scale(self, s) -> "Mat2":
        return Mat2([x * s for x in self.e], self.ctx)

    # predicates ------------------------------------------------------------

    def min_val(self):
        return min(x.val() for x in self.e)

    def det_val(self):
        return val_p(self.det(), self.ctx.p)

    def is_integral(self) -> bool:
        return all(x.is_integral() for x in self.e)

    def in_KF(self) -> bool:
        """Membership in GL2(O_F)."""
        return self.is_integral() and self.det().is_unit()

    def in_K_base(self) -> bool:
        """Membership in GL2(Z_p)."""
        return (
            all(x.is_rational() and x.is_integral() for x in self.e)
            and self.det().is_unit()
        )

    def is_rational(self) -> bool:
        return all(x.is_rational() for x in self.e)

    def cartan_spread(self) -> int:
        """Difference of the two elementary-divisor exponents."""
        mv = self.min_val()
        return abs(self.det_val() - 2 * mv)

    def __repr__(self):
        return f"[[{self.e[0]!r}, {self.e[1]!r}], [{self.e[2]!r}, {self.e[3]!r}]]"

    def to_json(self) -> list:
        return [[self.e[0].to_json(), self.e[1].to_json()], [self.e[2].to_json(), self.e[3].to_json()]]

    @classmethod
    def from_json(cls, d, ctx: QuadCtx) -> "Mat2":
        return cls([QuadElem.from_json(x, ctx) for row in d for x in row], ctx)


# ---------------------------------------------------------------------------
# Iwasawa decomposition over F


@dataclass(frozen=True)
class IwasawaParts:
    u: QuadElem
    f1: QuadElem
    f2: QuadElem
    kappa: Mat2

    def reassemble(self, ctx: QuadCtx) -> Mat2:
        return Mat2.upper(self.u, ctx) * Mat2.diag(self.f1, self.f2, ctx) * self.kappa


def _bottom_pivot(g: Mat2):
    """(x, y, det) for g = [[a, b], [c, d]]: (x, y) = (b, d) when
    v(c) >= v(d), else (a, c), so y is the bottom-row entry of least
    valuation and x the entry above it.  A singular g raises ZeroDivisionError.
    """
    a, b, c, d = g.e
    det = g.det()
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return (b, d, det) if c.val() >= d.val() else (a, c, det)


def iwasawa_F(g: Mat2) -> IwasawaParts:
    """g = n(u) diag(f1, f2) kappa with kappa in GL2(O_F).

    In closed form from (x, y, det) = _bottom_pivot(g): u = x/y, f1 = det/y,
    f2 = y, and kappa = [[1, 0], [c/d, 1]] when y = d, [[0, -1], [1, d/c]]
    when y = c; kappa is integral because v(y) is least in the bottom row.
    """
    ctx = g.ctx
    x, y, det = _bottom_pivot(g)
    c, d = g.e[2], g.e[3]
    yi = y.inv()
    kappa = Mat2([1, 0, c * yi, 1], ctx) if y is d else Mat2([0, -1, 1, d * yi], ctx)
    parts = IwasawaParts(x * yi, det * yi, y, kappa)
    if parts.reassemble(ctx) != g:
        raise AssertionError("Iwasawa witnesses do not reassemble g")
    if not kappa.in_KF():
        raise AssertionError("Iwasawa kappa is not in GL2(O_F)")
    return parts


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
    column rank (callers stack identity rows, so this always holds).
    """
    n = len(rows[0][0])
    t, tden, exps, V, w = plocal_smith(rows, p)
    if len(exps) < n:
        raise ValueError("condition matrix not of full column rank")
    # row i >= n of D is zero: it asks t[i]/tden[i] in Z_p
    if any(t[i] and _vint(t[i], p) < _vint(tden[i], p) for i in range(n, len(rows))):
        return None
    # x0 = V y, y[i] = t[i]/tden[i] * p^-exps[i], over one denominator
    ys = [(i, t[i] * p ** max(0, -exps[i]), tden[i] * w[i] * p ** max(0, exps[i])) for i in range(n) if t[i]]
    den = lcm(*(d for _, _, d in ys))
    x0 = [sum(V[r][i] * y * (den // d) for i, y, d in ys) for r in range(n)]
    return (x0, den), [([r[i] for r in V], w[i], exps[i]) for i in range(n)]


def _mod_p(nums: list[int], den: int, p: int) -> list[int]:
    """The vector nums/den mod p; ValueError when it is not p-integral."""
    pv = p ** _vint(den, p)
    if any(x % pv for x in nums):
        raise ValueError("lattice not contained in Z_p^n")
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
    raises ValueError.

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
        raise ValueError("lattice not contained in Z_p^n")
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


def conj_condition_rows(left: Mat2, right: Mat2) -> list[Row]:
    """Rows expressing the components of left * X * right for rational X.

    X is a rational 2x2 unknown (4 coordinates, row-major).  Entry (i, j) of
    left * E_rs * right is left_ir * right_sj; each entry contributes two
    rows (its 1 and sqrt(r) components), in row-major entry order, with
    target 0 and one denominator, the lcm of the d d' of its products.
    """
    L, R = left.e, right.e
    r = left.ctx.r
    rows = []
    for i in range(2):
        for j in range(2):
            # the products (x + y sqrt r)/d on integer coordinates
            pairs = [(u, v) for u in L[2 * i:2 * i + 2] for v in (R[j], R[2 + j])]
            den = lcm(*(u.d * v.d for u, v in pairs))
            cs = [den // (u.d * v.d) for u, v in pairs]
            rows.append(([(u.x * v.x + r * u.y * v.y) * c for (u, v), c in zip(pairs, cs)], 0, den))
            rows.append(([(u.x * v.y + u.y * v.x) * c for (u, v), c in zip(pairs, cs)], 0, den))
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
    x = Mat2([Fraction(sum(c * col[i] * (den // w) for c, (col, w) in zip(coefs, free)), den) for i in range(4)], ctx)
    kappa = cell_inv * x * g
    k = x.inv()
    if not (x.in_K_base() and kappa.in_KF()):
        raise AssertionError("KcK witnesses are not in K")
    if k * cell * kappa != g:
        raise AssertionError("KcK witnesses do not reassemble g")
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
    p = Fraction(ctx.p)
    return Mat2(
        [QuadElem(p ** a, 0, ctx), QuadElem(0, p ** (a - b), ctx), ctx.zero(), QuadElem(p ** a, 0, ctx)],
        ctx,
    )


def pgk_label(g: Mat2) -> CosetWitness:
    """Unique (a, b) with g in P(Q_p) t_a n_b G(O_F), plus witnesses.

    With (x, y, det) = _bottom_pivot(g), the column operation that clears
    the bottom row to (0, p^a), a = v(y), leaves the top row (A, B) with
    A = +-det/y and B = p^a x/y.  b and the mirabolic witness q are read
    off B and v(A) = v(det) - a; the right witness is (q t_a n_b)^-1 g.
    """
    ctx = g.ctx
    p = ctx.p
    x, y, det = _bottom_pivot(g)
    a = y.val()
    pa = Fraction(p) ** a
    B = x / y * pa
    vA = det.val() - a
    # v(B_b), B = (x + y sqrt r) / d
    b = max(0, vA - val_p(B.y, p) + val_p(B.d, p)) if B.y else 0
    # q in P(Q_p) with (A, B; 0, p^a) in q * (t_a n_b) * GL2(O_F)
    if b > 0:
        q1 = B.b * Fraction(p) ** (b - a)
    else:
        q1 = Fraction(p) ** (vA - a)
    q2 = B.a / pa
    q = Mat2([QuadElem(q1, 0, ctx), QuadElem(q2, 0, ctx), ctx.zero(), ctx.one()], ctx)
    qM = q * pgk_canonical(a, b, ctx)
    right = qM.inv() * g
    if not right.in_KF():
        raise AssertionError("pgk_label: the right witness is not in GL2(O_F)")
    if qM * right != g:
        raise AssertionError("pgk_label witnesses do not reassemble g")
    return CosetWitness((a, b), q, right, "pgk")


# ---------------------------------------------------------------------------
# generalized Cartan labels


def cartan_cell(nu2: int, nu1: int, nu: int, ctx: QuadCtx) -> Mat2:
    """t(1, nu)^-1 n_alpha^t t(nu2, nu1)^-1 = [[p^-nu2, sqrt(r) p^-nu1], [0, p^-nu-nu1]]."""
    p = Fraction(ctx.p)
    return Mat2(
        [
            QuadElem(p ** (-nu2), 0, ctx),
            QuadElem(0, p ** (-nu1), ctx),
            ctx.zero(),
            QuadElem(p ** (-nu - nu1), 0, ctx),
        ],
        ctx,
    )


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


def gen_cartan_label(g: Mat2, all_matches: bool = False):
    """Unique (nu2 <= nu1, nu >= 0) with g in G(Z_p) cell G(O_F), witnesses.

    Candidates are pinned by two exact invariants (minimal entry valuation
    and v_p(det)); each is decided by the lattice membership test.
    """
    if g.det() == g.ctx.zero():
        raise ZeroDivisionError("singular matrix")
    matches = []
    for nu2, nu1, nu in gen_cartan_candidates(g):
        cell = cartan_cell(nu2, nu1, nu, g.ctx)
        wit = kck_membership(g, cell)
        if wit is not None:
            matches.append(CosetWitness((nu2, nu1, nu), wit[0], wit[1], "cartan"))
    if all_matches:
        return matches
    if not matches:
        raise DecompositionError("no generalized Cartan cell found (engine bug)")
    if len(matches) > 1:
        raise DecompositionError(f"duplicate Cartan cells: {[m.label for m in matches]}")
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
    p = Fraction(ctx.p)
    out = [Mat2([p ** lam, b, 0, 1], ctx) for b in _of_residues(ctx, lam, quadratic)]
    for i in range(1, lam):
        for b in _of_residues(ctx, i, quadratic):
            if b.val() == 0:
                out.append(Mat2([p ** i, b, 0, p ** (lam - i)], ctx))
    out.append(Mat2([1, 0, 0, p ** lam], ctx))
    return out


def _of_residues(ctx: QuadCtx, L: int, quadratic: bool) -> list[QuadElem]:
    q = ctx.p ** L
    if quadratic:
        return [QuadElem(a, b, ctx) for a in range(q) for b in range(q)]
    return [QuadElem(a, 0, ctx) for a in range(q)]


# ---------------------------------------------------------------------------
# exact volumes of congruence-type subgroups of GL2(Z_p)


@dataclass
class SubgroupConditions:
    """H = {gamma in GL2(Z_p): gamma = x0 + lattice, det in D} for one or
    more disjoint affine branches (a stabilizer has one per cell bijection).

    branches: one list of condition rows (Row: nums, t, den) per affine
    branch; the rows always include the four identity rows so the condition
    matrix has full column rank.  det_mode: "unit" or "one_mod_p".
    """

    p: int
    branches: list[list[Row]]
    det_mode: str = "unit"


def subgroup_volume(cond: SubgroupConditions) -> Fraction:
    """Haar volume (vol GL2(Z_p) = 1) of the condition set.

    Exact at every odd p: the lattice measure of each branch, with the
    determinant condition read mod p, over vol GL2(Z_p) = |GL2(F_p)| / p^4
    in the additive measure of M2(Z_p); no large enumeration.
    """
    p = cond.p
    unit = cond.det_mode == "unit"

    def accept(x):
        det = (x[0] * x[3] - x[1] * x[2]) % p
        return det != 0 if unit else det == 1

    total = sum((lattice_measure(rows, p, accept) for rows in cond.branches), Fraction(0))
    return total * p ** 4 / ((p ** 2 - 1) * (p ** 2 - p))
