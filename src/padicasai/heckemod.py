"""The Hecke-module layer: integral test vectors and their local factors.

A test vector is a finite Q-combination of pairs (Schwartz function, group
element) at level K or determinant level K[p], the module element
phi (x) ch(gK) in the G(Q_p)-coinvariants.  The normalized period pairs a
level-K vector with Z(phi, g . W_sph, s); freeness of the module over the
spherical Hecke algebra attaches to each vector its unique local factor,

    P_delta . (ch(Z_p^2) (x) ch(K)) = delta,

which this module computes by inverse Satake transform of the normalized
period value (with the inversion bookkeeping xi -> xi((-)^(-1)) of the
convolution action made explicit).  The chain through the mirabolic coset
space (the equivariant map into functions on P(Q_p)\\G(F)/K and the
explicit weights 1 and (p-1)p^(b-1)) yields constructive ideal-membership
certificates for the traced factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod
from typing import Sequence

from .exactnum import Lau, QuadCtx, QuadElem, in_z_inv_p, val_p
from .heckealg import (
    HeckeElem,
    HeckeIdealCert,
    NotMember,
    euler_poly,
    ideal_cert,
    inv_satake,
    involution,
    satake,
)
from .padicgrp import (
    Mat2,
    Row,
    _cartan_invariants,
    _inv_mul_val,
    conj_condition_rows,
    constrains,
    coset_reps,
    lattice_measure,
    plocal_smith,  # not called here: bench/spans.py REQUIRED_SITES traces this import site
    subgroup_volume,
)
from .whitzeta import (
    SchwartzFn,
    VS_INERT,
    VS_SPLIT,
    ZetaResult,
    _shintani,
    chain_operators,
    godement_section,
    zeta_asai,
    zeta_rs_split,
)


# ---------------------------------------------------------------------------
# test vectors


@dataclass
class TestVector:
    """Formal combination sum coef * (phi (x) ch(g U)) at a stated level.

    A summand is (phi, gs, coef), gs the tuple of g's components: (g,) over
    F when case is "inert", the pair (g1, g2) over Q_p when it is "split".
    level: "K" or "K[p]"; star: True for the determinant-fibered subgroup.
    """

    __test__ = False  # not a pytest class

    ctx: QuadCtx
    case: str
    level: str
    summands: list  # (SchwartzFn, (Mat2,) | (Mat2, Mat2), Fraction)
    star: bool = False

    def __post_init__(self):
        if self.case not in ("inert", "split"):
            raise ValueError(f"vector case must be 'inert' or 'split', not {self.case!r}")
        if self.level not in ("K", "K[p]"):
            raise ValueError(f"vector level must be 'K' or 'K[p]', not {self.level!r}")
        n = 2 if self.case == "split" else 1
        for phi, gs, c in self.summands:
            if not (isinstance(gs, tuple) and len(gs) == n and all(isinstance(g, Mat2) for g in gs)):
                raise ValueError(f"term field 'g' of a {self.case} vector must be a tuple of {n} Mat2")
            if not all(any(gi._det2()) for gi in gs):
                raise ValueError("group elements must be invertible")
            if self.star and self.case == "split" and gs[0].det() != gs[1].det():
                raise ValueError("G* pair needs equal determinants")
            if self.star and self.case == "inert" and not gs[0].det().is_rational():
                raise ValueError("G* element needs rational determinant")

    def __add__(self, other: "TestVector") -> "TestVector":
        if (self.case, self.level, self.star) != (other.case, other.level, other.star):
            raise ValueError("test vectors of different case, level or star do not add")
        return TestVector(self.ctx, self.case, self.level, self.summands + other.summands, self.star)

    @property
    def terms(self) -> list:
        """The summands (phi, g, coef), g as in the JSON form: one Mat2 inert, the pair split."""
        return [(phi, gs[0] if self.case == "inert" else gs, c) for phi, gs, c in self.summands]

    def to_json(self) -> dict:
        terms = [{"phi": phi.to_json(), "g": g.to_json() if self.case == "inert" else [m.to_json() for m in g],
                  "coef": str(c)} for phi, g, c in self.terms]
        return {"case": self.case, "level": self.level, "star": self.star, "terms": terms}


def generator_vector(ctx: QuadCtx, case: str = "inert") -> TestVector:
    gs = (Mat2.identity(ctx),) * (2 if case == "split" else 1)
    return TestVector(ctx, case, "K", [(SchwartzFn.char_zp2(ctx.p), gs, Fraction(1))])


# ---------------------------------------------------------------------------
# integrality against the stabilizer-volume lattices


def _cell_bijections(phi: SchwartzFn):
    """(M, ints, gens, perms): the sorted cells' centres as integer pairs
    P c mod M = P p^N, P = p^m the largest centre denominator, so M is an
    int at a negative level too (there a nonzero centre has m > -N); the
    indices of at most two generating cells; and, as index lists, the
    coefficient-preserving cell permutations a linear gamma can induce,
    identity first.  The origin cell alone, at any level, has no generator
    and only the identity, and no p-power is built for it.  The centres
    are generated (Nakayama; Atiyah-Macdonald, Prop. 2.8) by c1 of least
    valuation and, with u = c1 / p^v(c1), c2 of least v(det(u, c)) among
    det(u, c) != 0.  Each centre is a c1 + b c2, a, b in Z_p, so the
    generators' images force all others; a choice is kept when those are
    distinct cells with equal coefficients.
    """
    p, cells = phi.p, sorted(phi.cells)
    if cells == [(0, 0)]:
        return 1, [(0, 0)], [], [[0]]
    P = max(x.denominator for c in cells for x in c)
    M = int(P * Fraction(p) ** phi.level)
    ints = [(x.numerator * (P // x.denominator), y.numerator * (P // y.denominator)) for x, y in cells]
    n = len(ints)
    vals = [gcd(x, y, M) for x, y in ints]  # p^v(c), or M for c = 0
    k1 = vals.index(min(vals))
    gens, coords = [], [(0, 0)] * n
    if vals[k1] < M:
        pv = vals[k1]
        u = (ints[k1][0] // pv, ints[k1][1] // pv)
        i = 0 if u[0] % p else 1  # a unit coordinate of u
        dets = [(u[0] * y - u[1] * x) % M for x, y in ints]
        k2 = min(range(n), key=lambda k: gcd(dets[k], M))
        pv2 = gcd(dets[k2], M)  # p^v(det(u, c2)), or M when c2 is missing
        gens = [k1, k2] if pv2 < M else [k1]
        d2_inv = pow(dets[k2] // pv2, -1, M) if pv2 < M else 0
        u_inv = pow(u[i], -1, M)
        coords = []
        for c, d in zip(ints, dets):
            # b = det(u, c) / det(u, c2), then a from a c1 = c - b c2 at coordinate i
            b = d // pv2 * d2_inv % M
            coords.append(((c[i] - b * ints[k2][i]) % M // pv * u_inv % M, b))
    index = {c: k for k, c in enumerate(ints)}
    coef = [phi.cells[c] for c in cells]
    choices = [[g] + [k for k in range(n) if k != g and coef[k] == coef[g]] for g in gens]
    perms = []
    for images in product(*choices):
        # a missing generator has image 0 (and b = 0 when c2 is missing)
        (x1, y1), (x2, y2) = [ints[k] for k in images] + [(0, 0)] * (2 - len(images))
        perm = [index.get(((a * x1 + b * x2) % M, (a * y1 + b * y2) % M)) for a, b in coords]
        if None not in perm and len(set(perm)) == n and all(coef[k] == coef[j] for k, j in enumerate(perm) if k != j):
            perms.append(perm)
    return M, ints, gens, perms


def stabilizer_conditions(phi: SchwartzFn, gs: Sequence[Mat2], ctx: QuadCtx) -> list[list[Row]]:
    """subgroup_volume's branches cutting out Stab(phi) cap g U g^-1 in GL2(Z_p).

    U is the maximal compact of the inert or split group (its determinant
    level is subgroup_volume's det_mode); gamma ranges over the base G(Q_p)
    so the split case conjugates the same rational gamma by both
    components.  A G* vector needs no condition of its own: for rational
    gamma in GL2(Z_p), det(g^-1 gamma g) = det gamma is a unit, so K* and K
    cut out the same stabilizer.  One branch per permutation of
    _cell_bijections, with the rows of the generating cells only: the other
    centres are Z_p-combinations of them and gamma preserves p^N Z_p^2, so
    their rows follow.  Every row constrains (a generator is nonzero mod M).
    """
    p = ctx.p
    if not phi.cells:
        raise ValueError("zero Schwartz function")
    # gamma -> g^-1 gamma g, on the rows gamma in M2(Z_p) does not already satisfy
    rows_core = [r for g in gs for r in conj_condition_rows(g.inv(), g) if constrains(r, p)]
    M, ints, gens, perms = _cell_bijections(phi)
    branches = []
    for perm in perms:
        rows = list(rows_core)
        for k in gens:
            # c * gamma = sigma(c) mod p^N, read on the integer centres mod M: two affine rows
            (x, y), (s, t) = ints[k], ints[perm[k]]
            rows += [([x, 0, y, 0], s, M), ([0, x, 0, y], t, M)]
        branches.append(rows)
    return branches


def integrality_check(phi: SchwartzFn, gs: Sequence[Mat2], level: str, ctx: QuadCtx):
    """(volume_inverse, is_integral) for one summand (phi, gs), gs as in TestVector.

    volume_inverse = vol(Stab(phi) cap g U g^-1)^(-1); the pair is integral
    when every cell value of phi lies in volume_inverse * Z[1/p].  The same
    for G* vectors (see stabilizer_conditions).
    """
    det_mode = "one_mod_p" if level == "K[p]" else "unit"
    vol = subgroup_volume(ctx.p, stabilizer_conditions(phi, gs, ctx), det_mode)
    if vol == 0:
        raise AssertionError("stabilizer volume vanished (engine bug)")
    vinv = Fraction(1) / vol
    ok = all(in_z_inv_p(c / vinv, ctx.p) for c in phi.cells.values())
    return vinv, ok


def vector_is_integral(vec: TestVector) -> bool:
    return all(integrality_check(phi.scale(c), gs, vec.level, vec.ctx)[1] for phi, gs, c in vec.summands)


# ---------------------------------------------------------------------------
# trace to full level


def trace_level(vec: TestVector) -> TestVector:
    """The trace map: phi (x) ch(g K[p]) -> phi (x) ch(g K).

    Summing the translates ch(g K[p] gamma^-1) over gamma in K/K[p] tiles
    g K exactly once, so on the module side the trace is the relabeling to
    full level (coefficient one).
    """
    if vec.level != "K[p]":
        raise ValueError("trace starts from determinant level")
    return TestVector(vec.ctx, vec.case, "K", list(vec.summands), vec.star)


# ---------------------------------------------------------------------------
# Hecke action on level-K vectors


@lru_cache(maxsize=16)
def _t_inverse_cosets(ctx: QuadCtx, fieldq: bool) -> tuple[Mat2, ...]:
    """Single cosets h_j K with K t(1,0)^-1 K = union h_j K.

    Memoized process-wide on (ctx, fieldq), at most 16 entries: every
    hecke_apply on one (ctx, case) steps T through the same p^2 + 1 (inert)
    or p + 1 (split) cosets.  A tuple of Mat2 is immutable, so sharing it is
    safe.
    """
    pinv = Fraction(1, ctx.p)
    return tuple(r.scale(pinv) for r in coset_reps(1, ctx, fieldq))


def hecke_apply(h: HeckeElem, vec: TestVector) -> TestVector:
    """h . (phi (x) ch(gK)) via xi . ch(gK) = sum_j ch(g h_j K),
    K t^-1 K = union h_j K; the monomial T1^a1 S1^b1 (T2^a2 S2^b2) acts on
    each component by its own (T, S) exponents.  S = p^-1 is central, so a
    component is scaled by S^b once, before its T-steps."""
    if vec.level != "K":
        raise ValueError("the spherical algebra acts at full level")
    if h.group != ("split_pair" if vec.case == "split" else "inert_F"):
        raise ValueError(f"a {h.group} element does not act on {vec.case} vectors")
    ctx = vec.ctx
    tcosets = _t_inverse_cosets(ctx, vec.case == "inert")
    out_terms = []
    for e, coef in h.poly.terms.items():
        for phi, gs, c in vec.summands:
            per_comp = []
            for gi, a, b in zip(gs, e[0::2], e[1::2]):
                cur = [gi.scale(Fraction(ctx.p) ** -b) if b else gi]
                for _ in range(a):
                    cur = [x * hj for x in cur for hj in tcosets]
                per_comp.append(cur)
            out_terms += [(phi, hs, c * coef) for hs in product(*per_comp)]
    return TestVector(ctx, vec.case, "K", out_terms, vec.star)


# ---------------------------------------------------------------------------
# the local factor


def _radial_profile(phi: SchwartzFn):
    """(N, ((m, coef), ...)) when phi is GL2(Z_p)-invariant, else None.
    GL2(Z_p)'s orbits on Q_p^2 are {0} and the shells p^m (Z_p^2 - p Z_p^2).
    At phi's level N the origin cell (m = N here) holds every shell m >= N,
    and the shell m < N is the (p^2 - 1) p^(2(N - m - 1)) cells with centres
    of valuation m: phi is invariant when each shell it meets has all of
    them, with one coefficient.  The profile then determines phi."""
    p, N = phi.p, phi.level
    shells: dict[int, list] = {}
    for (c1, c2), coef in phi.cells.items():
        shells.setdefault(min(val_p(c1, p), val_p(c2, p), N), []).append(coef)
    if any(len(set(cs)) > 1 or (m < N and len(cs) != (p * p - 1) * p ** (2 * (N - m - 1)))
           for m, cs in shells.items()):
        return None
    return N, tuple(sorted((m, cs[0]) for m, cs in shells.items()))


def _double_coset_key(gs: Sequence[Mat2]) -> tuple:
    """Invariants of gs -> k gs kappa that fix the double coset GL2(Z_p) gs U.

    Inert: the three invariants that pin g's generalized Cartan label
    (gen_cartan_label's docstring), read in one pass (_cartan_invariants).
    Split: min_val and
    det_val of g1 and g2, and min_val(g1^-1 g2).  The column lattices
    g_i Z_p^2 are vertices of the Bruhat-Tits tree (Serre, Trees, II 1.1)
    at distance det_val(g_i) - 2 min_val(g_i) from Z_p^2, the vertex that
    GL2(Z_p) fixes, and det_val(g2) - det_val(g1) - 2 min_val(g1^-1 g2)
    from each other: these fix the tripod of the three vertices.  GL2(Z_p)
    is transitive on the pairs of rays from Z_p^2 with a given branch
    length (on the ends P^1(Q_p), and the stabilizer x -> (a x + b) / d of
    the end infinity moves an end x to any with the same v(x) < 0, or any
    x in Z_p), so on the vertex pairs of one tripod; det_val fixes each
    lattice in its class."""
    if len(gs) == 1:
        return _cartan_invariants(*gs)
    g1, g2 = gs
    return g1.min_val(), g1.det_val(), g2.min_val(), g2.det_val(), _inv_mul_val(g1, *g2.int_block())


def period_value(vec: TestVector) -> ZetaResult:
    """The zeta pairing of a level-K vector: its terms share one denominator,
    so their numerators add.

    For k in Stab(phi) cap GL2(Z_p) and kappa in U, substituting h -> h k
    in Z(phi, g . W_sph) = int phi((0, 1) h) W_sph(h g) ... dh gives
    Z(phi, k g . W_sph), and W_sph is spherical, so Z(phi, k g kappa . W_sph)
    = Z(phi, g . W_sph).  A radial phi is fixed by all of GL2(Z_p), so its
    terms run one engine call per class (_radial_profile(phi),
    _double_coset_key(gs)), and a class's second member is evaluated too,
    and must agree; any other phi runs one call per term.
    """
    if vec.level != "K":
        raise ValueError("the period pairs with level-K vectors")
    ctx = vec.ctx
    classes: dict = {}
    # by id, as hecke_apply's terms share phi: the index of phi's radial
    # profile among the distinct ones, so no term's key hashes its Fractions
    profiles: dict[int, int | None] = {}
    indices: dict[tuple, int] = {}
    for i, (phi, gs, c) in enumerate(vec.summands):
        if id(phi) not in profiles:
            prof = _radial_profile(phi)
            profiles[id(phi)] = None if prof is None else indices.setdefault(prof, len(indices))
        key = i if profiles[id(phi)] is None else (profiles[id(phi)], _double_coset_key(gs))
        members, total = classes.get(key, ([], 0))
        classes[key] = ((members + [(phi, gs)])[:2], total + c)
    num = Lau(VS_SPLIT if vec.case == "split" else VS_INERT)
    for members, total in classes.values():
        zs = [(zeta_rs_split(phi, gs, ctx) if vec.case == "split" else zeta_asai(phi, *gs, ctx)).num
              for phi, gs in members]
        if zs[-1] != zs[0]:
            raise AssertionError("two terms of one double-coset class have different zeta integrals")
        num = num + zs[0] * total
    return ZetaResult(num, vec.case, "period_value", ctx.p)


def local_factor(vec: TestVector) -> HeckeElem:
    """The unique spherical operator with P . generator = delta."""
    return factor_of_period(period_value(vec))


def factor_of_period(period: ZetaResult) -> HeckeElem:
    """The local factor of a vector with the given period value.

    The normalized period of delta equals Theta(P') (the convolution action
    twists by the inversion involution), so P is the involution of the
    inverse Satake transform of the period value.
    """
    sym, p = period.normalized(), period.p
    pprime = inv_satake(sym, "split_pair" if period.case == "split" else "inert_F", p)
    if satake(pprime, p) != sym:
        raise AssertionError("Satake round-trip of the local factor failed")
    return involution(pprime)


# ---------------------------------------------------------------------------
# the chain through the mirabolic coset space


def mirabolic_volume(g: Mat2) -> Fraction:
    """vol of P(Q_p) cap g GL2(O_F) g^-1, normalized with vol(P(Z_p)) = 1.

    Elements [[1 + x, beta], [0, 1]]: the lattice measure of the integral
    (x, beta) with g^-1 [[x, beta], [0, 0]] g in M2(O_F) and 1 + x a unit,
    over the measure 1 - 1/p of P(Z_p) in these coordinates.
    """
    p = g.ctx.p
    rows = [([1, 0], 0, 1), ([0, 1], 0, 1)]
    # the E_11 and E_12 columns: x and beta
    rows += [r for nums, t, den in conj_condition_rows(g.inv(), g) if constrains(r := (nums[:2], t, den), p)]
    vol = lattice_measure(rows, p, lambda x: (1 + x[0]) % p != 0)
    return vol / (1 - Fraction(1, p))


def phi_c_weight(a: int, b: int, ctx: QuadCtx) -> Fraction:
    """The weight of the mirabolic collapse on ch(t_a n_b K): the inverse
    volume of P(Q_p) cap (t_a n_b) K_F (t_a n_b)^-1, 1 at b = 0 and
    (p-1) p^(b-1) at b >= 1.  t_a is central, and [[1 + x, beta], [0, 1]]
    is in n_b K_F n_b^-1 iff beta in Z_p and x in p^b Z_p with 1 + x a unit
    (criterion 4 compares this with mirabolic_volume).
    """
    return Fraction(1) if b == 0 else Fraction((ctx.p - 1) * ctx.p ** (b - 1))


@dataclass
class XiPhiChain:
    """Coefficients of the image in C_c(P(Q_p)\\G(F)/K) and its collapse."""

    p_delta: HeckeElem
    xi_coeffs: dict  # (a, b) -> Fraction
    collapsed: dict  # (a, b) -> Fraction


def xi_phi_chain(vec: TestVector, p_delta: HeckeElem | None = None) -> XiPhiChain:
    """Xi_c(delta) = P_delta . ch(P(Q_p) K_F), evaluated on the (a, b) basis
    by the right-translation action, followed by the volume weights."""
    ctx = vec.ctx
    if vec.case != "inert":
        raise ValueError("the mirabolic chain is the inert-case machinery")
    if p_delta is None:
        p_delta = local_factor(vec)
    coeffs = _act_on_mirabolic(p_delta, ctx)
    collapsed = {(a, b): c * phi_c_weight(0, b, ctx) for (a, b), c in coeffs.items()}
    return XiPhiChain(p_delta, coeffs, collapsed)


def _act_on_mirabolic(h: HeckeElem, ctx: QuadCtx) -> dict:
    """Right-convolution action of h on ch(P K_F), coefficients on the basis
    ch(P t_a n_b K_F), on int counts (ch(P K_F) is 0/1) until h's denominator.

    A T-step sums, at each cell (a, b), the values at the labels of
    t_a n_b g over the p^2 + 1 single cosets g of K t K (coset_reps).  The
    bottom row of an upper triangular [[A, B], [0, D]] is already cleared,
    so padicgrp's label rule reads a = v(D) and b = max(0, v(A/D) - v(u)),
    u the sqrt(r)-coordinate of B/D (b = 0 at u = 0).  With
    t_a n_b = [[p^a, p^(a-b) sqrt r], [0, p^a]]:
      - g = [[p, x + y sqrt r], [0, 1]], x, y in 0..p-1: D = p^a, A/D = p,
        u = y + p^-b.  At b >= 1 the label is (a, b + 1), p^2 times; at
        b = 0 it is (a, 0) when y = p - 1 (p times), else (a, 1).
      - g = diag(1, p): D = p^(a+1), A/D = 1/p, u = p^-b: (a + 1, max(0, b - 1)).
    """
    p = ctx.p
    tmax = h.poly.degree_in("T")
    # each T application spreads the support by at most one cell index
    window_b = range(0, tmax + 2)
    window_a = range(-(tmax + 2), tmax + 3)

    # start from ch(P K): function (a, b) -> value
    values = {0: {(a, b): int((a, b) == (0, 0)) for a in window_a for b in window_b}}

    def tstep(prev, k):
        out = {}
        for (a, b) in prev:
            if b:
                out[(a, b)] = p * p * prev.get((a, b + 1), 0) + prev.get((a + 1, b - 1), 0)
            else:
                out[(a, b)] = p * prev[(a, 0)] + (p * p - p) * prev.get((a, 1), 0) + prev.get((a + 1, 0), 0)
        for (a, b), v in out.items():
            if v and (abs(a) > k or b > k):
                raise AssertionError("mirabolic support escaped its window")
        return out

    for k in range(1, tmax + 1):
        values[k] = tstep(values[k - 1], k)
    nums, den = h.poly.int_terms()
    out: dict = {}
    for (texp, sexp), coef in nums.items():
        base = values[texp]
        for (a, b), v in base.items():
            if not v:
                continue
            # the central shift is exact: (S^k F)(a) = F(a + k)
            key = (a - sexp, b)
            out[key] = out.get(key, 0) + coef * v
    return {k: Fraction(v, den) for k, v in out.items() if v}


def chain_identity_rhs(p_delta: HeckeElem, p: int) -> Lau:
    """Theta(P_delta' (1 - S)), the other route of the chain identity."""
    one = HeckeElem.one(p_delta.group)
    S = HeckeElem.gen(p_delta.group, "S")
    return satake(involution(p_delta) * (one - S), p)


# ---------------------------------------------------------------------------
# ideal certificates for traced vectors


@dataclass
class CertReport:
    part: int
    p_target: HeckeElem
    cert: HeckeIdealCert | None
    integral: bool
    route: str

    def verified(self) -> bool:
        """Part 1's integrality; a certificate is checked when it is built."""
        return self.integral

    def to_json(self) -> dict:
        out = {"part": self.part, "target": self.p_target.to_json(), "route": self.route}
        if self.part == 1:
            out["integral"] = self.integral
        else:
            out["certificate"] = self.cert.to_json()
        return out


def certify_ideal(vec: TestVector, part: int) -> CertReport:
    """Integrality certificates for local factors of traced vectors.

    part 1: delta in the full-level lattice; P_delta has Z[1/p] coefficients.
    part 2: delta in the origin-vanishing determinant-level lattice;
            P_(Tr delta) in <(p-1)(1-S), P_As'(1)>.
    part 3: delta in the determinant-level lattice; P_(Tr delta) in
            <p-1, P_F'(1)>.

    Inert part 3 certificates are built constructively from the mirabolic
    chain data alone: when p - 1 does not divide B', or the cofactors do
    not re-expand, NotMember names that step.  Part 2 and the split case
    come from the division algorithm.  Every certificate is checked by
    exact re-expansion when it is built.
    """
    p = vec.ctx.p
    if part not in (1, 2, 3):
        raise ValueError("part must be 1, 2 or 3")
    if not vector_is_integral(vec):
        raise ValueError("the vector fails its integrality precondition")
    if part == 1:
        if vec.level != "K":
            raise ValueError("part 1 concerns full-level vectors")
        P = local_factor(vec)
        return CertReport(1, P, None, P.is_integral(p), "coefficients")
    if vec.level != "K[p]":
        raise ValueError("parts 2 and 3 concern determinant-level vectors")
    if vec.case == "split" and part != 3:
        raise ValueError("the split engine certifies the <p-1, P'(1)> ideal")
    if part == 2 and not all(phi.vanishes_at_origin() for phi, _, _ in vec.summands):
        raise ValueError("part 2 needs origin-vanishing Schwartz data")
    traced = trace_level(vec)
    P = local_factor(traced)
    if part == 2:
        Q = euler_poly("asai_inert", p).involute_at_one()
        return CertReport(2, P, ideal_cert(P, "(p-1)(1-S)", Q, p), True, "division")
    if vec.case == "split":
        Q = euler_poly("rs_split", p).involute_at_one()
        return CertReport(3, P, ideal_cert(P, "p-1", Q, p), True, "division")
    Q = euler_poly("standard_F", p).involute_at_one()
    A, B = chain_operators(xi_phi_chain(traced, P).collapsed, vec.ctx)
    # P = A' P_F'(1) + B'; B' is divisible by p-1 via the trace property
    B1 = involution(B)
    nums, den = B1.poly.int_terms()
    U = HeckeElem("inert_F", Lau.from_ints(B1.poly.vars, nums, den * (p - 1)))
    if not U.is_integral(p):
        raise NotMember("mirabolic chain: p - 1 does not divide B'", B1)
    return CertReport(3, P, HeckeIdealCert(P, "p-1", Q, U, involution(A), p), True, "chain")


# ---------------------------------------------------------------------------
# the canonical determinant-level vector


def delta1(ctx: QuadCtx, case: str) -> dict:
    """The canonical integral vector phi_(p,2) (x) [ch(K*[p]) - ch(n K*[p])]
    and the verification of the facts the cyclotomic norm relations rest on.

    Returns a report carrying the vector, the unfolded zeta value, the
    volume identities and the traced local factor.  In the split case n
    acts on the second component only.
    """
    p = ctx.p
    phi = SchwartzFn.phi_p2(p)
    nu = p * (p - 1) ** 2 * (p + 1)
    report: dict = {"p": p, "case": case, "nu_p": nu}
    one = Mat2.identity(ctx)
    if case == "inert":
        g1, gn = (one,), (Mat2.upper(QuadElem(0, Fraction(1, p), ctx), ctx),)
        vs, kind, check = VS_INERT, "asai_inert", "local_factor_is_involuted_asai_at_one"
    else:
        g1, gn = (one, one), (one, Mat2.upper(Fraction(1, p), ctx))
        vs, kind, check = VS_SPLIT, "rs_split", "local_factor_is_involuted_rs_at_one"
    vec = TestVector(ctx, case, "K[p]", [(phi, g1, Fraction(1)), (phi, gn, Fraction(-1))], star=True)
    traced = trace_level(vec)
    # A(s) = Z(phi, W - n W, s) = 1 identically: the numerator over
    # R (1 - omega(p) X^2) is that denominator
    period = period_value(traced)
    table = _shintani(vs, p)
    report["A_s_equals_one"] = period.num == prod(table.factors) * table.one_minus_omx2
    vinv_n, ok_n = integrality_check(phi, gn, "K[p]", ctx)
    report["integral"] = ok_n and integrality_check(phi, g1, "K[p]", ctx)[1]
    if case == "inert":
        # Godement section: supported on K_0(p^2) with value nu_p / (p(p-1)),
        # that is on the one line (0, 1) mod p^2
        sec = godement_section(phi, ctx)
        expect = Fraction(nu, p * (p - 1))
        report["godement_constant"] = str(expect)
        report["godement_support_ok"] = sec["level"] == 2 and sec["values"] == {(0, 1): expect}
        # volume identities
        vol = _vol_k011(ctx)
        report["vol_K011_p2"] = str(vol)
        report["vol_identity_ok"] = vol == Fraction(1, p ** 2 * nu)
        report["stabilizer_relation_ok"] = vol == Fraction(1, p) / vinv_n
    P = factor_of_period(period)
    report[check] = P == euler_poly(kind, p).involute_at_one()
    report["vector"] = vec
    report["p_trace"] = P
    return report


def _vol_k011(ctx: QuadCtx) -> Fraction:
    """vol K^1_(0,1)(p^2) = vol{g in K: g = [[1,*],[0,1]] mod p^2}."""
    p = ctx.p
    rows = [([int(i == idx) for i in range(4)], t, p ** 2) for idx, t in [(0, 1), (2, 0), (3, 1)]]
    return subgroup_volume(p, [rows], "unit")


# ---------------------------------------------------------------------------
# random integral vectors


def random_integral_vector(
    ctx: QuadCtx,
    rng,
    level: str,
    origin_vanishing: bool,
    case: str = "inert",
    star: bool = False,
) -> TestVector:
    """Sample a one-term lattice element: bounded cells and group elements,
    with the coefficient scaled by the computed inverse stabilizer volume so
    that membership holds by construction."""
    p = ctx.p
    lvl = rng.choice([1, 2])
    cells = {}
    for _ in range(rng.choice([1, 2])):
        c1 = Fraction(rng.randrange(p ** lvl))
        c2 = Fraction(rng.randrange(p ** lvl))
        if origin_vanishing and c1 % p ** lvl == 0 and c2 % p ** lvl == 0:
            c2 = Fraction(1 + rng.randrange(p ** lvl - 1))
        cells[(c1, c2)] = Fraction(rng.randint(1, 3))
    phi = SchwartzFn(p, lvl, cells)
    one = Mat2.identity(ctx)
    if case == "inert":
        pool = [
            (one,),
            (Mat2.t(1, 0, ctx),),
            (Mat2.t(1, 1, ctx),),
            (Mat2.upper(QuadElem(0, Fraction(1, p), ctx), ctx),),
            (Mat2.lower(QuadElem(0, 1, ctx), ctx) * Mat2.t(1, 0, ctx),),
        ]
    else:
        pool = [
            (one, one),
            (Mat2.t(1, 0, ctx), Mat2.t(1, 0, ctx)),
            (one, Mat2.upper(Fraction(1, p), ctx)),
            (Mat2.t(1, 1, ctx), Mat2.t(1, 1, ctx)),
        ]
    gs = pool[rng.randrange(len(pool))]
    if star and not gs[0].det().is_rational():  # only inert elements can miss
        gs = (one,)
    vinv, _ = integrality_check(phi, gs, level, ctx)
    return TestVector(ctx, case, level, [(phi.scale(vinv), gs, Fraction(rng.randint(1, 2)))], star)
