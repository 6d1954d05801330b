import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicasai import padicgrp
from padicasai.exactnum import INF, QuadCtx, QuadElem, fr_mod, val_p
from padicasai.padicgrp import (
    CosetWitness,
    DecompositionError,
    IwasawaParts,
    Mat2,
    cartan_cell,
    coset_reps,
    gen_cartan_label,
    iwasawa_F,
    conj_condition_rows,
    constrains,
    gen_cartan_candidates,
    kck_membership,
    lattice_measure,
    lattice_residues,
    lattice_solve_affine,
    pgk_canonical,
    pgk_label,
    plocal_smith,
    subgroup_volume,
)


@pytest.fixture
def F3():
    return QuadCtx.make(3)


def rand_gl2(ctx, rng, vmin=-2, vmax=2, rational=False):
    """Random invertible matrix with entry valuations in [vmin, vmax]."""
    p = ctx.p
    while True:
        es = []
        for _ in range(4):
            v = rng.randint(vmin, vmax)
            a = rng.randint(-p ** 2, p ** 2)
            b = 0 if rational else rng.randint(-p ** 2, p ** 2)
            es.append(QuadElem(Fraction(a, 1) * Fraction(p) ** v, Fraction(b) * Fraction(p) ** v, ctx))
        m = Mat2(es, ctx)
        if m.det() != ctx.zero():
            return m


def rand_kf(ctx, rng):
    """Random element of GL2(O_F)."""
    p = ctx.p
    while True:
        es = [QuadElem(rng.randint(0, p ** 2), rng.randint(0, p ** 2), ctx) for _ in range(4)]
        m = Mat2(es, ctx)
        if m.in_KF():
            return m


def rand_kbase(ctx, rng):
    p = ctx.p
    while True:
        m = Mat2([rng.randint(0, p ** 2) for _ in range(4)], ctx)
        if m.in_K_base():
            return m


def rand_mirabolic(ctx, rng):
    p = ctx.p
    a = Fraction(rng.randint(1, p ** 2))
    while a % p == 0:
        a = Fraction(rng.randint(1, p ** 2))
    a *= Fraction(p) ** rng.randint(-2, 2)
    b = Fraction(rng.randint(-p ** 2, p ** 2), rng.choice([1, p]))
    return Mat2([QuadElem(a, 0, ctx), QuadElem(b, 0, ctx), ctx.zero(), ctx.one()], ctx)


# -- Iwasawa ------------------------------------------------------------------


def test_iwasawa_identity(F3):
    parts = iwasawa_F(Mat2.identity(F3))
    assert parts.u == F3.zero() and parts.f1 == F3.one() and parts.f2 == F3.one()
    assert parts.kappa == Mat2.identity(F3)


def test_iwasawa_lower_deep(F3):
    c = F3.elem(Fraction(1, 9))
    g = Mat2([1, 0, c, 1], F3)
    parts = iwasawa_F(g)
    # frozen expected parts: u = c^-1, f1 = c^-1, f2 = c
    assert parts.u == c.inv()
    assert parts.f1 == c.inv()
    assert parts.f2 == c
    assert parts.reassemble(F3) == g


def test_iwasawa_upper_triangular(F3):
    g = Mat2([F3.elem(3), F3.sqrt_r(), F3.zero(), F3.one()], F3)
    parts = iwasawa_F(g)
    assert parts.u == F3.sqrt_r()
    assert parts.f1 == F3.elem(3) and parts.f2 == F3.one()
    assert parts.kappa == Mat2.identity(F3)


@pytest.mark.parametrize("seed", range(25))
def test_iwasawa_roundtrip_random(F3, seed):
    rng = random.Random(seed)
    g = rand_gl2(F3, rng, -3, 3)
    parts = iwasawa_F(g)
    assert parts.reassemble(F3) == g
    assert parts.kappa.in_KF()


def test_iwasawa_roundtrip_thousand(F3):
    rng = random.Random(271828)
    for _ in range(1000):
        g = rand_gl2(F3, rng, -3, 3)
        parts = iwasawa_F(g)
        assert parts.reassemble(F3) == g
        assert parts.kappa.in_KF()


# -- Smith / lattices ---------------------------------------------------------


def plocal_smith_oracle(rows, p):
    """plocal_smith as it was: it builds U and returns (U, exps, V) with
    U*M*V = D, where plocal_smith applies U to a target instead."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    M = [[Fraction(x) for x in r] for r in rows]
    U = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    V = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    exps = []
    k = 0
    while k < min(m, n):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if M[i][j] != 0:
                    v = val_p(M[i][j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
            U[k], U[bi] = U[bi], U[k]
        if bj != k:
            for r in M:
                r[k], r[bj] = r[bj], r[k]
            for r in V:
                r[k], r[bj] = r[bj], r[k]
        unit = M[k][k] / Fraction(p) ** v
        for j in range(n):
            M[k][j] = M[k][j] / unit
        for j in range(m):
            U[k][j] = U[k][j] / unit
        piv = Fraction(p) ** v
        for i in range(k + 1, m):
            if M[i][k] != 0:
                q = M[i][k] / piv
                for j in range(n):
                    M[i][j] -= q * M[k][j]
                for j in range(m):
                    U[i][j] -= q * U[k][j]
        for j in range(k + 1, n):
            if M[k][j] != 0:
                q = M[k][j] / piv
                for i in range(m):
                    M[i][j] -= q * M[i][k]
                for i in range(n):
                    V[i][j] -= q * V[i][k]
        exps.append(v)
        k += 1
    return U, exps, V


def mat_vec(U, t):
    return [sum(u * x for u, x in zip(row, t)) for row in U]


def lattice_solve_affine_oracle(rows, target, p):
    """lattice_solve_affine as it was, on Fraction rows and target through
    plocal_smith_oracle: (x0, basis) as Fraction vectors, or None."""
    m = len(rows)
    n = len(rows[0])
    U, exps, V = plocal_smith_oracle(rows, p)
    ut = mat_vec(U, target)
    if len(exps) < n:
        raise ValueError("condition matrix not of full column rank")
    scale = [Fraction(p) ** -exps[i] for i in range(n)]  # one power per column
    basis = [[V[r][i] * scale[i] for r in range(n)] for i in range(n)]
    y = [ut[i] * scale[i] for i in range(n)]
    for i in range(n, m):
        if ut[i] != 0 and val_p(ut[i], p) < 0:
            return None
    x0 = [sum(V[r][i] * y[i] for i in range(n)) for r in range(n)]
    return x0, basis


def lattice_residues_oracle(rows, target, p):
    """lattice_residues as it was: levels by val_p of the Fraction basis,
    residues by fr_mod, (free, weight, classes) with free as Fractions."""
    sol = lattice_solve_affine_oracle(rows, target, p)
    if sol is None:
        return None
    x0, basis = sol
    levels = [min(val_p(x, p) for x in b if x) for b in basis]
    if min(levels) < 0:
        raise ValueError("lattice not contained in Z_p^n")
    free = [b for b, a in zip(basis, levels) if a == 0]
    red = [[fr_mod(x, p, 1) for x in b] for b in free]
    start = [fr_mod(x, p, 1) for x in x0]

    def classes():
        for coefs in product(range(p), repeat=len(red)):
            yield coefs, [(s + sum(c * b[i] for c, b in zip(coefs, red))) % p for i, s in enumerate(start)]

    return free, Fraction(1, p ** (sum(levels) + len(free))), classes()


def residue_classes_by_sums(rows, p):
    """lattice_residues' classes as they were: each residue vector summed
    anew from every reduced free vector, in product order."""
    x0, basis = lattice_solve_affine(rows, p)
    red = [padicgrp._mod_p(col, w, p) for col, w, e in basis if e == 0]
    start = padicgrp._mod_p(*x0, p)
    for coefs in product(range(p), repeat=len(red)):
        yield coefs, [(s + sum(c * b[i] for c, b in zip(coefs, red))) % p for i, s in enumerate(start)]


def condition_row(coefs, target=0):
    """The condition row (nums, t, den) of rational coefs and target, over
    their least common denominator."""
    xs = [Fraction(x) for x in (*coefs, target)]
    den = lcm(*(x.denominator for x in xs))
    nums = [x.numerator * (den // x.denominator) for x in xs]
    return nums[:-1], nums[-1], den


def int_rows(rows, target):
    """The condition rows (nums, t, den) of Fraction rows and their target."""
    return [condition_row(r, x) for r, x in zip(rows, target)]


def smith_view(rows, target, p):
    """plocal_smith on Fraction rows and target, read back as the oracle's
    Fractions: (U*target, exps, V)."""
    t, tden, exps, V, w = plocal_smith(int_rows(rows, target), p)
    return [Fraction(x, d) for x, d in zip(t, tden)], exps, [[Fraction(x, d) for x, d in zip(r, w)] for r in V]


def solve_view(rows, target, p):
    """lattice_solve_affine on Fraction rows and target, read back as the
    oracle's Fraction (x0, basis), or None."""
    sol = lattice_solve_affine(int_rows(rows, target), p)
    if sol is None:
        return None
    (nums, den), basis = sol
    return [Fraction(x, den) for x in nums], [[Fraction(c, w) * Fraction(p) ** -e for c in col] for col, w, e in basis]


def test_plocal_smith_shapes():
    rows = [[Fraction(3), Fraction(1)], [Fraction(9), Fraction(6)], [Fraction(0), Fraction(27)]]
    U, exps, V = plocal_smith_oracle(rows, 3)
    assert len(exps) == 2
    target = [Fraction(1), Fraction(-2, 3), Fraction(5)]
    assert smith_view(rows, target, 3) == (mat_vec(U, target), exps, V)
    # U * M * V = diag(p^e)
    m, n = 3, 2
    prod = [[sum(U[i][k] * rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    prod = [[sum(prod[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            if i == j and i < len(exps):
                assert prod[i][j] == Fraction(3) ** exps[i]
            else:
                assert prod[i][j] == 0


def test_lattice_solve_affine_zero_target_simple():
    # {x in Z_p^2 : x1/9 integral} = 9Z x Z
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1, 9), Fraction(0)]]
    x0, basis = solve_view(rows, [Fraction(0)] * 3, 3)
    assert x0 == [0, 0]
    vals = sorted(min(val_p(c, 3) for c in b if c != 0) for b in basis)
    assert vals == [0, 2]


def conj_condition_rows_oracle(left, right):
    """conj_condition_rows as it was: one Mat2 triple product left * E_k * right
    per coordinate k of X."""
    ctx = left.ctx
    rows = [[Fraction(0)] * 4 for _ in range(8)]
    for k in range(4):
        X = [Fraction(0)] * 4
        X[k] = Fraction(1)
        prod = left * Mat2(X, ctx) * right
        for eidx in range(4):
            rows[2 * eidx][k] = prod.e[eidx].a
            rows[2 * eidx + 1][k] = prod.e[eidx].b
    return rows


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conj_condition_rows_match_triple_products(p):
    ctx = QuadCtx.make(p)
    rng = random.Random(p)
    for _ in range(300):
        left, right = rand_gl2(ctx, rng, -3, 3), rand_gl2(ctx, rng, -3, 3)
        rows = conj_condition_rows(left, right)
        assert all(t == 0 and den > 0 for _, t, den in rows)
        assert [[Fraction(x, den) for x in nums] for nums, _, den in rows] == conj_condition_rows_oracle(left, right)


def kck_membership_oracle(g, cell):
    """kck_membership as it was: the full Smith basis of the lattice, then a
    search over all p^4 coefficient tuples on it, in product order, for the
    first nonzero one whose reduction has a unit determinant."""
    ctx = g.ctx
    p = ctx.p
    if g.det_val() != cell.det_val():
        return None
    rows = id_rows() + conj_condition_rows_oracle(cell.inv(), g)
    _, exps, V = plocal_smith_oracle(rows, p)
    basis = [[V[r][i] * Fraction(p) ** (-exps[i]) for r in range(4)] for i in range(4)]
    red = [[x.numerator * pow(x.denominator, -1, p) % p for x in b] for b in basis]
    for coefs in product(range(p), repeat=4):
        if not any(coefs):
            continue
        v = [sum(c * r[i] for c, r in zip(coefs, red)) % p for i in range(4)]
        if (v[0] * v[3] - v[1] * v[2]) % p:
            break
    else:
        return None
    x = Mat2([sum(c * b[i] for c, b in zip(coefs, basis)) for i in range(4)], ctx)
    return x.inv(), cell.inv() * x * g


def criterion_3_matrix(ctx, rng):
    """A random invertible matrix drawn as criterion 3 draws it: entries
    (a + b sqrt r) p^v with |a|, |b| <= 8 and |v| <= 2."""
    p = ctx.p
    while True:
        es = []
        for _ in range(4):
            v = rng.randint(-2, 2)
            es.append(QuadElem(Fraction(rng.randint(-8, 8)) * Fraction(p) ** v, Fraction(rng.randint(-8, 8)) * Fraction(p) ** v, ctx))
        m = Mat2(es, ctx)
        if m.det() != ctx.zero():
            return m


def test_kck_membership_matches_full_basis_search(F3):
    rng = random.Random(3)
    found = 0
    for _ in range(100):
        g = criterion_3_matrix(F3, rng)
        for label in gen_cartan_candidates(g):
            cell = cartan_cell(*label, F3)
            got = kck_membership(g, cell)
            assert got == kck_membership_oracle(g, cell)
            found += got is not None
    assert found == 100  # one cell per matrix


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_classes_step_like_the_sums(p):
    # the odometer yields what summing every free vector for each class did,
    # in the same order, on the conditions of every Cartan candidate
    ctx, rng = QuadCtx.make(p), random.Random(p)
    frees = set()
    for _ in range(25):
        g = criterion_3_matrix(ctx, rng)
        for label in gen_cartan_candidates(g):
            rows = padicgrp.identity_rows() + conj_condition_rows(cartan_cell(*label, ctx).inv(), g)
            res = lattice_residues(rows, p)
            if res is not None:
                frees.add(len(res[0]))
                assert list(res[2]) == list(residue_classes_by_sums(rows, p))
    assert {2, 3, 4} <= frees  # carries across two and more digits


# -- P t_a n_b K labels -------------------------------------------------------


def test_pgk_label_canonical(F3):
    g = pgk_canonical(3, 2, F3)
    w = pgk_label(g)
    assert w.label == (3, 2)


def test_pgk_label_identity(F3):
    assert pgk_label(Mat2.identity(F3)).label == (0, 0)


def test_pgk_label_n1(F3):
    # n(sqrt(r)/p) is the canonical b=1 unipotent
    g = Mat2.upper(QuadElem(0, Fraction(1, 3), F3), F3)
    assert pgk_label(g).label == (0, 1)


@pytest.mark.parametrize("seed", range(30))
def test_pgk_label_cover_and_disjoint(F3, seed):
    rng = random.Random(seed)
    a = rng.randint(-2, 2)
    b = rng.randint(0, 2)
    g = rand_mirabolic(F3, rng) * pgk_canonical(a, b, F3) * rand_kf(F3, rng)
    w = pgk_label(g)
    assert w.label == (a, b)
    assert w.left * pgk_canonical(a, b, F3) * w.right == g


@pytest.mark.parametrize("seed", range(15))
def test_pgk_label_random_matrices(F3, seed):
    rng = random.Random(1000 + seed)
    g = rand_gl2(F3, rng, -2, 2)
    w = pgk_label(g)
    a, b = w.label
    assert b >= 0
    assert w.left * pgk_canonical(a, b, F3) * w.right == g
    # left witness is mirabolic over Q_p
    assert w.left.e[2] == F3.zero() and w.left.e[3] == F3.one()
    assert w.left.e[0].is_rational() and w.left.e[1].is_rational()
    assert w.right.in_KF()


# -- generalized Cartan labels -------------------------------------------------


def test_cartan_base_cell(F3):
    g = cartan_cell(0, 0, 0, F3)
    assert gen_cartan_label(g).label == (0, 0, 0)


def test_cartan_central_shift(F3):
    g = Mat2.t(-1, -1, F3) * cartan_cell(0, 0, 0, F3)
    assert gen_cartan_label(g).label == (1, 1, 0)


def test_cartan_witnessed_cell(F3):
    rng = random.Random(7)
    g = rand_kbase(F3, rng) * cartan_cell(0, 2, 1, F3) * rand_kf(F3, rng)
    w = gen_cartan_label(g)
    assert w.label == (0, 2, 1)
    assert w.left * cartan_cell(0, 2, 1, F3) * w.right == g


@pytest.mark.parametrize("seed", range(20))
def test_cartan_cover_unique(F3, seed):
    rng = random.Random(seed)
    nu2 = rng.randint(-2, 1)
    nu1 = rng.randint(nu2, 2)
    nu = rng.randint(0, 2)
    g = rand_kbase(F3, rng) * cartan_cell(nu2, nu1, nu, F3) * rand_kf(F3, rng)
    matches = gen_cartan_label(g, all_matches=True)
    assert [m.label for m in matches] == [(nu2, nu1, nu)]
    m = matches[0]
    assert m.left.in_K_base() and m.right.in_KF()
    assert m.left * cartan_cell(nu2, nu1, nu, F3) * m.right == g


def gen_cartan_label_by_search(g):
    """gen_cartan_label(g, all_matches=True) as it was: kck_membership on
    every candidate that the minimal entry valuation and v_p(det) leave."""
    matches = []
    for label in gen_cartan_candidates(g):
        wit = kck_membership(g, cartan_cell(*label, g.ctx))
        if wit is not None:
            matches.append(CosetWitness(label, wit[0], wit[1], "cartan"))
    return matches


CARTAN_SWEEP = [(nu2, nu1, nu) for nu2 in range(-2, 2) for nu1 in range(nu2, 3) for nu in range(3)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cartan_sweep_matches_the_search(p):
    # every cell with nu2 in [-2, 1], nu1 in [nu2, 2], nu in [0, 2], translated
    # by k in GL2(Z_p) and kappa in GL2(O_F): the twist valuation is nu2 - nu1
    # on the cell and on its translate, and both routes find the one cell
    ctx, rng = QuadCtx.make(p), random.Random(p)
    for label in CARTAN_SWEEP:
        nu2, nu1, nu = label
        cell = cartan_cell(*label, ctx)
        g = rand_kbase(ctx, rng) * cell * rand_kf(ctx, rng)
        assert twist_val(cell) == twist_val(g) == nu2 - nu1
        matches = gen_cartan_label(g, all_matches=True)
        assert [m.label for m in matches] == [label]
        assert matches == gen_cartan_label_by_search(g)


def test_gen_cartan_label_makes_one_lattice_test(F3, monkeypatch):
    calls = []
    kck = padicgrp.kck_membership
    monkeypatch.setattr(padicgrp, "kck_membership", lambda g, cell: calls.append(cell) or kck(g, cell))
    rng = random.Random(0)
    for n in range(1, 51):
        gen_cartan_label(criterion_3_matrix(F3, rng))
        assert len(calls) == n


@pytest.mark.parametrize("label", [(0, 0, 0), (-1, -1, 2), (1, 1, 1)])
def test_gen_cartan_label_stays_canonical_under_a_wrong_twist(F3, monkeypatch, label):
    # on a cell with nu1 = nu2, a twist valuation read as 1 would give the
    # label (nu2, nu2 - 1, nu + 1), whose cell GL2(O_F) folds onto the true
    # one, so kck_membership would witness a label outside the domain;
    # min(0, .) holds nu1 >= nu2.  One read far too low leaves nu < 0, no
    # cell: [] or a loud failure, never a wrong label
    g = rand_kbase(F3, random.Random(1)) * cartan_cell(*label, F3)
    invariants = padicgrp._cartan_invariants
    monkeypatch.setattr(padicgrp, "_cartan_invariants", lambda g: (*invariants(g)[:2], 1))
    assert gen_cartan_label(g).label == label
    monkeypatch.setattr(padicgrp, "_cartan_invariants", lambda g: (*invariants(g)[:2], -10))
    assert gen_cartan_label(g, all_matches=True) == []
    with pytest.raises(DecompositionError, match="no generalized Cartan cell"):
        gen_cartan_label(g)


def test_cartan_det_invariant(F3):
    # v_p(det) of the cell is -(nu2 + nu1 + nu)
    for nu2, nu1, nu in [(0, 0, 0), (-1, 2, 1), (1, 1, 3)]:
        assert cartan_cell(nu2, nu1, nu, F3).det_val() == -(nu2 + nu1 + nu)


# -- single cosets of K t(lam, 0) K -----------------------------------------


def coset_reps_oracle(lam, ctx, quadratic):
    """coset_reps("double_to_single", ctx, lam=lam, field=...) as it was when
    coset_reps still dispatched on a kind string."""
    p = ctx.p

    def residues(L):
        q = p ** L
        if quadratic:
            return [QuadElem(a, b, ctx) for a in range(q) for b in range(q)]
        return [QuadElem(a, 0, ctx) for a in range(q)]

    if lam == 0:
        return [Mat2.identity(ctx)]
    out = []
    for b in residues(lam):
        out.append(Mat2([Fraction(p) ** lam, b, 0, 1], ctx))
    for i in range(1, lam):
        for b in residues(i):
            if b.val() == 0:
                out.append(Mat2([Fraction(p) ** i, b, 0, Fraction(p) ** (lam - i)], ctx))
    out.append(Mat2([1, 0, 0, Fraction(p) ** lam], ctx))
    return out


@pytest.mark.parametrize(
    "p, lam", [(p, lam) for p in (3, 5, 7) for lam in (0, 1, 2)] + [(3, 3)]
)
def test_coset_reps_matches_oracle(p, lam):
    ctx = QuadCtx.make(p)
    for quadratic in (True, False):
        assert coset_reps(lam, ctx, quadratic) == coset_reps_oracle(lam, ctx, quadratic)


def test_double_to_single_counts(F3):
    q = F3.p ** 2
    reps1 = coset_reps(1, F3, True)
    assert len(reps1) == q + 1
    reps2 = coset_reps(2, F3, True)
    assert len(reps2) == q ** 2 + q
    base1 = coset_reps(1, F3, False)
    assert len(base1) == F3.p + 1


def test_double_coset_reps_pairwise_distinct(F3):
    # distinct single cosets x K_F: x_i^-1 x_j not in K_F
    reps = coset_reps(1, F3, True)
    for i, x in enumerate(reps):
        for y in reps[i + 1:]:
            assert not (x.inv() * y).in_KF()


def test_kck_membership_negative(F3):
    # an element of one Cartan cell is not in a different candidate cell
    g = cartan_cell(0, 1, 1, F3)
    assert kck_membership(g, cartan_cell(0, 2, 0, F3)) is None


# -- subgroup volumes -----------------------------------------------------------


def id_rows():
    rows = []
    for i in range(4):
        r = [Fraction(0)] * 4
        r[i] = Fraction(1)
        rows.append(r)
    return rows


def measure(rows, target, p, accept):
    return lattice_measure(int_rows(rows, target), p, accept)


@pytest.mark.parametrize("p", [3, 5])
def test_lattice_measure_of_simple_cosets(p):
    zero = [Fraction(0)] * 4
    assert measure(id_rows(), zero, p, lambda x: True) == 1
    assert measure(id_rows(), zero, p, lambda x: x[0] != 0) == Fraction(p - 1, p)
    # x0 + L = (1 + p Z_p) x Z_p^3: level 1 in the first coordinate
    r = [Fraction(1, p), Fraction(0), Fraction(0), Fraction(0)]
    target = zero + [Fraction(1, p)]
    assert measure(id_rows() + [r], target, p, lambda x: x[0] == 1) == Fraction(1, p)
    assert measure(id_rows() + [r], target, p, lambda x: x[0] == 0) == 0
    # x / p = 1 / p^2 mod Z_p contradicts x in Z_p: the empty set
    target = zero + [Fraction(1, p ** 2)]
    assert measure(id_rows() + [r], target, p, lambda x: True) == 0
    # a coset outside Z_p^4 has no measure here, an engine fault: x0 = (1/p, 0, 0, 0) ...
    with pytest.raises(DecompositionError, match=r"lattice not contained in Z_p\^n"):
        measure(id_rows(), [Fraction(1, p)] + zero[1:], p, lambda x: True)
    # ... or a basis vector of level -1: L = p^-1 Z_p x Z_p^3
    with pytest.raises(DecompositionError, match=r"lattice not contained in Z_p\^n"):
        measure([[p * x for x in r] for r in id_rows()[:1]] + id_rows()[1:], zero, p, lambda x: True)


def test_volume_full_K(F3):
    # no row beside the identity rows: all of GL2(Z_p)
    assert subgroup_volume(3, [[]], "unit") == 1


def test_volume_det_level(F3):
    # {g in K : det g = 1 mod p} has index p - 1
    assert subgroup_volume(3, [[]], "one_mod_p") == Fraction(1, 2)


def test_constrains_keeps_the_rows_an_integral_unknown_can_fail():
    p = 3
    assert not constrains(([0, 0, 0, 0], 0, 1), p)
    # p-integral coefficients and target over a p'-denominator or a cancelled p
    assert not constrains(([2, 0, 4, 0], 1, 5), p)
    assert not constrains(([3, 6, 0, 0], 9, 3), p)
    assert constrains(([1, 0, 0, 0], 0, 3), p)
    assert constrains(([3, 0, 0, 0], 1, 3), p)
    assert constrains(([3, 0, 0, 9], 0, 9), p)
    # the rows it drops leave every volume as it was
    for rows in ([([3, 6, 0, 0], 9, 3)], [([2, 0, 4, 0], 1, 5), ([0, 1, 0, 0], 0, 3)]):
        assert subgroup_volume(p, [rows], "unit") == subgroup_volume(p, [[r for r in rows if constrains(r, p)]], "unit")


def test_volume_against_enumeration_oracle(F3):
    # brute force over GL2(Z/9): gamma12 = 0 mod 3 (conjugation by diag(p,1)),
    # bottom row fixed mod 3 (a one-cell stabilizer), det = 1 mod 3
    p = 3
    r = [Fraction(0)] * 4
    r[1] = Fraction(1, p)
    # c gamma = c mod p for c = (0, 1): rows for gamma21, gamma22 - 1
    r21 = [Fraction(0)] * 4
    r21[2] = Fraction(1, p)
    r22 = [Fraction(0)] * 4
    r22[3] = Fraction(1, p)
    target = [Fraction(0), Fraction(0), Fraction(1, p)]
    got = subgroup_volume(p, [int_rows([r, r21, r22], target)], "one_mod_p")
    q = p ** 2
    count = 0
    total = 0
    for g11 in range(q):
        for g12 in range(q):
            for g21 in range(q):
                for g22 in range(q):
                    det = (g11 * g22 - g12 * g21) % p
                    if det == 0:
                        continue
                    total += 1
                    if g12 % p == 0 and g21 % p == 0 and g22 % p == 1 and det == 1:
                        count += 1
    assert got == Fraction(count, total)


@pytest.mark.parametrize("p,c", [(3, 2), (5, 2), (7, 2)])
def test_volume_K0_and_K011(p, c):
    # vol K_0(p^2) = 1/(p(p+1)); vol K^1_{0,1}(p^2) = 1/(p^2 nu_p)
    r = [Fraction(0)] * 4
    r[2] = Fraction(1, p ** 2)
    assert subgroup_volume(p, [int_rows([r], [0])], "unit") == Fraction(1, p * (p + 1))
    extra, targets = [], []
    for idx, target in [(0, 1), (2, 0), (3, 1)]:
        rr = [Fraction(0)] * 4
        rr[idx] = Fraction(1, p ** 2)
        extra.append(rr)
        targets.append(Fraction(target, p ** 2))
    nu_p = p * (p - 1) ** 2 * (p + 1)
    assert subgroup_volume(p, [int_rows(extra, targets)], "unit") == Fraction(1, p ** 2 * nu_p)


# -- properties ------------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)


@st.composite
def k_base(draw, ctx):
    """An element of GL2(Z_p)."""
    m = Mat2([draw(st.integers(0, ctx.p ** 2)) for _ in range(4)], ctx)
    assume(m.in_K_base())
    return m


@st.composite
def k_field(draw, ctx):
    """An element of GL2(O_F)."""
    m = Mat2([QuadElem(draw(st.integers(0, ctx.p ** 2)), draw(st.integers(0, ctx.p ** 2)), ctx) for _ in range(4)], ctx)
    assume(m.in_KF())
    return m


@st.composite
def mirabolic(draw, ctx):
    """An element [[a, b], [0, 1]] of P(Q_p)."""
    p = ctx.p
    a = Fraction(draw(st.integers(1, p ** 2).filter(lambda n: n % p))) * Fraction(p) ** draw(st.integers(-2, 2))
    b = Fraction(draw(st.integers(-p ** 2, p ** 2)), p ** draw(st.integers(0, 2)))
    return Mat2([QuadElem(a, 0, ctx), QuadElem(b, 0, ctx), ctx.zero(), ctx.one()], ctx)


@st.composite
def gl2_F(draw, ctx, rational=False):
    """An invertible matrix with entries (a + b sqrt r) p^v, |a|, |b| <= 8,
    |v| <= 2, b = 0 when rational."""
    p = ctx.p
    es = []
    for _ in range(4):
        v = Fraction(p) ** draw(st.integers(-2, 2))
        es.append(QuadElem(draw(st.integers(-8, 8)) * v, 0 if rational else draw(st.integers(-8, 8)) * v, ctx))
    m = Mat2(es, ctx)
    assume(m.det() != ctx.zero())
    return m


F3_CTX = QuadCtx.make(3)


@PROPERTY
@given(gl2_F(F3_CTX), k_base(F3_CTX), k_field(F3_CTX))
def test_gen_cartan_label_is_bi_invariant(g, k, kappa):
    assert gen_cartan_label(k * g * kappa).label == gen_cartan_label(g).label


@PROPERTY
@given(gl2_F(F3_CTX), mirabolic(F3_CTX), k_field(F3_CTX))
def test_pgk_label_is_bi_invariant(g, q, kappa):
    assert pgk_label(q * g * kappa).label == pgk_label(g).label


def _at_p(strategy):
    """strategy(ctx) drawn at p = 3, 5 and 7."""
    return st.sampled_from((3, 5, 7)).flatmap(lambda p: strategy(QuadCtx.make(p)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_at_p(gl2_F))
def test_gen_cartan_label_matches_the_search(g):
    # the same match list, labels and witnesses, as kck_membership on every candidate
    assert gen_cartan_label(g, all_matches=True) == gen_cartan_label_by_search(g)


@PROPERTY
@given(_at_p(lambda ctx: st.tuples(gl2_F(ctx), k_base(ctx), k_field(ctx))))
def test_twist_val_is_bi_invariant(gkk):
    g, k, kappa = gkk
    assert twist_val(k * g * kappa) == twist_val(g) <= 0


def sigma(g):
    """g with the conjugation of F/Q_p applied to every entry."""
    return Mat2([e.conj() for e in g.e], g.ctx)


def twist_val(g):
    """min_val(g^-1 sigma(g)) as the Cartan invariants read it."""
    return padicgrp._cartan_invariants(g)[2]


def rational_part(g):
    """The matrix of the rational parts of g's entries (maybe singular)."""
    return Mat2([e.a for e in g.e], g.ctx)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_at_p(lambda ctx: st.tuples(gl2_F(ctx), k_field(ctx))))
def test_twist_val_matches_the_inverse_product(gk):
    # _cartan_invariants reads the twist off adj(B) sigma(B) on g's integer
    # block; the oracle builds g^-1 and the product, as the twist once did.  For q kappa, q
    # rational, the block's entries cancel down to those of
    # kappa^-1 sigma(kappa)
    g, kappa = gk
    q = rational_part(g)
    for h in [g] + ([q * kappa] if q.det_val() != INF else []):
        assert twist_val(h) == (h.inv() * sigma(h)).min_val()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_at_p(lambda ctx: st.tuples(gl2_F(ctx), gl2_F(ctx))), st.booleans())
def test_inv_mul_val_matches_the_inverse_product(pair, rational):
    # the split double-coset key's min_val(g1^-1 g2), over Q_p as the split
    # case has it and over F; for g2 = g1 m the block adj(B1) B2 cancels
    # down to det(B1) m
    g1, m = map(rational_part, pair) if rational else pair
    assume(g1.det_val() != INF)
    for g2 in (m, g1 * m):
        assert padicgrp._inv_mul_val(g1, *g2.int_block()) == (g1.inv() * g2).min_val()


def pivot_of(g):
    """padicgrp._bottom_pivot on g's integer block."""
    return padicgrp._bottom_pivot(g.int_block()[0], g.ctx)


@st.composite
def gl2_pivot(draw, ctx, rational=False):
    """A gl2_F matrix whose _bottom_pivot is drawn: 2 or 3."""
    g, j = draw(gl2_F(ctx, rational)), draw(st.sampled_from((2, 3)))
    if pivot_of(g)[0] != j:
        g = g * Mat2([0, 1, 1, 0], ctx)  # swaps c and d
    assume(pivot_of(g)[0] == j)
    return g


CTXS_TO_13 = [QuadCtx.make(p) for p in (3, 5, 7, 11, 13)]


def parts_of_quotients(g, quots):
    """The IwasawaParts that iwasawa_F reads off its three quotients
    (w, u, det/y), built with no check."""
    ctx, (j, _) = g.ctx, pivot_of(g)
    e, D = g.int_block()
    (wx, wy, wn), (ux, uy, un), (fx, fy, fn) = quots
    kappa = (wn, 0, 0, 0, wx, wy, wn, 0) if j == 3 else (0, 0, -wn, 0, wn, 0, wx, wy)
    return IwasawaParts(
        QuadElem.from_ints(ux, uy, un, ctx),
        QuadElem.from_ints(fx, fy, D * fn, ctx),
        QuadElem.from_ints(e[2 * j], e[2 * j + 1], D, ctx),
        Mat2.from_ints(kappa, wn, ctx),
    )


def recording_quot(quots, call=None, shift=(0, 0)):
    """padicgrp._quot appending each result to quots, the result of the
    call-th call shifted by shift in (x, y)."""
    real = padicgrp._quot

    def quot(*args):
        x, y, n = real(*args)
        if len(quots) == call:
            x, y = x + shift[0], y + shift[1]
        quots.append((x, y, n))
        return x, y, n

    return quot


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from(CTXS_TO_13).flatmap(lambda ctx: st.booleans().flatmap(lambda rat: gl2_pivot(ctx, rat))),
    st.integers(0, 2),
    st.sampled_from(((1, 0), (0, 1))),
)
def test_iwasawa_check_matches_reassembly_from_the_parts(g, call, shift):
    # iwasawa_F cross-multiplies its quotient ints against g's numerators;
    # IwasawaParts.reassemble is the product n(u) diag(f1, f2) kappa that
    # check replaced.  Both accept the true witnesses, and both reject them
    # when one witness numerator (of w, u or det/y) is off by one
    parts, true_quots, quots = iwasawa_F(g), [], []
    assert parts.reassemble(g.ctx) == g and parts.kappa.in_KF()
    recording, off_by_one = recording_quot(true_quots), recording_quot(quots, call, shift)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(padicgrp, "_quot", recording)
        assert iwasawa_F(g) == parts
        mp.setattr(padicgrp, "_quot", off_by_one)
        with pytest.raises(AssertionError, match="do not reassemble"):
            iwasawa_F(g)
    assert parts_of_quotients(g, true_quots) == parts
    assert parts_of_quotients(g, quots).reassemble(g.ctx) != g


CORRUPTED_IWASAWA = """
import sys
from padicasai import cli, padicgrp
from padicasai.exactnum import QuadCtx
from padicasai.padicgrp import Mat2

g = Mat2([1, 0, 1, 3], QuadCtx.make(3))  # v(c) < v(d): the pivot is c
pivot, quot, calls = padicgrp._bottom_pivot, padicgrp._quot, []

def u_off_by_one(*a):
    # a certificate's second quotient is its witness u
    x, y, n = quot(*a)
    calls.append(n)
    return (x + 1, y, n) if len(calls) == 2 else (x, y, n)

corruptions = [
    # every quotient off by one: u, f1 and kappa no longer reassemble g
    ("_quot", lambda *a: (lambda x, y, n: (x + n, y, n))(*quot(*a))),
    # one witness numerator off by one
    ("_quot", u_off_by_one),
    # the other bottom entry as the pivot: g reassembles, kappa = [[1, 0], [1/3, 1]]
    ("_bottom_pivot", lambda *h: (5 - pivot(*h)[0], pivot(*h)[1])),
]
print("optimize", sys.flags.optimize)
for name, fake in corruptions:
    setattr(padicgrp, name, fake)
    try:
        padicgrp.iwasawa_F(g)
    except AssertionError as exc:
        print("raised", exc)
    setattr(padicgrp, name, {"_quot": quot, "_bottom_pivot": pivot}[name])
calls.clear()
padicgrp._quot = u_off_by_one
sys.exit(cli.main(["--prime", "5", "zeta", "--phi", "builtin:unramified", "--g", "t:1,0"]))
"""


def test_corrupted_iwasawa_witness_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_IWASAWA],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.stdout.splitlines() == [
        "optimize 1",
        "raised Iwasawa witnesses do not reassemble g",
        "raised Iwasawa witnesses do not reassemble g",
        "raised Iwasawa kappa is not in GL2(O_F)",
    ]
    assert r.returncode == 4, r.stderr
    assert r.stderr == "verification failure: Iwasawa witnesses do not reassemble g\n"


# -- closed-form witnesses against the column operations ------------------------


def iwasawa_by_column_ops(g):
    """iwasawa_F as it was: clear the bottom row by a column operation (after
    a determinant-1 column swap when v(c) < v(d)) and invert it."""
    ctx = g.ctx
    if g.det() == ctx.zero():
        raise ZeroDivisionError("singular matrix")
    a, b, c, d = g.e
    if c.val() >= d.val():
        k1 = Mat2([1, 0, -(c / d), 1], ctx)
        h = g * k1
        kappa = k1.inv()
    else:
        w = Mat2([0, 1, -1, 0], ctx)
        h0 = g * w
        k1 = Mat2([1, 0, -(h0.e[2] / h0.e[3]), 1], ctx)
        h = h0 * k1
        kappa = (w * k1).inv()
    parts = IwasawaParts(h.e[1] / h.e[3], h.e[0], h.e[3], kappa)
    assert parts.reassemble(ctx) == g and kappa.in_KF()
    return parts


def pgk_label_by_column_ops(g):
    """pgk_label as it was: g kappa1 = [[A, B], [0, p^a]] by a column
    operation kappa1, then kappa2 = (q t_a n_b)^-1 g kappa1 and
    right = kappa2 kappa1^-1."""
    ctx = g.ctx
    p = ctx.p
    if g.det() == ctx.zero():
        raise ZeroDivisionError("singular matrix")
    C, D = g.e[2], g.e[3]
    a = min(C.val(), D.val())
    pa = Fraction(p) ** a
    if D.val() <= C.val():
        kap1 = Mat2([1, 0, -(C / D), QuadElem(pa, 0, ctx) / D], ctx)
    else:
        kap1 = Mat2([-(D / C), QuadElem(pa, 0, ctx) / C, 1, 0], ctx)
    gp = g * kap1
    assert gp.e[2] == ctx.zero() and gp.e[3] == ctx.elem(pa)
    A, B = gp.e[0], gp.e[1]
    vA = A.val()
    b = max(0, vA - val_p(B.y, p) + val_p(B.d, p)) if B.y else 0
    q1 = B.b * Fraction(p) ** (b - a) if b > 0 else Fraction(p) ** (vA - a)
    q = Mat2([QuadElem(q1, 0, ctx), QuadElem(B.a / pa, 0, ctx), ctx.zero(), ctx.one()], ctx)
    M = pgk_canonical(a, b, ctx)
    kap2 = (q * M).inv() * gp
    assert kap2.in_KF()
    right = kap2 * kap1.inv()
    assert q * M * right == g
    return CosetWitness((a, b), q, right, "pgk")


@st.composite
def gl2_pivot_case(draw):
    """gl2_F at p = 3, 5 or 7, with c or d set to zero one time in four each."""
    ctx = draw(st.sampled_from([F3_CTX, QuadCtx.make(5), QuadCtx.make(7)]))
    e = list(draw(gl2_F(ctx)).e)
    zero = draw(st.sampled_from([None, None, 2, 3]))
    if zero is not None:
        e[zero] = ctx.zero()
    g = Mat2(e, ctx)
    assume(g.det() != ctx.zero())
    return g


def _m3(*entries):
    return Mat2([F3_CTX.elem(x) if isinstance(x, int) else x for x in entries], F3_CTX)


_S = F3_CTX.sqrt_r()
# y = d: v(c) > v(d), a tie, c = 0; y = c: v(c) < v(d), d = 0
PIVOT_EXAMPLES = [_m3(1, 2, 3, 1), _m3(1, _S, 2, _S), _m3(1, 1, 0, 3), _m3(2, 1, _S, 3), _m3(1, 9, 3, 0)]


def _with_examples(test):
    for g in PIVOT_EXAMPLES:
        test = example(g)(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None)
@_with_examples
@given(gl2_pivot_case())
def test_iwasawa_matches_column_operations(g):
    got, want = iwasawa_F(g), iwasawa_by_column_ops(g)
    assert got.u == want.u
    assert got.f1 == want.f1
    assert got.f2 == want.f2
    assert got.kappa == want.kappa


@settings(derandomize=True, max_examples=300, deadline=None)
@_with_examples
@given(gl2_pivot_case())
def test_pgk_label_matches_column_operations(g):
    got, want = pgk_label(g), pgk_label_by_column_ops(g)
    assert got.label == want.label
    assert got.left == want.left
    assert got.right == want.right


def test_pivot_examples_take_both_branches():
    # y = d on the first three examples, y = c on the last two
    assert [g.e[2].val() >= g.e[3].val() for g in PIVOT_EXAMPLES] == [True, True, True, False, False]


@pytest.mark.parametrize("entries", [(0, 0, 0, 0), (1, 2, 0, 0), (1, 2, 2, 4), (_S, 1, 3 * _S, 3), (0, 1, 0, 3)])
def test_singular_matrix_raises_zero_division(entries):
    g = _m3(*entries)
    with pytest.raises(ZeroDivisionError):
        iwasawa_F(g)
    with pytest.raises(ZeroDivisionError):
        pgk_label(g)


def frac_det(rows):
    """Exact determinant of a square Fraction matrix by elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            q = m[i][k] / m[k][k]
            m[i] = [x - q * y for x, y in zip(m[i], m[k])]
    return det


def smith_entry(p):
    """a / (p^e * u) with u a p'-part in {1, 2, 3, 4, 7}, or a plain int."""
    units = [u for u in (1, 2, 3, 4, 7) if u % p]
    frac = st.builds(lambda a, e, u: Fraction(a, p ** e * u), st.integers(-20, 20), st.integers(0, 2), st.sampled_from(units))
    return st.one_of(frac, st.integers(-20, 20))


@st.composite
def p_and_matrix(draw):
    """(p, rows) at p = 3, 5, 7: m x n with m < n possible, some rows zero."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, max(1, n - 1)) if draw(st.booleans()) else st.integers(1, 5))
    entries = st.lists(smith_entry(p), min_size=n, max_size=n)
    return p, [[0] * n if draw(st.integers(0, 3)) == 0 else draw(entries) for _ in range(m)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(p_and_matrix())
def test_plocal_smith_is_a_unit_equivalence(pm):
    p, M = pm
    m, n = len(M), len(M[0])
    U, exps, V = plocal_smith_oracle(M, p)
    UM = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    D = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            assert D[i][j] == (Fraction(p) ** exps[i] if i == j and i < len(exps) else 0)
    assert val_p(frac_det(U), p) == 0 and val_p(frac_det(V), p) == 0


@st.composite
def smith_case(draw):
    """(rows, target, p): a random matrix with a random target at p = 3, 5, 7,
    or the Cartan conditions of a criterion-3 matrix against one of its cells
    with a random target."""
    if draw(st.booleans()):
        p, rows = draw(p_and_matrix())
    else:
        ctx = draw(st.sampled_from([F3_CTX, QuadCtx.make(5), QuadCtx.make(7)]))
        p, g = ctx.p, draw(gl2_F(ctx))
        cell = cartan_cell(*draw(st.sampled_from(gen_cartan_candidates(g))), ctx)
        rows = id_rows() + conj_condition_rows_oracle(cell.inv(), g)
    return rows, [draw(smith_entry(p)) for _ in rows], p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(smith_case())
def test_plocal_smith_applies_the_oracle_u_to_the_target(case):
    rows, target, p = case
    U, exps, V = plocal_smith_oracle(rows, p)
    assert smith_view(rows, target, p) == (mat_vec(U, target), exps, V)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(smith_case())
def test_plocal_smith_returns_ints(case):
    # ints in and out: t over tden = s_i p^E (s_i a p-unit of either sign,
    # one E for all rows), V column j over w[j]; its Fraction view is the
    # oracle's
    rows, target, p = case
    t, tden, exps, V, w = plocal_smith(int_rows(rows, target), p)
    assert all(type(x) is int for x in t + tden + exps + w + [y for r in V for y in r])
    assert len({val_p(d, p) for d in tden}) == 1
    U, oexps, oV = plocal_smith_oracle(rows, p)
    assert [Fraction(x, d) for x, d in zip(t, tden)] == mat_vec(U, target)
    assert exps == oexps
    assert [[Fraction(x, d) for x, d in zip(r, w)] for r in V] == oV


@st.composite
def lattice_case(draw):
    """(rows, target, p) for the lattice layer: the Cartan conditions of a
    criterion-3 matrix against one of its cells, or a random matrix with
    p'-denominators at p = 3, 5, 7 under unit rows (three times in four) or
    alone; the target is zero (as kck_membership asks) or random."""
    if draw(st.booleans()):
        ctx = draw(st.sampled_from([F3_CTX, QuadCtx.make(5), QuadCtx.make(7)]))
        p, g = ctx.p, draw(gl2_F(ctx))
        cell = cartan_cell(*draw(st.sampled_from(gen_cartan_candidates(g))), ctx)
        rows = id_rows() + conj_condition_rows_oracle(cell.inv(), g)
    else:
        p, rows = draw(p_and_matrix())
        n = len(rows[0])
        if draw(st.integers(0, 3)):
            rows = [[int(i == j) for j in range(n)] for i in range(n)] + rows
    if draw(st.booleans()):
        return rows, [0] * len(rows), p
    return rows, [draw(smith_entry(p)) for _ in rows], p


# an empty coset, a point outside Z_p, a basis vector of level -1, rank 1 < 2
LATTICE_EXAMPLES = [
    ([[1], [Fraction(1, 3)]], [0, Fraction(1, 9)], 3),
    ([[1]], [Fraction(1, 5)], 5),
    ([[7]], [0], 7),
    ([[1, 1]], [0], 3),
]


def _with_lattice_examples(test):
    for case in LATTICE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(derandomize=True, max_examples=200, deadline=None)
@_with_lattice_examples
@given(lattice_case())
def test_integer_lattice_layer_matches_the_fraction_oracles(case):
    rows, target, p = case
    irows = int_rows(rows, target)
    try:
        want = lattice_solve_affine_oracle(rows, target, p)
    except ValueError:
        with pytest.raises(DecompositionError, match="not of full column rank"):
            lattice_solve_affine(irows, p)
        return
    assert solve_view(rows, target, p) == want
    if want is None:
        assert lattice_residues(irows, p) is None
        return
    # the level of basis vector i is -exps[i]
    _, basis = lattice_solve_affine(irows, p)
    assert [-e for _, _, e in basis] == [min(val_p(x, p) for x in b if x) for b in want[1]]
    try:
        wfree, wweight, wclasses = lattice_residues_oracle(rows, target, p)
    except ValueError:
        with pytest.raises(DecompositionError, match=r"lattice not contained in Z_p\^n"):
            lattice_residues(irows, p)
        return
    free, weight, classes = lattice_residues(irows, p)
    assert [[Fraction(c, w) for c in col] for col, w in free] == wfree
    assert weight == wweight
    got = list(classes)
    assert got == list(wclasses) == list(residue_classes_by_sums(irows, p))


def test_lattice_examples_reach_every_outcome():
    # None, the two containment faults of lattice_residues, and the rank
    # fault: each a DecompositionError, since identity rows exclude them
    outcomes = []
    for rows, target, p in LATTICE_EXAMPLES:
        try:
            outcomes.append(lattice_residues(int_rows(rows, target), p))
        except DecompositionError as e:
            outcomes.append(str(e))
    assert outcomes == [None, "lattice not contained in Z_p^n", "lattice not contained in Z_p^n", "condition matrix not of full column rank"]


def test_zero_target_residues_build_no_fraction_but_the_weight(monkeypatch):
    # kck_membership's question: every lattice condition stays an int until
    # the weight, the one Fraction a zero-target lattice_residues returns
    ctx = QuadCtx.make(5)
    g = criterion_3_matrix(ctx, random.Random(5))
    cell = cartan_cell(*gen_cartan_candidates(g)[0], ctx)
    rows = padicgrp.identity_rows() + conj_condition_rows(cell.inv(), g)
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction.__new__(Fraction, *args, **kwargs)

    monkeypatch.setattr(padicgrp, "Fraction", Counted)
    free, weight, classes = lattice_residues(rows, 5)
    list(classes)
    assert len(built) == 1 and weight == Fraction(*built[0])


# -- the integer block against the QuadElem-entry matrix --------------------------


class QuadMat2:
    """Mat2 as it was before the integer block: four QuadElem entries, so
    every product, determinant and inverse runs entry by entry in QuadElem
    arithmetic.  The differential oracle of Mat2."""

    __slots__ = ("e", "ctx")

    def __init__(self, entries, ctx):
        self.ctx = ctx
        self.e = tuple(x if isinstance(x, QuadElem) else QuadElem(x, 0, ctx) for x in entries)
        if len(self.e) != 4:
            raise ValueError("need 4 entries")

    @classmethod
    def diag(cls, a, b, ctx):
        return cls([a, 0, 0, b], ctx)

    @classmethod
    def upper(cls, u, ctx):
        return cls([1, u, 0, 1], ctx)

    def __mul__(self, other):
        a, b, c, d = self.e
        x, y, z, w = other.e
        return QuadMat2([a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w], self.ctx)

    def __eq__(self, other):
        return isinstance(other, QuadMat2) and self.e == other.e and self.ctx == other.ctx

    def det(self):
        a, b, c, d = self.e
        return a * d - b * c

    def inv(self):
        dt = self.det()
        if dt == self.ctx.zero():
            raise ZeroDivisionError("singular matrix")
        a, b, c, d = self.e
        di = dt.inv()
        return QuadMat2([d * di, -b * di, -c * di, a * di], self.ctx)

    def scale(self, s):
        return QuadMat2([x * s for x in self.e], self.ctx)

    def min_val(self):
        return min(x.val() for x in self.e)

    def det_val(self):
        return val_p(self.det(), self.ctx.p)

    def is_integral(self):
        return all(x.is_integral() for x in self.e)

    def in_KF(self):
        return self.is_integral() and self.det().is_unit()

    def in_K_base(self):
        return all(x.is_rational() and x.is_integral() for x in self.e) and self.det().is_unit()

    def is_rational(self):
        return all(x.is_rational() for x in self.e)


PREDICATES = ("min_val", "det_val", "is_integral", "in_KF", "in_K_base", "is_rational")


def quad_p_power_block(e0, e1, e3, ctx):
    """[[p^e0, sqrt(r) p^e1], [0, p^e3]] entry by entry."""
    p = Fraction(ctx.p)
    return QuadMat2([QuadElem(p ** e0, 0, ctx), QuadElem(0, p ** e1, ctx), ctx.zero(), QuadElem(p ** e3, 0, ctx)], ctx)


def quad_bottom_pivot(g):
    a, b, c, d = g.e
    det = g.det()
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return (b, d, det) if c.val() >= d.val() else (a, c, det)


def quad_iwasawa_F(g):
    """iwasawa_F on QuadElem entries: (u, f1, f2, kappa)."""
    ctx = g.ctx
    x, y, det = quad_bottom_pivot(g)
    c, d = g.e[2], g.e[3]
    yi = y.inv()
    kappa = QuadMat2([1, 0, c * yi, 1], ctx) if y is d else QuadMat2([0, -1, 1, d * yi], ctx)
    u, f1, f2 = x * yi, det * yi, y
    assert QuadMat2.upper(u, ctx) * QuadMat2.diag(f1, f2, ctx) * kappa == g and kappa.in_KF()
    return u, f1, f2, kappa


def quad_pgk_label(g):
    """pgk_label on QuadElem entries: ((a, b), left, right)."""
    ctx = g.ctx
    p = ctx.p
    x, y, det = quad_bottom_pivot(g)
    a = y.val()
    pa = Fraction(p) ** a
    B = x / y * pa
    vA = det.val() - a
    b = max(0, vA - val_p(B.y, p) + val_p(B.d, p)) if B.y else 0
    q1 = B.b * Fraction(p) ** (b - a) if b > 0 else Fraction(p) ** (vA - a)
    q = QuadMat2([QuadElem(q1, 0, ctx), QuadElem(B.a / pa, 0, ctx), ctx.zero(), ctx.one()], ctx)
    qM = q * quad_p_power_block(a, a - b, a, ctx)
    right = qM.inv() * g
    assert right.in_KF() and qM * right == g
    return (a, b), q, right


def quad_conj_condition_rows(left, right):
    L, R = left.e, right.e
    r = left.ctx.r
    rows = []
    for i in range(2):
        for j in range(2):
            pairs = [(u, v) for u in L[2 * i:2 * i + 2] for v in (R[j], R[2 + j])]
            den = lcm(*(u.d * v.d for u, v in pairs))
            cs = [den // (u.d * v.d) for u, v in pairs]
            rows.append(([(u.x * v.x + r * u.y * v.y) * c for (u, v), c in zip(pairs, cs)], 0, den))
            rows.append(([(u.x * v.y + u.y * v.x) * c for (u, v), c in zip(pairs, cs)], 0, den))
    return rows


def quad_gen_cartan_label(g):
    """gen_cartan_label(g, all_matches=True) on QuadElem entries: the list of
    (label, k, kappa)."""
    ctx = g.ctx
    p = ctx.p
    matches = []
    for nu2, nu1, nu in gen_cartan_candidates(g):
        cell = quad_p_power_block(-nu2, -nu1, -nu - nu1, ctx)
        if g.det_val() != cell.det_val():
            continue
        cell_inv = cell.inv()
        free, _, classes = lattice_residues(padicgrp.identity_rows() + quad_conj_condition_rows(cell_inv, g), p)
        coefs = next((c for c, v in classes if (v[0] * v[3] - v[1] * v[2]) % p), None)
        if coefs is None:
            continue
        den = lcm(*(w for _, w in free))
        x = QuadMat2([Fraction(sum(c * col[i] * (den // w) for c, (col, w) in zip(coefs, free)), den) for i in range(4)], ctx)
        kappa = cell_inv * x * g
        k = x.inv()
        assert x.in_K_base() and kappa.in_KF() and k * cell * kappa == g
        matches.append(((nu2, nu1, nu), k, kappa))
    return matches


def same(m, q):
    """The integer-block Mat2 m and the QuadMat2 q hold the same matrix."""
    return isinstance(m, Mat2) and m.e == q.e and m.ctx == q.ctx


CTXS_357 = [QuadCtx.make(3), QuadCtx.make(5), QuadCtx.make(7)]


@st.composite
def block_pair(draw):
    """Two matrices at p = 3, 5 or 7 with entries (a + b sqrt r) / p^k,
    |a|, |b| <= 2 p^2 and -2 <= k <= 3, an entry zero one time in five, as
    (Mat2, QuadMat2) each, and a scalar (a QuadElem, a Fraction or an int)."""
    ctx = draw(st.sampled_from(CTXS_357))
    p = ctx.p
    coef = st.integers(-2 * p * p, 2 * p * p)

    def entry():
        if draw(st.integers(0, 4)) == 0:
            return ctx.zero()
        pk = Fraction(p) ** -draw(st.integers(-2, 3))
        return QuadElem(draw(coef) * pk, draw(coef) * pk, ctx)

    mats = []
    for _ in range(2):
        es = [entry() for _ in range(4)]
        mats.append((Mat2(es, ctx), QuadMat2(es, ctx)))
    kind = draw(st.integers(0, 2))
    s = entry() if kind == 0 else Fraction(draw(coef), p ** draw(st.integers(0, 2))) if kind == 1 else draw(coef)
    return mats, s


@settings(derandomize=True, max_examples=400, deadline=None)
@given(block_pair())
def test_block_arithmetic_matches_quadelem_entries(case):
    ((g, gq), (h, hq)), s = case
    assert same(g * h, gq * hq)
    assert g.det() == gq.det()
    assert same(g.scale(s), gq.scale(s))
    for name in PREDICATES:
        # by repr, so that the zero matrix's spread (inf - inf, nan) compares too
        assert repr(getattr(g, name)()) == repr(getattr(gq, name)()), name
    if gq.det() == 0:
        with pytest.raises(ZeroDivisionError):
            g.inv()
        return
    assert same(g.inv(), gq.inv())
    assert Mat2(g.e, g.ctx) == g and hash(Mat2(g.e, g.ctx)) == hash(g)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(block_pair())
def test_block_decompositions_match_quadelem_entries(case):
    ((g, gq), _), _ = case
    assume(gq.det() != 0)
    j, (X, Y) = pivot_of(g)
    x, y, det = quad_bottom_pivot(gq)
    assert (g.e[j - 2], g.e[j]) == (x, y)
    assert QuadElem.from_ints(X, Y, g.int_block()[1] ** 2, g.ctx) == det
    parts, (u, f1, f2, kappa) = iwasawa_F(g), quad_iwasawa_F(gq)
    assert (parts.u, parts.f1, parts.f2) == (u, f1, f2)
    assert same(parts.kappa, kappa)
    w, (label, left, right) = pgk_label(g), quad_pgk_label(gq)
    assert w.label == label and same(w.left, left) and same(w.right, right)
    got, want = gen_cartan_label(g, all_matches=True), quad_gen_cartan_label(gq)
    assert [m.label for m in got] == [lab for lab, _, _ in want]
    assert all(same(m.left, k) and same(m.right, kappa) for m, (_, k, kappa) in zip(got, want))


def test_iwasawa_kappa_follows_the_pivot():
    # y = c, as v(c) < v(d): kappa = [[0, -1], [1, d/c]]
    g = _m3(2, 1, 1, 3)
    assert pivot_of(g)[0] == 2
    assert iwasawa_F(g).kappa == Mat2([0, -1, 1, 3], F3_CTX)
    # y = d with c = 0: kappa = [[1, 0], [c/d, 1]] is the identity
    g = _m3(1, 1, 0, 3)
    assert pivot_of(g)[0] == 3
    assert iwasawa_F(g).kappa == Mat2.identity(F3_CTX)
