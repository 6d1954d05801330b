import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padicasai.exactnum import INF, Lau, QuadCtx, QuadElem, RatFunc, val_p
from padicasai.heckealg import (
    EulerPoly,
    HeckeElem,
    NotMember,
    euler_poly,
    iota_solve,
)
from padicasai import heckemod, padicgrp
from padicasai.heckemod import (
    TestVector,
    _act_on_mirabolic,
    certify_ideal,
    chain_identity_rhs,
    delta1,
    generator_vector,
    hecke_apply,
    integrality_check,
    local_factor,
    mirabolic_volume,
    period_value,
    phi_c_weight,
    random_integral_vector,
    trace_level,
    vector_is_integral,
    xi_phi_chain,
)
from padicasai.padicgrp import (
    DecompositionError,
    Mat2,
    conjugation_rows,
    constrains,
    coset_reps,
    identity_rows,
    pgk_canonical,
    pgk_label,
    subgroup_volume,
)
from padicasai.whitzeta import (
    VS_INERT,
    VS_SPLIT,
    SchwartzFn,
    ZetaResult,
    lambda_form,
    lambda_of_cells,
    zeta_asai,
    zeta_rs_split,
)
from test_padicgrp import (
    CTXS_TO_13,
    condition_row,
    conj_rows,
    gl2_F,
    lattice_measure_oracle,
    lattice_solve_affine_oracle,
    plocal_smith_oracle,
    sigma,
)
from test_whitzeta import raw_writing


@pytest.fixture
def F3():
    return QuadCtx.make(3)


# -- integrality ------------------------------------------------------------------


def test_integrality_unramified_K(F3):
    vinv, ok = integrality_check(SchwartzFn.char_zp2(3), (Mat2.identity(F3),), "K", F3)
    assert vinv == 1 and ok


def test_integrality_unramified_Kp(F3):
    # vol(G(Z_p) cap det-level)^-1 = p - 1 and ch(Z_p^2) is not integral there
    vinv, ok = integrality_check(SchwartzFn.char_zp2(3), (Mat2.identity(F3),), "K[p]", F3)
    assert vinv == 3 - 1
    assert not ok


def test_cell_bijections_keep_coefficients_identity_first():
    # two of three cells share a coefficient: only the identity and the swap
    # of those two preserve coefficients
    phi = SchwartzFn(3, 1, {(0, 1): 2, (1, 0): 2, (1, 1): 5})
    sigmas = cell_bijections(phi)
    assert len(sigmas) == 2
    assert sigmas[0] == {c: c for c in phi.cells}
    assert all(phi.cells[s[c]] == phi.cells[c] for s in sigmas for c in phi.cells)


def cell_bijections(phi):
    """The permutations of heckemod._cell_bijections as maps of the cells."""
    cells = sorted(phi.cells)
    return [{cells[k]: cells[j] for k, j in enumerate(perm)} for perm in heckemod._cell_bijections(phi)[3]]


def cell_permutations_oracle(phi):
    """Every bijection of the cells preserving coefficients, identity first."""
    cells = sorted(phi.cells)
    return [
        dict(zip(cells, perm))
        for perm in permutations(cells)
        if all(phi.cells[a] == phi.cells[b] for a, b in zip(cells, perm))
    ]


DET_MODE = {"K": "unit", "K[p]": "one_mod_p"}


def stabilizer_branches_oracle(phi, gs, ctx):
    """(sigma, branch) per bijection of cell_permutations_oracle, each branch
    with every conjugation row that is not identically zero and the rows of
    every cell, rows that do not constrain included."""
    rows_core = []
    for g in gs:
        rows_core += [r for r in conj_rows(g.inv(), g) if any(r[0])]
    pn = Fraction(ctx.p) ** phi.level
    out = []
    for sigma in cell_permutations_oracle(phi):
        rows = list(rows_core)
        for c, cprime in sigma.items():
            for j in range(2):
                row = [0] * 4
                row[j], row[2 + j] = c
                rows.append(condition_row([x / pn for x in row], cprime[j] / pn))
        out.append((sigma, rows))
    return out


CTXS = {p: QuadCtx.make(p) for p in (3, 5, 7)}


def stabilizer_gs(ctx, case, k):
    p = ctx.p
    if case == "inert":
        pool = [
            (Mat2.identity(ctx),),
            (Mat2.t(1, 0, ctx),),
            (Mat2.upper(QuadElem(0, Fraction(1, p), ctx), ctx),),
            (Mat2.lower(QuadElem(0, 1, ctx), ctx) * Mat2.t(1, 0, ctx),),
        ]
    else:
        pool = [
            (Mat2.identity(ctx), Mat2.identity(ctx)),
            (Mat2.t(1, 0, ctx), Mat2.t(1, 0, ctx)),
            (Mat2.identity(ctx), Mat2.upper(Fraction(1, p), ctx)),
            (Mat2.t(1, 1, ctx), Mat2.lower(Fraction(1, p), ctx)),
        ]
    return pool[k % len(pool)]


@st.composite
def stabilizer_cases(draw):
    """phi with at most 5 cells at levels 0 to 2, centres in p^-1 Z, equal or
    unequal coefficients; an inert g or a split pair; level K or K[p]."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(0, 2))
    centre = st.integers(0, p ** (N + 1) - 1).map(lambda k: Fraction(k, p))
    coef = st.just(1) if draw(st.booleans()) else st.sampled_from([1, 2, -1])
    if draw(st.booleans()):
        cells = draw(st.dictionaries(st.tuples(centre, centre), coef, min_size=1, max_size=5))
    else:
        # gamma = -1 lies in every g U g^-1: where the coefficients of c and
        # -c agree it gives a nonempty branch besides the identity
        cells = {}
        for x, y in draw(st.lists(st.tuples(centre, centre), min_size=1, max_size=2)):
            cells[(x, y)], cells[(-x, -y)] = draw(coef), draw(coef)
    phi = SchwartzFn(p, N, cells)
    assume(phi.cells)
    case = draw(st.sampled_from(["inert", "split"]))
    gs = stabilizer_gs(CTXS[p], case, draw(st.integers(0, 3)))
    return phi, gs, draw(st.sampled_from(["K", "K[p]"])), CTXS[p]


# the swap of (1, 0) and (0, 1) is a bijection of these cells that keeps the
# generators' coefficients but not those of (1, 2) and (2, 1)
SWAP_BREAKS_COEFFICIENTS = SchwartzFn(3, 1, {(1, 0): 1, (0, 1): 1, (1, 1): 2, (1, 2): 3, (2, 1): 4})


@settings(derandomize=True, max_examples=120, deadline=None)
@given(stabilizer_cases())
@example((SWAP_BREAKS_COEFFICIENTS, (Mat2.identity(CTXS[3]),), "K", CTXS[3]))
def test_stabilizer_matches_the_permutation_oracle(case):
    # equal volumes, every bijection some gamma induces is enumerated, and no
    # stacked row holds on all of M2(Z_p)
    phi, gs, level, ctx = case
    p, mode = ctx.p, DET_MODE[level]
    branches = heckemod.stabilizer_conditions(phi, gs, ctx)
    assert all(constrains(r, p) for rows in branches for r in rows)
    sigmas = cell_bijections(phi)
    vols = [(sigma, subgroup_volume(p, [rows], mode)) for sigma, rows in stabilizer_branches_oracle(phi, gs, ctx)]
    assert subgroup_volume(p, branches, mode) == sum(v for _, v in vols)
    assert all(sigma in sigmas for sigma, v in vols if v)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_volume_stacks_only_the_conjugation_rows_that_constrain(p, monkeypatch):
    # g = 1 and t(1, 1) are in K, so gamma in M2(Z_p) satisfies every one of
    # their conjugation rows; t(1, 0) leaves the one row gamma_12 / p
    ctx = QuadCtx.make(p)
    one = Mat2.identity(ctx)
    elems = [one, Mat2.t(1, 1, ctx), Mat2.t(1, 0, ctx)]
    kept = [[r for r in conjugation_rows(g) if constrains(r, p)] for g in elems]
    assert [[[Fraction(x, den) for x in nums] + [Fraction(t, den)] for nums, t, den in rows] for rows in kept] == [
        [],
        [],
        [[0, Fraction(1, p), 0, 0, 0]],
    ]
    # so a volume at g = 1 counts on no row at all: Z_p^4 is implicit
    counted = []
    count = padicgrp.congruence_measure
    monkeypatch.setattr(padicgrp, "congruence_measure", lambda rows, *a: counted.append(rows) or count(rows, *a))
    for gs in ((one,), (one, one)):
        counted.clear()
        assert integrality_check(SchwartzFn.char_zp2(p), gs, "K", ctx) == (1, True)
        assert counted == [[]]


def test_a_volume_that_is_no_inverse_index_is_an_engine_fault(F3, monkeypatch):
    # a subgroup's volume is 1 / its index; a count that breaks this is a
    # DecompositionError (exit 4), raised by no bare assert
    def wrong(rows, n, p, accept):
        return Fraction(2, 5)

    monkeypatch.setattr(padicgrp, "congruence_measure", wrong)
    monkeypatch.setattr(heckemod, "congruence_measure", wrong)
    with pytest.raises(DecompositionError, match="the volume 27/40 of a subgroup is not the inverse of an index"):
        subgroup_volume(3, [[]], "unit")
    with pytest.raises(DecompositionError, match="the mirabolic volume 3/5 is not the inverse of an index"):
        mirabolic_volume(pgk_canonical(0, 1, F3))


def test_integrality_scaled(F3):
    phi = SchwartzFn.char_zp2(3).scale(2)
    vinv, ok = integrality_check(phi, (Mat2.identity(F3),), "K[p]", F3)
    assert ok


# -- trace and Hecke action ----------------------------------------------------------


def test_trace_relabels(F3):
    phi = SchwartzFn.char_zp2(3)
    vec = TestVector(F3, "inert", "K[p]", [(phi, (Mat2.identity(F3),), Fraction(1))])
    traced = trace_level(vec)
    assert traced.level == "K"
    assert traced.terms == vec.terms


def det_is_one_mod_p(g: Mat2) -> bool:
    v = (g.det() - 1).val()
    return v == INF or v >= 1


def test_trace_tiles_full_level(F3):
    # union over K/K[p] of K[p] gamma^-1 is K, each element covered once;
    # K/K[p] is represented by diag(x, 1), x a unit of O_F mod p
    reps = [Mat2.diag(QuadElem(a, b, F3), 1, F3) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    assert len(reps) == F3.p ** 2 - 1
    # count how many translates contain a sample of K-elements
    rng = random.Random(1)
    for _ in range(20):
        while True:
            k = Mat2([rng.randrange(9) for _ in range(4)], F3)
            if k.in_K_base():
                break
        hits = sum(1 for gam in reps if det_is_one_mod_p(k * gam))
        assert hits == 1


def test_local_factor_generator(F3):
    assert local_factor(generator_vector(F3)) == HeckeElem.one("inert_F")


def test_local_factor_central_translate(F3):
    # ch(Z_p^2) (x) ch(t(1,1) K) is S^-1 . generator
    phi = SchwartzFn.char_zp2(3)
    vec = TestVector(F3, "inert", "K", [(phi, (Mat2.t(1, 1, F3),), Fraction(1))])
    assert local_factor(vec) == HeckeElem.gen("inert_F", "S", -1)


def test_freeness_witness_thirty_monomials(F3):
    # local_factor(h . generator) = h for 30 random monomials h
    rng = random.Random(31)
    for _ in range(30):
        a = rng.randint(0, 2)
        b = rng.randint(-2, 2)
        c = Fraction(rng.randint(1, 5), 3 ** rng.randint(0, 1))
        h = HeckeElem.monomial("inert_F", (a, b), c)
        vec = hecke_apply(h, generator_vector(F3))
        assert local_factor(vec) == h


@pytest.mark.parametrize("seed", range(4))
def test_freeness_witness_split(F3, seed):
    rng = random.Random(seed)
    e = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1), rng.randint(-1, 1))
    h = HeckeElem.monomial("split_pair", e, Fraction(rng.randint(1, 4)))
    vec = hecke_apply(h, generator_vector(F3, case="split"))
    assert local_factor(vec) == h


@pytest.mark.parametrize("group, exps", [("split_pair", (2, 0, 2, 0)), ("inert_F", (3, 0))])
def test_freeness_witness_paper_scale(group, exps):
    # 1,296 split and 17,576 inert terms at p = 5, one zeta engine call per
    # double-coset class: one engine call per term took 1 to 2 s and 15 to
    # 23 s on a 2-core machine
    ctx = QuadCtx.make(5)
    h = HeckeElem.monomial(group, exps)
    assert local_factor(hecke_apply(h, generator_vector(ctx, "split" if group == "split_pair" else "inert"))) == h


# -- the period's double-coset classes ---------------------------------------------


def per_term_numerator(vec):
    """period_value's numerator with one zeta engine call per term: the oracle
    for its double-coset classes."""
    num = Lau(VS_SPLIT if vec.case == "split" else VS_INERT)
    for phi, gs, c in vec.summands:
        res = zeta_rs_split(phi, gs, vec.ctx) if vec.case == "split" else zeta_asai(phi, *gs, vec.ctx)
        num = num + res.num * c
    return num


def radial_and_not(p):
    """Four radial functions of distinct profiles, the last two at level 1,
    then two functions that are not radial."""
    one = SchwartzFn.char_zp2(p)
    shell0 = SchwartzFn(p, 1, {(a, b): 1 for a in range(p) for b in range(p) if a or b})
    radial = [one, SchwartzFn.cell(p, -1, 0, 0, 3), shell0, one + SchwartzFn.cell(p, 1, 0, 0, -2)]
    return radial + [SchwartzFn.cell(p, 1, 1, 0), SchwartzFn.phi_p2(p)]


def g_pool(ctx, case):
    one, t = Mat2.identity(ctx), Mat2.t(1, 0, ctx)
    if case == "inert":
        return [(one,), (t,), (Mat2.upper(QuadElem(0, Fraction(1, ctx.p), ctx), ctx),)]
    return [(one, one), (t, one), (one, Mat2.upper(Fraction(1, ctx.p), ctx))]


def test_radial_profiles_read_the_shells():
    p = 3
    profiles = [heckemod._radial_profile(phi) for phi in radial_and_not(p)]
    assert profiles[:4] == [(0, ((0, 1),)), (-1, ((-1, 3),)), (1, ((0, 1),)), (1, ((0, 1), (1, -1)))]
    assert profiles[4:] == [None, None]
    # a shell with one cell missing, or one coefficient off, is not radial
    shell0 = radial_and_not(p)[2]
    assert heckemod._radial_profile(shell0 + SchwartzFn.cell(p, 1, 1, 2, -1)) is None
    assert heckemod._radial_profile(shell0 + SchwartzFn.cell(p, 1, 1, 2)) is None


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_grouped_period_matches_the_per_term_sum(data):
    # radial and non-radial phi, several radial profiles in one vector, the
    # translates of one or two Hecke monomials, inert and split
    p = data.draw(st.sampled_from([3, 5, 7]))
    case = data.draw(st.sampled_from(["inert", "split"]))
    ctx = QuadCtx.make(p)
    coef = st.integers(-2, 3).filter(bool).map(Fraction)
    summands = data.draw(st.lists(
        st.tuples(st.sampled_from(radial_and_not(p)), st.sampled_from(g_pool(ctx, case)), coef),
        min_size=1, max_size=3,
    ))
    group, n = ("split_pair", 2) if case == "split" else ("inert_F", 1)
    tmax = 2 if (p, case) == (3, "inert") else 1  # 100 terms per summand and monomial, at most 64 otherwise
    exps = st.tuples(*[st.integers(0, tmax), st.integers(-1, 1)] * n)
    h = sum((HeckeElem.monomial(group, e) for e in data.draw(st.lists(exps, min_size=1, max_size=2))),
            HeckeElem.zero(group))
    start = TestVector(ctx, case, "K", summands)
    vec = hecke_apply(h, start) + start
    got = period_value(vec).num
    assert isinstance(got, Lau) and got == per_term_numerator(vec)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_profiles_keep_their_classes_apart(p):
    # every radial function at the same translates: a class keyed without
    # the profile would add their coefficients to one function's zeta
    ctx = QuadCtx.make(p)
    start = TestVector(ctx, "inert", "K", [(phi, (Mat2.identity(ctx),), Fraction(1)) for phi in radial_and_not(p)[:4]])
    vec = hecke_apply(HeckeElem.gen("inert_F", "T"), start)
    assert period_value(vec).num == per_term_numerator(vec)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("case", ["inert", "split"])
def test_non_radial_phi_needs_one_call_per_term(p, case):
    # cell(p, 1, 1, 0) is fixed by a Borel subgroup of GL2(Z_p), not all of
    # it: T-translates in one double-coset class give it different zetas
    ctx = QuadCtx.make(p)
    phi = SchwartzFn.cell(p, 1, 1, 0)
    assert heckemod._radial_profile(phi) is None
    h = HeckeElem.monomial("split_pair", (1, 0, 1, 0)) if case == "split" else HeckeElem.gen("inert_F", "T")
    vec = hecke_apply(h, TestVector(ctx, case, "K", [(phi, g_pool(ctx, case)[0], Fraction(1))]))
    zetas = {}
    for _, gs, _ in vec.summands:
        z = zeta_rs_split(phi, gs, ctx) if case == "split" else zeta_asai(phi, *gs, ctx)
        zetas.setdefault(heckemod._double_coset_key(gs), set()).add(z.num)
    assert any(len(z) > 1 for z in zetas.values())
    assert period_value(vec).num == per_term_numerator(vec)


COLLAPSED_CLASSES = """
import sys
from fractions import Fraction
from padicasai import cli, heckemod
from padicasai.exactnum import QuadCtx
from padicasai.padicgrp import Mat2
from padicasai.whitzeta import SchwartzFn

heckemod._double_coset_key = lambda gs: ()  # two distinct classes made one
ctx = QuadCtx.make(3)
vec = heckemod.TestVector(ctx, "inert", "K", [(SchwartzFn.char_zp2(3), (g,), Fraction(1))
                                             for g in (Mat2.identity(ctx), Mat2.t(1, 0, ctx))])
print("optimize", sys.flags.optimize)
try:
    heckemod.period_value(vec)
except AssertionError as exc:
    print("raised", exc)
sys.exit(cli.main(["--prime", "3", "local-factor", "--vector", sys.argv[1]]))
"""


def test_second_member_check_raises_under_python_O(F3, tmp_path):
    # ch(Z_3^2) at 1 and at t(1, 0) is two classes; a key that made them one
    # adds both coefficients to one zeta, and the second member's zeta tells
    phi, one, t = SchwartzFn.char_zp2(3), Mat2.identity(F3), Mat2.t(1, 0, F3)
    vec = TestVector(F3, "inert", "K", [(phi, (one,), Fraction(1)), (phi, (t,), Fraction(1))])
    assert period_value(vec).num == per_term_numerator(vec)
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(vec.to_json()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", COLLAPSED_CLASSES, str(path)],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 4, r.stderr
    assert r.stdout.splitlines()[:2] == ["optimize 1", "raised two terms of one double-coset class have different zeta integrals"]
    assert r.stderr == "verification failure: two terms of one double-coset class have different zeta integrals\n"


def test_contract_checks_raise_value_error(F3):
    with pytest.raises(ValueError, match="do not add"):
        generator_vector(F3, "inert") + generator_vector(F3, "split")
    with pytest.raises(ValueError, match="constant term 1"):
        EulerPoly("inert_F", [HeckeElem.zero("inert_F")])
    with pytest.raises(ValueError, match="case must be"):
        TestVector(F3, "Split", "K", [])
    with pytest.raises(ValueError, match="level must be"):
        TestVector(F3, "inert", "K[p^2]", [])
    with pytest.raises(ValueError, match="does not act"):
        hecke_apply(HeckeElem.gen("inert_F", "T"), generator_vector(F3, "split"))


def test_test_vector_takes_g_as_its_tuple_of_components(F3):
    # (g,) at an inert prime and (g1, g2) at a split one; a bare Mat2, a
    # list or a tuple of the wrong length is rejected
    phi, one = SchwartzFn.char_zp2(3), Mat2.identity(F3)
    for case, gs in [("inert", one), ("inert", [one]), ("inert", (one, one)), ("split", one), ("split", (one,))]:
        with pytest.raises(ValueError, match="term field 'g'"):
            TestVector(F3, case, "K", [(phi, gs, Fraction(1))])
    inert = TestVector(F3, "inert", "K", [(phi, (one,), Fraction(1))])
    split = TestVector(F3, "split", "K", [(phi, (one, one), Fraction(1))])
    # the terms view and the JSON form give an inert g as one matrix
    assert inert.terms == [(phi, one, Fraction(1))] and split.terms == [(phi, (one, one), Fraction(1))]
    assert inert.to_json()["terms"][0]["g"] == one.to_json()


def test_local_factor_checks_its_satake_round_trip(F3, monkeypatch):
    # inv_satake returning a wrong preimage must be caught exactly
    real = heckemod.inv_satake
    monkeypatch.setattr(heckemod, "inv_satake", lambda f, group, p: real(f, group, p) * 2)
    with pytest.raises(AssertionError, match="Satake round-trip"):
        local_factor(generator_vector(F3))


def test_hecke_apply_sum(F3):
    T = HeckeElem.gen("inert_F", "T")
    S = HeckeElem.gen("inert_F", "S")
    h = T + S * Fraction(2, 3)
    vec = hecke_apply(h, generator_vector(F3))
    assert local_factor(vec) == h


def hecke_apply_two_branch(h, vec):
    """hecke_apply as it was with one branch per case: the inert power of T,
    then each split component's power in turn; terms carry tuples of
    components, unpacked to one matrix in the inert branch."""
    ctx = vec.ctx
    split = vec.case == "split"
    tcosets = heckemod._t_inverse_cosets(ctx, not split)
    out_terms = []
    for e, coef in h.poly.terms.items():
        for phi, gs, c in vec.summands:
            gsets = [(gs if split else gs[0], Fraction(1))]
            if not split:
                a, b = e
                gsets = apply_gen_power_two_branch(gsets, tcosets, a, 0, split)
                gsets = [(gg * Mat2.t(-b, -b, ctx), w) for gg, w in gsets]
            else:
                a1, b1, a2, b2 = e
                gsets = apply_gen_power_two_branch(gsets, tcosets, a1, 0, split)
                gsets = apply_gen_power_two_branch(gsets, tcosets, a2, 1, split)
                gsets = [
                    ((gg[0] * Mat2.t(-b1, -b1, ctx), gg[1] * Mat2.t(-b2, -b2, ctx)), w)
                    for gg, w in gsets
                ]
            for gg, w in gsets:
                out_terms.append((phi, gg if split else (gg,), c * coef * w))
    return TestVector(ctx, vec.case, "K", out_terms, vec.star)


def apply_gen_power_two_branch(gsets, cosets, n, comp, split):
    for _ in range(n):
        new = []
        for g, w in gsets:
            for hj in cosets:
                if split:
                    pair = list(g)
                    pair[comp] = pair[comp] * hj
                    new.append((tuple(pair), w))
                else:
                    new.append((g * hj, w))
        gsets = new
    return gsets


def random_hecke_elem(rng, group, terms):
    """terms random monomials, T-exponents <= 1, S-exponents in [-1, 1]."""
    n = 2 if group == "inert_F" else 4
    out = HeckeElem.zero(group)
    for _ in range(terms):
        e = tuple(rng.randint(0, 1) if i % 2 == 0 else rng.randint(-1, 1) for i in range(n))
        out = out + HeckeElem.monomial(group, e, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_hecke_apply_matches_two_branch_oracle(p):
    ctx = QuadCtx.make(p)
    cases = []
    for a in range(3):
        for b in (-1, 0, 2):
            cases.append((HeckeElem.monomial("inert_F", (a, b), 2), generator_vector(ctx)))
    for a1 in range(3):
        for a2 in range(3):
            e = (a1, a1 - 1, a2, 1 - a2)
            cases.append((HeckeElem.monomial("split_pair", e, Fraction(1, 3)), generator_vector(ctx, "split")))
    # multi-term elements on multi-term traced random vectors
    rng = random.Random(70 + p)
    for case, group in (("inert", "inert_F"), ("split", "split_pair")):
        for _ in range(3):
            vec = random_integral_vector(ctx, rng, "K[p]", False, case=case)
            vec = trace_level(vec + random_integral_vector(ctx, rng, "K[p]", False, case=case))
            cases.append((random_hecke_elem(rng, group, 3), vec))
    for h, vec in cases:
        assert hecke_apply(h, vec).to_json() == hecke_apply_two_branch(h, vec).to_json(), (h, vec.case)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    split=st.booleans(),
    monomials=st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2)), min_size=2, max_size=2),
                       min_size=1, max_size=2),
    seed=st.integers(0, 10 ** 6),
)
def test_hecke_apply_matches_the_old_product_order(p, split, monomials, seed):
    # hecke_apply scales each component by S^b once, before its T-steps; the
    # oracle multiplies every output term by t(-b, -b) after them.  S is
    # central, so both give the same matrices in the same order
    ctx, rng = QuadCtx.make(p), random.Random(seed)
    group, n = ("split_pair", 2) if split else ("inert_F", 1)
    h = HeckeElem.zero(group)
    for pairs in monomials:
        h = h + HeckeElem.monomial(group, [x for a, b in pairs[:n] for x in (a, b)], Fraction(rng.randint(1, 3)))
    vec = trace_level(random_integral_vector(ctx, rng, "K[p]", False, case="split" if split else "inert"))
    assert hecke_apply(h, vec).summands == hecke_apply_two_branch(h, vec).summands


# -- mirabolic chain -------------------------------------------------------------------


def test_phi_c_weights(F3):
    p = 3
    assert phi_c_weight(0, 0, F3) == 1
    assert phi_c_weight(2, 0, F3) == 1
    for b in (1, 2, 3):
        assert phi_c_weight(0, b, F3) == (p - 1) * p ** (b - 1)
        assert phi_c_weight(-1, b, F3) == (p - 1) * p ** (b - 1)


@pytest.mark.parametrize("p, r", [(3, 2), (5, 3), (7, 5), (7, 6), (31, 3), (31, 29)])
def test_phi_c_weights_are_the_inverse_stabilizer_volumes(p, r):
    ctx = QuadCtx.make(p, r)
    for a in (-3, 0, 3):
        for b in range(6):
            assert phi_c_weight(a, b, ctx) == 1 / mirabolic_volume(pgk_canonical(a, b, ctx)), (a, b)


def test_mirabolic_volume_full(F3):
    assert mirabolic_volume(Mat2.identity(F3)) == 1


def test_xi_chain_generator(F3):
    chain = xi_phi_chain(generator_vector(F3))
    assert chain.xi_coeffs == {(0, 0): Fraction(1)}
    assert chain.collapsed == {(0, 0): Fraction(1)}


def test_xi_chain_central(F3):
    # S . generator sits at the (a, b) = (-1, 0) cell
    vec = hecke_apply(HeckeElem.gen("inert_F", "S"), generator_vector(F3))
    chain = xi_phi_chain(vec)
    assert chain.xi_coeffs == {(-1, 0): Fraction(1)}


@pytest.mark.parametrize("seed", range(6))
def test_chain_identity(F3, seed):
    # Lambda(Phi_c(Xi_c(delta))) = Theta(P_delta'(1 - S))
    rng = random.Random(seed)
    h = HeckeElem.monomial(
        "inert_F", (rng.randint(0, 2), rng.randint(-1, 1)), Fraction(rng.randint(1, 3))
    ) + HeckeElem.one("inert_F") * rng.randint(0, 2)
    vec = hecke_apply(h, generator_vector(F3))
    chain = xi_phi_chain(vec)
    assert lambda_of_cells(chain.collapsed, F3) == chain_identity_rhs(chain.p_delta, 3)


def lambda_of_chain_per_cell(chain, ctx):
    """The chain's linear form one cell at a time: sum w lambda_form(a, b)
    over the collapsed cells {(a, b): w}, one Satake transform per cell."""
    out = Lau(("e1", "e2"))
    for (a, b), w in chain.collapsed.items():
        out = out + lambda_form(a, b, ctx) * w
    return out


def test_lambda_of_chain_matches_the_per_cell_sum(F3):
    # the ten vectors of acceptance criterion 8 at seed 0
    rng = random.Random(8)
    for i in range(10):
        if i % 2 == 0:
            h = HeckeElem.monomial("inert_F", (rng.randint(0, 2), rng.randint(-1, 1)), Fraction(rng.randint(1, 3)))
            vec = hecke_apply(h, generator_vector(F3))
        else:
            vec = trace_level(random_integral_vector(F3, rng, "K[p]", origin_vanishing=False))
        chain = xi_phi_chain(vec)
        assert lambda_of_cells(chain.collapsed, F3) == lambda_of_chain_per_cell(chain, F3), i


def test_trace_divisibility_property(F3):
    # for delta in the determinant-level lattice, the Xi-image of Tr(delta)
    # has all central-cell (b = 0) coefficients in (p-1) Z[1/p]
    rng = random.Random(7)
    for _ in range(5):
        vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=False)
        chain = xi_phi_chain(trace_level(vec))
        for (a, b), c in chain.xi_coeffs.items():
            if b == 0:
                q = c / (3 - 1)
                assert q.denominator in (1, 3, 9, 27, 81)


# -- certificates ------------------------------------------------------------------------


def test_certify_part1_generator(F3):
    rep = certify_ideal(generator_vector(F3), 1)
    assert rep.verified() and rep.p_target == HeckeElem.one("inert_F")


@pytest.mark.parametrize("seed", range(6))
def test_certify_part1_random(F3, seed):
    rng = random.Random(seed)
    vec = random_integral_vector(F3, rng, "K", origin_vanishing=False)
    rep = certify_ideal(vec, 1)
    assert rep.verified()


@pytest.mark.parametrize("seed", range(6))
def test_certify_part2_random(F3, seed):
    rng = random.Random(100 + seed)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True)
    rep = certify_ideal(vec, 2)
    assert rep.verified()
    assert rep.cert.target == rep.cert.gen1() * rep.cert.U + rep.cert.Q * rep.cert.V


@pytest.mark.parametrize("seed", range(6))
def test_certify_part3_random(F3, seed):
    rng = random.Random(200 + seed)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=False)
    rep = certify_ideal(vec, 3)
    assert rep.verified()


def test_certify_part3_inert_refuses_a_failed_chain(F3, monkeypatch):
    # inert part 3 has the chain as its one route: a chain whose B' p - 1 does
    # not divide, or whose cofactors do not re-expand, raises NotMember naming
    # that step, and certify exits 4 with it; no other algorithm is tried
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from padicasai.cli import main

    vec = random_integral_vector(F3, random.Random(200), "K[p]", origin_vanishing=False)
    assert certify_ideal(vec, 3).route == "chain"
    operators = heckemod.chain_operators
    for shift, step in ((1, "p - 1 does not divide B'"), (2, "do not re-expand")):
        def shifted(cells, ctx):
            A, B = operators(cells, ctx)
            return A, B + shift

        monkeypatch.setattr(heckemod, "chain_operators", shifted)
        with pytest.raises(NotMember, match=step) as exc:
            certify_ideal(vec, 3)
        # the remainder: B' + 1 itself, or the constant that U gained times p - 1
        A, B = operators(heckemod.xi_phi_chain(heckemod.trace_level(vec)).collapsed, F3)
        assert exc.value.remainder == (heckemod.involution(B) + 1 if shift == 1 else HeckeElem.one("inert_F") * -2)
        vector = str(Path(__file__).parent / "golden" / "inputs" / "vec_Kp.json")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--prime", "3", "certify", "--vector", vector, "--part", "3"])
        assert (code, out.getvalue()) == (4, "")
        assert err.getvalue().startswith("verification failure: ") and step in err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
def test_certify_part3_inert_takes_the_chain(p, seeds):
    # the chain certifies every integral determinant-level vector it meets:
    # a sum of 1 to 4 random lattice elements at p = 3, 5, 7
    ctx = QuadCtx.make(p)
    vecs = [random_integral_vector(ctx, random.Random(s), "K[p]", origin_vanishing=False) for s in seeds]
    vec = vecs[0]
    for other in vecs[1:]:
        vec = vec + other
    rep = certify_ideal(vec, 3)
    assert rep.route == "chain"
    assert rep.cert.target == rep.cert.gen1() * rep.cert.U + rep.cert.Q * rep.cert.V


def test_certified_vectors_are_integral(F3):
    rng = random.Random(5)
    vec = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True)
    assert vector_is_integral(vec)


def test_certify_rejects_nonintegral(F3):
    # the plain unramified vector is not integral at determinant level
    phi = SchwartzFn.char_zp2(3)
    vec = TestVector(F3, "inert", "K[p]", [(phi, (Mat2.identity(F3),), Fraction(1))])
    with pytest.raises(ValueError):
        certify_ideal(vec, 3)


def test_trace_empty_vector(F3):
    vec = TestVector(F3, "inert", "K[p]", [])
    assert trace_level(vec).terms == []


def test_certify_part2_canonical_vector(F3):
    # the canonical vector's traced factor IS the second generator, so the
    # certificate is essentially (U, V) = (0, 1)
    from padicasai.gstar import ip_embed
    from padicasai.heckealg import euler_poly

    rep = delta1(F3, "inert")
    vec = ip_embed(rep["vector"])
    out = certify_ideal(vec, 2)
    assert out.verified()
    Q = euler_poly("asai_inert", 3).involute_at_one()
    assert out.p_target == Q
    assert out.p_target == out.cert.gen1() * out.cert.U + Q * out.cert.V


# -- the canonical vector -------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_delta1_inert(p):
    ctx = QuadCtx.make(p)
    rep = delta1(ctx, "inert")
    assert rep["A_s_equals_one"]
    assert rep["godement_support_ok"]
    assert rep["vol_identity_ok"]
    assert rep["integral"]
    assert rep["stabilizer_relation_ok"]
    assert rep["local_factor_is_involuted_asai_at_one"]


def test_delta1_split(F3):
    rep = delta1(F3, "split")
    assert rep["A_s_equals_one"]
    assert rep["integral"]
    assert rep["local_factor_is_involuted_rs_at_one"]
    # the traced factor descends through iota to the G* algebra
    star = iota_solve(rep["p_trace"])
    assert star.group == "gstar_split"


@pytest.mark.parametrize("case", ["inert", "split"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_s_equals_one_matches_the_ratfunc(p, case, monkeypatch):
    # delta1 reads A(s) = 1 as num == R (1 - omega(p) X^2) on the period's
    # numerator; the oracle reduces the RatFunc Z and compares it with 1.
    # A corrupted period, twice the true one, fails both
    real, periods = heckemod.period_value, []

    def recorded(vec, scale=1):
        period = real(vec)
        periods.append(period)
        return ZetaResult(period.num * scale, period.case, period.provenance, period.p)

    monkeypatch.setattr(heckemod, "period_value", recorded)
    ctx = QuadCtx.make(p)
    one = RatFunc.from_lau(Lau.const(VS_SPLIT if case == "split" else VS_INERT, 1))
    assert delta1(ctx, case)["A_s_equals_one"] is True
    assert periods[-1].ratfunc == one
    monkeypatch.setattr(heckemod, "period_value", lambda vec: recorded(vec, 2))
    assert delta1(ctx, case)["A_s_equals_one"] is False
    assert ZetaResult(periods[-1].num * 2, case, "", p).ratfunc != one


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(CTXS_TO_13).flatmap(gl2_F))
def test_one_pass_inert_key_matches_the_predicates(g):
    # the inert double-coset key reads det g and its valuation once
    # (padicgrp._cartan_invariants); the oracle reads the predicates and
    # builds g^-1 sigma(g)
    assert heckemod._double_coset_key((g,)) == (g.min_val(), g.det_val(), (g.inv() * sigma(g)).min_val())


@pytest.mark.parametrize("case", ["inert", "split"])
def test_delta1_computes_each_traced_period_once(case, monkeypatch):
    # A(s) and the traced local factor come from one period value: one
    # engine call per term of the traced vector, not two
    from padicasai import whitzeta

    engine = whitzeta._zeta_engine
    calls = []

    def counted(phi, gs, *args, **kwargs):
        calls.append(gs)
        return engine(phi, gs, *args, **kwargs)

    monkeypatch.setattr(whitzeta, "_zeta_engine", counted)
    rep = delta1(QuadCtx.make(5), case)
    assert len(calls) == len(rep["vector"].terms) == 2
    assert all(v for v in rep.values() if isinstance(v, bool))


def test_integrality_of_nine_cells_equals_one_cell(F3):
    # ch(Z_p^2) written on its nine level-1 (or 81 level-2) cells is built
    # as its one level-0 cell, and ch(p^-1 Z_p^2) stays one level -1 cell:
    # one branch each.  The raw nine-cell writing still takes |GL2(F_3)| =
    # 48 branches, two generators each, to the same volume: both lattices
    # are GL2(Z_p)-stable, so at g = 1 they get the generator's volume
    one = Mat2.identity(F3)
    phi = SchwartzFn.char_zp2(3)
    nine = SchwartzFn(3, 1, {(a, b): 1 for a in range(3) for b in range(3)})
    eighty_one = SchwartzFn(3, 2, {(a, b): 1 for a in range(9) for b in range(9)})
    wide = SchwartzFn(3, -1, {(0, 0): 1})
    raw = raw_writing(phi, 1)
    assert nine == eighty_one == phi and (wide.level, len(wide.cells), len(raw.cells)) == (-1, 1, 9)
    for level in ("K", "K[p]"):
        want = integrality_check(phi, (one,), level, F3)
        assert want == ((1, True) if level == "K" else (2, False))
        for f, branches in ((nine, 1), (eighty_one, 1), (wide, 1), (raw, 48)):
            assert integrality_check(f, (one,), level, F3) == want
            assert len(heckemod.stabilizer_conditions(f, [one], F3)) == branches


def test_six_cells_stabilize_a_borel(F3):
    # three of the four lines of F_3^2, less the origin: the stabilizer in
    # GL2(F_3) fixes the fourth line, a Borel subgroup of order 12
    phi = SchwartzFn(3, 1, {c: 1 for c in [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2)]})
    branches = heckemod.stabilizer_conditions(phi, [Mat2.identity(F3)], F3)
    assert len(branches) == 12
    assert subgroup_volume(3, branches, "unit") == Fraction(1, 4)


# -- the closed-form mirabolic step -------------------------------------------------------


def mirabolic_successors_by_labels(a, b, ctx):
    """The labels of t_a n_b g over the single cosets g of K t K, one
    pgk_label each: the row of one mirabolic cell in the T-step."""
    x0 = pgk_canonical(a, b, ctx)
    return [pgk_label(x0 * gi).label for gi in coset_reps(1, ctx, True)]


def mirabolic_successors_closed_form(a, b, p):
    """The successor multiset of cell (a, b) that _act_on_mirabolic's T-step reads."""
    if b:
        return Counter({(a, b + 1): p * p, (a + 1, b - 1): 1})
    return Counter({(a, 0): p, (a, 1): p * p - p, (a + 1, 0): 1})


def nonresidues(p):
    return [r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    st.booleans(),
    st.integers(-4, 4),
    st.integers(0, 5),
)
def test_mirabolic_successors_match_the_labels(p, last, a, b):
    # both the smallest and the largest nonresidue as sqrt(r)
    ctx = QuadCtx.make(p, nonresidues(p)[-1 if last else 0])
    got = Counter(mirabolic_successors_by_labels(a, b, ctx))
    assert got == mirabolic_successors_closed_form(a, b, p)


def act_on_mirabolic_by_labels(h, ctx):
    """_act_on_mirabolic as it was before its rows were memoized and its
    counts became integers: one pgk_label per (cell, coset) at every
    T-step, and every count a Fraction sum."""
    tcos = coset_reps(1, ctx, True)
    tmax = max((e[0] for e in h.poly.terms), default=0)
    window_b = range(0, tmax + 2)
    window_a = range(-(tmax + 2), tmax + 3)
    values = {0: {(a, b): Fraction(1 if (a, b) == (0, 0) else 0) for a in window_a for b in window_b}}

    def tstep(prev, k):
        out = {}
        for (a, b) in prev:
            x0 = Mat2.t(a, a, ctx) * Mat2.n_b(b, ctx)
            tot = Fraction(0)
            for gi in tcos:
                lab = pgk_label(x0 * gi).label
                tot += prev.get(lab, Fraction(0))
            out[(a, b)] = tot
        for (a, b), v in out.items():
            if v and (abs(a) > k or b > k):
                raise AssertionError("mirabolic support escaped its window")
        return out

    for k in range(1, tmax + 1):
        values[k] = tstep(values[k - 1], k)
    out = {}
    for (texp, sexp), coef in h.poly.terms.items():
        for (a, b), v in values[texp].items():
            if v:
                key = (a - sexp, b)
                out[key] = out.get(key, Fraction(0)) + coef * v
    return {k: v for k, v in out.items() if v}


def inert_elem(terms):
    """sum coef T^t S^s over {(t, s): coef}."""
    return HeckeElem("inert_F", Lau(("T", "S"), {e: Fraction(c) for e, c in terms.items()}))


MIRABOLIC_CASES = [
    (3, {(0, 0): 1, (0, 2): -2}),
    (3, {(1, 0): 1, (0, -1): Fraction(-1, 3)}),
    (3, {(2, -1): 2, (1, 1): -1, (0, 0): 5}),
    (3, {(3, 0): 1, (1, -2): 4, (2, 1): Fraction(1, 2)}),
    (5, {(0, 1): 3}),
    (5, {(1, 1): -1, (1, 0): 2, (0, -2): 1}),
]


def test_mirabolic_step_matches_labels_oracle():
    for p, terms in MIRABOLIC_CASES:
        ctx = QuadCtx.make(p)
        h = inert_elem(terms)
        expect = act_on_mirabolic_by_labels(h, ctx)
        got = _act_on_mirabolic(h, ctx)
        # integer T-steps return the Fraction oracle's values in its key order
        assert got == expect and list(got) == list(expect), (p, terms)
        assert all(type(v) is Fraction for v in got.values())
        assert xi_phi_chain(generator_vector(ctx), h).xi_coeffs == expect


def test_part3_certificate_labels_no_coset(F3, monkeypatch):
    # the chain's T-step is closed form: a part-3 certificate whose P has
    # T-degree 1 takes one T-step and calls pgk_label under no name
    phi = SchwartzFn(3, 2, {(Fraction(3), Fraction(1)): Fraction(432)})
    g = Mat2.upper(QuadElem(0, Fraction(1, 3), F3), F3)
    vec = TestVector(F3, "inert", "K[p]", [(phi, (g,), Fraction(1))])

    def refuse(g):
        raise AssertionError("pgk_label called")

    for mod in [m for name, m in sys.modules.items() if name.startswith("padicasai")]:
        if getattr(mod, "pgk_label", None) is pgk_label:
            monkeypatch.setattr(mod, "pgk_label", refuse)
    rep = certify_ideal(vec, 3)
    assert rep.route == "chain" and max(e[0] for e in rep.p_target.poly.terms) == 1


@pytest.mark.parametrize("p", [11, 13, 31])
def test_certify_part3_inert_takes_the_chain_at_larger_primes(p):
    # a seed-0 lattice vector whose P has T-degree 1, so the chain takes a T-step
    vec = random_integral_vector(QuadCtx.make(p), random.Random(0), "K[p]", origin_vanishing=False)
    rep = certify_ideal(vec, 3)
    assert rep.route == "chain" and max(e[0] for e in rep.p_target.poly.terms) == 1
    assert rep.cert.target == rep.cert.gen1() * rep.cert.U + rep.cert.Q * rep.cert.V


def test_second_certificate_round_builds_no_euler_polynomial(F3, monkeypatch):
    # euler_poly shares one EulerPoly per (kind, p), and each keeps its
    # involuted value at X = 1: a repeated round of certificates and delta1
    # builds neither again
    from padicasai.gstar import gstar_factor

    rng = random.Random(7)
    jobs = [
        (random_integral_vector(F3, rng, "K[p]", origin_vanishing=True), 2),
        (random_integral_vector(F3, rng, "K[p]", origin_vanishing=False), 3),
        (random_integral_vector(F3, rng, "K[p]", origin_vanishing=False, case="split"), 3),
    ]
    star = random_integral_vector(F3, rng, "K[p]", origin_vanishing=True, star=True)
    involuted = []
    involute = EulerPoly.involute
    monkeypatch.setattr(EulerPoly, "involute", lambda self: involuted.append(self) or involute(self))

    def one_round():
        for vec, part in jobs:
            assert certify_ideal(vec, part).verified()
        assert gstar_factor(star).cert.verified
        assert delta1(F3, "inert")["integral"]

    euler_poly.cache_clear()
    one_round()
    misses, built = euler_poly.cache_info().misses, len(involuted)
    assert misses and built
    one_round()
    assert euler_poly.cache_info().misses == misses
    assert len(involuted) == built


# -- stabilizer volumes against reference enumerations ------------------------


def _fr_mod_p_oracle(x, p):
    if x.denominator % p == 0:
        raise ValueError("non p-integral value")
    return x.numerator * pow(x.denominator, -1, p) % p


def subgroup_volume_oracle(p, branches, det_mode):
    """Reference volume: per branch, stacked under the identity rows, the
    level-1 image counted in Fractions and the fiber sizes read off the
    elementary divisors, on the Fraction lattice solver of the padicgrp
    tests."""
    from itertools import product as iproduct

    total = Fraction(0)
    gl2_fp = (p ** 2 - 1) * (p ** 2 - p)
    for branch in branches:
        branch = identity_rows() + branch
        rows = [[Fraction(x, den) for x in nums] for nums, _, den in branch]
        sol = lattice_solve_affine_oracle(rows, [Fraction(t, den) for _, t, den in branch], p)
        if sol is None:
            continue
        x0, basis = sol
        aexps = [int(min(val_p(x, p) for x in b if x != 0)) for b in basis]
        if any(a < 0 for a in aexps):
            raise ValueError("lattice not contained in M2(Z_p)")
        M = max(aexps) + 1
        fib = 1
        for k in range(1, M):
            dk = sum(1 for a in aexps if a <= k)
            fib *= p ** dk
        free = [b for b, a in zip(basis, aexps) if a == 0]
        count1 = 0
        for coefs in iproduct(range(p), repeat=len(free)):
            vec = list(x0)
            for c, b in zip(coefs, free):
                if c:
                    for i in range(4):
                        vec[i] += c * b[i]
            det1 = vec[0] * vec[3] - vec[1] * vec[2]
            dmodp = _fr_mod_p_oracle(det1, p)
            if det_mode == "unit" and dmodp != 0:
                count1 += 1
            elif det_mode == "one_mod_p" and dmodp == 1 % p:
                count1 += 1
        total += Fraction(count1 * fib, gl2_fp * p ** (4 * (M - 1)))
    return total


def mirabolic_volume_oracle(g, pruned=False):
    """Reference mirabolic volume: its own Smith basis (by the Fraction
    elimination of the padicgrp tests) and mod-p count, on every conjugation
    row that is not identically zero or, pruned, on those that constrain."""
    from itertools import product as iproduct

    ctx = g.ctx
    p = ctx.p
    gi = g.inv()
    prods = [gi * Mat2([1, 0, 0, 0], ctx) * g, gi * Mat2([0, 1, 0, 0], ctx) * g]
    conj = []
    for eidx in range(4):
        conj.append([prods[0].e[eidx].a, prods[1].e[eidx].a])
        conj.append([prods[0].e[eidx].b, prods[1].e[eidx].b])
    keep = (lambda r: any(x.denominator % p == 0 for x in r)) if pruned else any
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]] + [r for r in conj if keep(r)]
    _, exps, V = plocal_smith_oracle(rows, p)
    if len(exps) < 2:
        raise ValueError("degenerate mirabolic lattice")
    basis = [[V[r][i] * Fraction(p) ** (-exps[i]) for r in range(2)] for i in range(2)]
    vol_add = Fraction(p) ** (exps[0] + exps[1])
    if vol_add > 1:
        raise ValueError("mirabolic lattice not inside Z_p^2")
    red = [[c.numerator * pow(c.denominator, -1, p) % p for c in b] for b in basis]
    hits = 0
    total = 0
    free = [r for r, e in zip(red, exps) if e == 0]
    for coefs in iproduct(range(p), repeat=len(free)):
        x = sum(cc * r[0] for cc, r in zip(coefs, free)) % p
        total += 1
        if (1 + x) % p == 0:
            hits += 1
    return vol_add * Fraction(total - hits, total) / (1 - Fraction(1, p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mirabolic_volume_matches_enumeration_oracle(p):
    ctx = QuadCtx.make(p)
    cells = [Mat2.t(a, a, ctx) * Mat2.n_b(b, ctx) for a in range(-2, 3) for b in range(0, 5)]
    cells += [
        Mat2.t(1, 0, ctx),
        Mat2.lower(QuadElem(0, 1, ctx), ctx) * Mat2.t(1, 0, ctx),
        Mat2.upper(QuadElem(1, Fraction(1, p ** 2), ctx), ctx) * Mat2.t(0, 2, ctx),
    ]
    for g in cells:
        assert mirabolic_volume(g) == mirabolic_volume_oracle(g) == mirabolic_volume_oracle(g, pruned=True), g


@pytest.mark.parametrize("p", [3, 5, 7])
def test_subgroup_volume_matches_enumeration_oracle(p):
    # stabilizer conditions of sampled vectors, every level, case and star:
    # the pruned branches against the oracle on them and on the stacking of
    # every nonzero conjugation row and every cell
    ctx = QuadCtx.make(p)
    rng = random.Random(600 + p)
    modes = set()
    for level in ("K", "K[p]"):
        for case in ("inert", "split"):
            for star in (False, True):
                for _ in range(10):
                    vanish = rng.random() < 0.5
                    vec = random_integral_vector(ctx, rng, level, vanish, case=case, star=star)
                    (phi, gs, _), = vec.summands
                    mode = DET_MODE[level]
                    branches = heckemod.stabilizer_conditions(phi, gs, ctx)
                    full = [rows for _, rows in stabilizer_branches_oracle(phi, gs, ctx)]
                    modes.add((mode, len(branches) > 1))
                    want = subgroup_volume_oracle(p, full, mode)
                    assert subgroup_volume(p, branches, mode) == subgroup_volume_oracle(p, branches, mode) == want, (level, case, star)
    assert {m for m, _ in modes} == {"unit", "one_mod_p"}


def identity_stacked_volume(p, branches, det_mode):
    """subgroup_volume as it was: each branch under the four identity rows,
    through the exact Smith lattice (lattice_measure_oracle)."""
    unit = det_mode == "unit"

    def accept(x):
        det = (x[0] * x[3] - x[1] * x[2]) % p
        return det != 0 if unit else det == 1

    total = sum((lattice_measure_oracle(identity_rows() + rows, p, accept) for rows in branches), Fraction(0))
    return total * p ** 4 / ((p ** 2 - 1) * (p ** 2 - p))


def inverse_route_branches(phi, gs, ctx):
    """stabilizer_conditions as it was: the conjugation rows of g^-1 X g
    through Mat2.inv, then each branch's cell rows."""
    p = ctx.p
    core = [r for g in gs for r in conj_rows(g.inv(), g) if constrains(r, p)]
    n = sum(constrains(r, p) for g in gs for r in conjugation_rows(g))
    return [core + rows[n:] for rows in heckemod.stabilizer_conditions(phi, gs, ctx)]


def inverse_route_mirabolic_volume(g):
    """mirabolic_volume as it was: two unit rows and the constraining E_11,
    E_12 columns of conj_condition_rows(g^-1, g), through the exact Smith
    lattice."""
    p = g.ctx.p
    rows = [([1, 0], 0, 1), ([0, 1], 0, 1)]
    rows += [r for nums, t, den in conj_rows(g.inv(), g) if constrains(r := (nums[:2], t, den), p)]
    return lattice_measure_oracle(rows, p, lambda x: (1 + x[0]) % p != 0) / (1 - Fraction(1, p))


def delta1_vectors(ctx):
    """(phi, gs, case) of delta1's two K[p] summands, inert and split."""
    p, one = ctx.p, Mat2.identity(ctx)
    phi = SchwartzFn.phi_p2(p)
    return [
        (phi, (one,), "inert"),
        (phi, (Mat2.upper(QuadElem(0, Fraction(1, p), ctx), ctx),), "inert"),
        (phi, (one, one), "split"),
        (phi, (one, Mat2.upper(Fraction(1, p), ctx)), "split"),
    ]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_volumes_match_the_identity_stacked_route(p):
    # the congruence count on the rows that constrain, g^-1 X g off g's
    # block, against the old route: unit rows stacked, rows through Mat2.inv,
    # the exact Smith lattice.  On the old route too each volume is 1 / an
    # integer index, the invariant the count is checked against
    ctx = QuadCtx.make(p)
    rng = random.Random(700 + p)
    cases = [(phi, gs, "K[p]") for phi, gs, _ in delta1_vectors(ctx)]
    for level in ("K", "K[p]"):
        for case in ("inert", "split"):
            for star in (False, True):
                for _ in range(4):
                    vec = random_integral_vector(ctx, rng, level, rng.random() < 0.5, case=case, star=star)
                    (phi, gs, _), = vec.summands
                    cases.append((phi, gs, level))
    for phi, gs, level in cases:
        mode = DET_MODE[level]
        branches = heckemod.stabilizer_conditions(phi, gs, ctx)
        want = identity_stacked_volume(p, inverse_route_branches(phi, gs, ctx), mode)
        assert want.numerator == 1
        assert subgroup_volume(p, branches, mode) == want
        assert integrality_check(phi, gs, level, ctx)[0] == 1 / want
    # vol K^1_(0,1)(p^2) = 1 / (p^2 nu_p): three affine rows mod p^2
    rows = [([int(i == k) for i in range(4)], t, p ** 2) for k, t in [(0, 1), (2, 0), (3, 1)]]
    want = identity_stacked_volume(p, [rows], "unit")
    assert heckemod._vol_k011(ctx) == want == Fraction(1, p ** 3 * (p - 1) ** 2 * (p + 1))
    for a in range(4):
        for b in range(4):
            g = pgk_canonical(a, b, ctx)
            want = inverse_route_mirabolic_volume(g)
            assert want.numerator == 1
            assert mirabolic_volume(g) == want
