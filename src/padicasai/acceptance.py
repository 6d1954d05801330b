"""The acceptance battery: every desk-scale identity the engine asserts.

Each criterion is a function returning {"name", "ok", "seconds", ...};
run_suite executes the selected ones in order and the result is
reproducible bit for bit for a fixed seed.  All comparisons are
exact; there are no tolerances to tune.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .exactnum import AB, Lau, QuadCtx, QuadElem, sym_expand
from .heckealg import HeckeElem, euler_poly, iota_embed
from .heckemod import (
    certify_ideal,
    chain_identity_rhs,
    delta1,
    generator_vector,
    hecke_apply,
    mirabolic_volume,
    phi_c_weight,
    random_integral_vector,
    trace_level,
    xi_phi_chain,
)
from .gstar import gstar_factor
from .hilbert import (
    asai_shift_identity_check,
    load_fixture,
    period_ideal_check,
    tate_identity_check,
)
from .padicgrp import Mat2, cartan_cell, gen_cartan_label, pgk_canonical, pgk_label
from .whitzeta import (
    SchwartzFn,
    VS_INERT,
    epsilon_report,
    gauss_shell,
    gauss_shell_oracle,
    lambda_form,
    lambda_of_cells,
    psi_secondary,
    zeta_asai,
)


def _timed(fn):
    def wrap(*a, **k):
        t0 = time.perf_counter()
        out = fn(*a, **k)
        out["seconds"] = round(time.perf_counter() - t0, 3)
        return out

    return wrap


@_timed
def criterion_1_unramified_calibration(seed: int = 0) -> dict:
    """Z(ch(Z_p^2), W_sph, s) * Theta(P_As)(X) = 1 symbolically, p in {3, 5}."""
    details = {}
    ok = True
    for p in (3, 5):
        ctx = QuadCtx.make(p)
        res = zeta_asai(SchwartzFn.char_zp2(p), Mat2.identity(ctx), ctx)
        inv_l = sym_expand(euler_poly("asai_inert", p).satake_in_x(p), AB)
        prod = res.ratfunc * inv_l
        good = prod.is_laurent() and prod.as_laurent() == Lau.const(VS_INERT, 1)
        details[p] = bool(good)
        ok = ok and good
    return {"name": "unramified Asai calibration", "ok": ok, "primes": details}


@_timed
def criterion_2_psi_identity(seed: int = 0) -> dict:
    """Psi(W,s) L(omega,2s) = L(As,s) and the explicit linear form matches
    the normalized secondary integral for |a| <= 2, b <= 3, p in {3, 5}."""
    ok = True
    details = {}
    for p in (3, 5):
        ctx = QuadCtx.make(p)
        vs = VS_INERT
        A, B, X = (Lau.var(vs, v) for v in vs)
        res = psi_secondary(0, 0, ctx).ratfunc
        lhs = res * ((1 - A * X) * (1 - B * X))
        good = lhs.is_laurent() and lhs.as_laurent() == Lau.const(vs, 1)
        pairs = True
        for a in range(-2, 3):
            for b in range(0, 4):
                if lambda_form(a, b, ctx) != psi_secondary(a, b, ctx).normalized():
                    pairs = False
        details[p] = {"psi_L_quotient": bool(good), "lambda_matches": pairs}
        ok = ok and good and pairs
    return {"name": "secondary integral and explicit linear form", "ok": ok, "primes": details}


@_timed
def criterion_3_decomposition_covers(seed: int = 0) -> dict:
    """Both coset decompositions label a valuation-bounded random family of
    500 matrices plus an exhaustive sweep of cell translates, uniquely and
    with verified witnesses."""
    samples = 500
    p = 3
    ctx = QuadCtx.make(p)
    rng = random.Random(seed)

    def rand_mat():
        while True:
            es = []
            for _ in range(4):
                v = rng.randint(-2, 2)
                es.append(
                    QuadElem(
                        Fraction(rng.randint(-8, 8)) * Fraction(p) ** v,
                        Fraction(rng.randint(-8, 8)) * Fraction(p) ** v,
                        ctx,
                    )
                )
            m = Mat2(es, ctx)
            if m.det() != ctx.zero():
                return m

    dup = 0
    fails = 0
    for i in range(samples):
        g = rand_mat()
        w = pgk_label(g)
        if w.left * pgk_canonical(*w.label, ctx) * w.right != g:
            fails += 1
        matches = gen_cartan_label(g, all_matches=True)
        if len(matches) != 1:
            dup += 1
        else:
            m = matches[0]
            if m.left * cartan_cell(*m.label, ctx) * m.right != g:
                fails += 1
    # exhaustive sweep over translated canonical cells with indices <= 2
    def rand_q():
        a0 = Fraction(rng.choice([1, 2, 4, 1]), rng.choice([1, 3]))
        return Mat2(
            [QuadElem(a0, 0, ctx), QuadElem(Fraction(rng.randint(-4, 4), rng.choice([1, 3])), 0, ctx), ctx.zero(), ctx.one()],
            ctx,
        )

    def rand_k(quad):
        while True:
            m = Mat2(
                [QuadElem(rng.randrange(9), rng.randrange(9) if quad else 0, ctx) for _ in range(4)],
                ctx,
            )
            if (m.in_KF() if quad else m.in_K_base()):
                return m

    sweep_ok = True
    for a in range(-2, 3):
        for b in range(0, 3):
            g = rand_q() * pgk_canonical(a, b, ctx) * rand_k(True)
            if pgk_label(g).label != (a, b):
                sweep_ok = False
    for nu2 in range(-2, 2):
        for nu1 in range(nu2, 3):
            for nu in range(0, 3):
                cell = rand_k(False) * cartan_cell(nu2, nu1, nu, ctx) * rand_k(True)
                matches = gen_cartan_label(cell, all_matches=True)
                if [m.label for m in matches] != [(nu2, nu1, nu)]:
                    sweep_ok = False
    ok = dup == 0 and fails == 0 and sweep_ok
    return {
        "name": "decomposition covers (labels unique, witnesses verified)",
        "ok": ok,
        "samples": samples,
        "duplicates": dup,
        "witness_failures": fails,
        "sweep_ok": sweep_ok,
    }


@_timed
def criterion_4_phi_c_weights(seed: int = 0) -> dict:
    """The mirabolic collapse weights are exactly 1 (b = 0) and
    (p-1) p^(b-1) (b > 0), and equal the inverse stabilizer volumes."""
    ok = True
    details = {}
    for p in (3, 5):
        ctx = QuadCtx.make(p)
        got = {}
        for a in (-1, 0, 2):
            for b in range(0, 4):
                wexp = Fraction(1) if b == 0 else Fraction((p - 1) * p ** (b - 1))
                w = phi_c_weight(a, b, ctx)
                got[f"a={a},b={b}"] = str(w)
                ok = ok and w == wexp == 1 / mirabolic_volume(pgk_canonical(a, b, ctx))
        details[p] = got
    return {"name": "mirabolic collapse weights", "ok": ok, "values": details}


@_timed
def criterion_5_delta1(seed: int = 0) -> dict:
    """The canonical determinant-level vector at p in {3, 5, 7}: the
    unfolded integral is 1 with the stated intermediate constants, and the
    split factor matches the Rankin-Selberg factor through iota."""
    details = {}
    ok = True
    for p in (3, 5, 7):
        ctx = QuadCtx.make(p)
        rep = delta1(ctx, "inert")
        good = (
            rep["A_s_equals_one"]
            and rep["godement_support_ok"]
            and rep["vol_identity_ok"]
            and rep["integral"]
            and rep["stabilizer_relation_ok"]
            and rep["local_factor_is_involuted_asai_at_one"]
        )
        srep = delta1(ctx, "split")
        sgood = srep["A_s_equals_one"] and srep["integral"] and srep["local_factor_is_involuted_rs_at_one"]
        star = gstar_factor(srep["vector"])
        sgood = sgood and iota_embed(star.p_star) == euler_poly("rs_split", p).involute_at_one()
        details[p] = {"inert": bool(good), "split": bool(sgood)}
        ok = ok and good and sgood
    return {"name": "canonical vector (unfolded value 1, factor identities)", "ok": ok, "primes": details}


@_timed
def criterion_6_certificates(seed: int = 0) -> dict:
    """Verified ideal certificates for 20 random integral vectors per
    level/lattice combination at p = 3, and the G* certificate."""
    per_combo = 20
    p = 3
    ctx = QuadCtx.make(p)
    rng = random.Random(seed + 6)
    counts = {}
    ok = True
    for part, level, vanish in ((1, "K", False), (2, "K[p]", True), (3, "K[p]", False)):
        good = 0
        for _ in range(per_combo):
            vec = random_integral_vector(ctx, rng, level, origin_vanishing=vanish)
            rep = certify_ideal(vec, part)
            if rep.verified():
                good += 1
        counts[f"part{part}"] = good
        ok = ok and good == per_combo
    gstar_good = 0
    for _ in range(per_combo):
        case = rng.choice(["inert", "split"])
        vec = random_integral_vector(ctx, rng, "K[p]", origin_vanishing=True, case=case, star=True)
        out = gstar_factor(vec)
        if iota_embed(out.p_star) == out.p_big:
            gstar_good += 1
    counts["gstar"] = gstar_good
    ok = ok and gstar_good == per_combo
    return {"name": "ideal certificates re-expand exactly", "ok": ok, "counts": counts}


@_timed
def criterion_7_gauss_oracle(seed: int = 0) -> dict:
    """Closed-form unit-shell integrals match the brute-force cyclotomic
    sums for j in [-3, 1], v(beta) in [-2, 2], p in {3, 5}."""
    ok = True
    checked = 0
    for p in (3, 5):
        for j in range(-3, 2):
            for vb in range(-2, 3):
                beta = Fraction(2) * Fraction(p) ** vb
                if gauss_shell(j, vb, p) != gauss_shell_oracle(j, beta, p):
                    ok = False
                checked += 1
    return {"name": "Gauss shell closed form vs root-of-unity oracle", "ok": ok, "checked": checked}


@_timed
def criterion_8_chain_identity(seed: int = 0) -> dict:
    """Lambda(Phi_c(Xi_c(delta))) = Theta(P_delta'(1 - S)) on 10 random
    integral vectors at p = 3, symbolically."""
    samples = 10
    p = 3
    ctx = QuadCtx.make(p)
    rng = random.Random(seed + 8)
    ok = True
    for i in range(samples):
        if i % 2 == 0:
            h = HeckeElem.monomial(
                "inert_F", (rng.randint(0, 2), rng.randint(-1, 1)), Fraction(rng.randint(1, 3))
            )
            vec = hecke_apply(h, generator_vector(ctx))
        else:
            vec = trace_level(random_integral_vector(ctx, rng, "K[p]", origin_vanishing=False))
        chain = xi_phi_chain(vec)
        if lambda_of_cells(chain.collapsed, ctx) != chain_identity_rhs(chain.p_delta, p):
            ok = False
    return {"name": "chain identity through the mirabolic space", "ok": ok, "samples": samples}


@_timed
def criterion_9_hilbert(seed: int = 0) -> dict:
    """On the shipped synthetic weight-2 fixture: the all-unramified period
    is exactly 1, and the Tate and Asai shift identities hold at every
    tested prime."""
    ok = True
    details = {}
    for name in ("synthetic_w2", "synthetic_w2_quad"):
        data = load_fixture(name)
        rep = period_ideal_check(data, [], [], ell=5)
        good = rep["member"] and rep["value"] == "1"
        idents = all(tate_identity_check(data, p) and asai_shift_identity_check(data, p) for p in (3, 7, 11, 13))
        details[name] = {"unramified_value_one": bool(good), "identities": bool(idents)}
        ok = ok and good and idents
    return {"name": "Hilbert fixture period and L-factor identities", "ok": ok, "fixtures": details}


@_timed
def criterion_10_epsilon_report(seed: int = 0) -> dict:
    """The extracted secondary-integral coefficients match the effective
    table, and the index discrepancy report is emitted."""
    ctx = QuadCtx.make(3)
    try:
        rep = epsilon_report(3, ctx)
    except AssertionError:
        return {"name": "secondary coefficient extraction", "ok": False}
    ok = bool(rep["index_discrepancies"]) and all(
        d["effective_index"] == d["b"] - 1 for d in rep["index_discrepancies"]
    )
    return {"name": "secondary coefficient extraction and discrepancy report", "ok": ok, "report": rep}


CRITERIA = [
    criterion_1_unramified_calibration,
    criterion_2_psi_identity,
    criterion_3_decomposition_covers,
    criterion_4_phi_c_weights,
    criterion_5_delta1,
    criterion_6_certificates,
    criterion_7_gauss_oracle,
    criterion_8_chain_identity,
    criterion_9_hilbert,
    criterion_10_epsilon_report,
]


def run_suite(seed: int = 0, only: list[int] | None = None) -> dict:
    """Run the selected criteria in order; the report is reproducible for a fixed seed."""
    results = []
    for i, criterion in enumerate(CRITERIA, start=1):
        if only is None or i in only:
            results.append({**criterion(seed=seed), "criterion": i})
    return {
        "seed": seed,
        "all_ok": all(r["ok"] for r in results),
        "criteria": results,
    }
