"""Inputs, jobs and exact oracles of the four benchmark workloads.

`build(name, seed)` generates a workload's inputs from the seed (this is the
set-up the benchmark times) and returns its pass: the ordered list of jobs the
closed loop cycles through.  Each job is one call into the public API that a
CLI subcommand or acceptance criterion wraps, followed by an exact oracle
check and the package's `json_dumps` of the result, as the CLI does.

Every pass is stratified: the seed draws coefficients, exponents, Schwartz
cells and matrices, but the number of jobs of each structural class (the
Hecke degree, the group element a random vector was drawn with, the prime,
the number of Cartan candidates of a matrix) is fixed, so two seeds put the
same kind of work in a pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from padicasai import gstar, heckealg, heckemod, padicgrp, whitzeta
from padicasai.exactnum import AB, Lau, QuadCtx, QuadElem, json_dumps, sym_expand
from padicasai.heckealg import HeckeElem
from padicasai.padicgrp import Mat2
from padicasai.whitzeta import VS_INERT, SchwartzFn


@dataclass
class Job:
    """kind: the structural class; describe: the input as JSON (for the
    input digest); run: () -> (serialized output, oracle passed, info)."""

    kind: str
    describe: Callable[[], str]
    run: Callable[[], tuple[str, bool, dict]]


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))


def _interleave(groups: list[list[Job]]) -> list[Job]:
    """Round-robin over the classes, so each class is spread over the whole
    pass and meets changes in the machine's speed like the others."""
    out: list[Job] = []
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    while len(out) < total:
        # next class: the one furthest behind its share of the output so far
        k = min(
            (i for i in range(len(groups)) if taken[i] < len(groups[i])),
            key=lambda i: (taken[i] + 0.5) / len(groups[i]),
        )
        out.append(groups[k][taken[k]])
        taken[k] += 1
    return out


# ---------------------------------------------------------------------------
# hecke_freeness: local_factor(hecke_apply(h, generator)) == h at p = 3


def _freeness_job(kind: str, ctx: QuadCtx, h: HeckeElem, case: str) -> Job:
    gen = heckemod.generator_vector(ctx, case)

    def run():
        vec = heckemod.hecke_apply(h, gen)
        P = heckemod.local_factor(vec)
        out = json_dumps({"input": h.to_json(), "local_factor": P.to_json()})
        return out, P == h, {}

    return Job(kind, lambda: json.dumps(h.to_json(), sort_keys=True), run)


def _random_hecke(rng: random.Random, group: str, t_exps: tuple[int, ...], index: int) -> HeckeElem:
    """The index-th element of a class: a monomial with the given T exponents
    and S exponents cycling through 0, 1, -1, plus a random S-only term for
    every third index.  Only coefficients and the S-only term are random, so
    the cost of a class does not depend on the seed."""
    nvars = 2 * len(t_exps)
    exps = [0] * nvars
    for i, t in enumerate(t_exps):
        exps[2 * i] = t
        exps[2 * i + 1] = (0, 1, -1)[(index + i) % 3]
    h = HeckeElem.monomial(group, exps, _coef(rng))
    if index % 3 == 2:
        extra = [0] * nvars
        for i in range(len(t_exps)):
            extra[2 * i + 1] = rng.randint(-2, 2)
        if t_exps == (0,) * len(t_exps) and extra == exps:
            extra[1] += 3
        h = h + HeckeElem.monomial(group, extra, _coef(rng))
    return h


# (kind, group, T exponents, jobs per pass); T-degree at most 2.
HECKE_CLASSES = [
    ("split_T2sq", "split_pair", (0, 2), 1),
    ("split_T1T2", "split_pair", (1, 1), 1),
    ("split_T1", "split_pair", (1, 0), 5),
    ("split_T2", "split_pair", (0, 1), 3),
    ("inert_T", "inert_F", (1,), 10),
    ("split_S", "split_pair", (0, 0), 3),
    ("inert_S", "inert_F", (0,), 5),
]


def build_hecke_freeness(rng: random.Random) -> list[Job]:
    ctx = QuadCtx.make(3)
    groups = []
    for kind, group, t_exps, count in HECKE_CLASSES:
        case = "inert" if group == "inert_F" else "split"
        groups.append(
            [_freeness_job(kind, ctx, _random_hecke(rng, group, t_exps, i), case) for i in range(count)]
        )
    return _interleave(groups)


# ---------------------------------------------------------------------------
# zeta_primes: delta1, the unramified calibration and T^1 freeness at p = 5, 7


def _delta1_job(ctx: QuadCtx, case: str) -> Job:
    def run():
        rep = heckemod.delta1(ctx, case)
        rep.pop("vector")
        rep["traced_local_factor"] = rep.pop("p_trace").to_json()
        checks = [v for v in rep.values() if isinstance(v, bool)]
        return json_dumps(rep), bool(checks) and all(checks), {}

    return Job(f"delta1_{case}_p{ctx.p}", lambda: json.dumps({"delta1": case, "p": ctx.p}), run)


def _calibration_job(ctx: QuadCtx) -> Job:
    p = ctx.p
    phi = SchwartzFn.char_zp2(p)

    def run():
        res = whitzeta.zeta_asai(phi, Mat2.identity(ctx), ctx)
        inv_l = sym_expand(heckealg.euler_poly("asai_inert", p).satake_in_x(p), AB)
        prod = res.ratfunc * inv_l
        ok = prod.is_laurent() and prod.as_laurent() == Lau.const(VS_INERT, 1)
        return json_dumps(res.to_json()), ok, {}

    return Job(f"calibration_p{p}", lambda: json.dumps({"calibration": p}), run)


# (kind, p, jobs per pass)
ZETA_CLASSES = [
    ("delta1_inert", 7, 1),
    ("freeness_T", 7, 1),
    ("freeness_T", 5, 4),
    ("delta1_inert", 5, 3),
    ("delta1_split", 7, 1),
    ("delta1_split", 5, 2),
    ("calibration", 7, 1),
    ("calibration", 5, 2),
]


def build_zeta_primes(rng: random.Random) -> list[Job]:
    groups = []
    for kind, p, count in ZETA_CLASSES:
        ctx = QuadCtx.make(p)
        jobs = []
        for i in range(count):
            if kind == "freeness_T":
                h = _random_hecke(rng, "inert_F", (1,), i)
                jobs.append(_freeness_job(f"freeness_T_p{p}", ctx, h, "inert"))
            elif kind == "calibration":
                jobs.append(_calibration_job(ctx))
            else:
                jobs.append(_delta1_job(ctx, kind.split("_")[1]))
        groups.append(jobs)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# chain_certify: certify_ideal parts 2 and 3 and gstar_factor at p = 3


def _cert_holds(cert) -> bool:
    """Independent re-expansion of P = gen1 * U + Q * V."""
    return cert.target == cert.gen1() * cert.U + cert.Q * cert.V


def _certify_job(kind: str, vec, part: int) -> Job:
    def run():
        rep = heckemod.certify_ideal(vec, part)
        ok = rep.verified() and _cert_holds(rep.cert)
        return json_dumps(rep.to_json()), ok, {"route": rep.route}

    return Job(kind, lambda: json.dumps({"part": part, "vector": vec.to_json()}, sort_keys=True), run)


def _gstar_job(kind: str, vec) -> Job:
    def run():
        out = gstar.gstar_factor(vec)
        ok = out.cert.verified and _cert_holds(out.cert) and heckealg.iota_embed(out.p_star) == out.p_big
        return json_dumps(out.to_json()), ok, {}

    return Job(kind, lambda: json.dumps({"gstar": vec.to_json()}, sort_keys=True), run)


# (kind, random_integral_vector arguments, jobs per group element per block)
CHAIN_CLASSES = [
    ("part2_inert", dict(origin_vanishing=True), 2),
    ("part3_inert", dict(origin_vanishing=False), 2),
    ("part3_split", dict(origin_vanishing=False, case="split"), 1),
    ("gstar_inert", dict(origin_vanishing=True, star=True), 1),
    ("gstar_split", dict(origin_vanishing=True, case="split", star=True), 1),
]
CHAIN_BLOCKS = 3
# group elements random_integral_vector draws from, per case
CHAIN_POOL_SIZE = {"inert": 5, "split": 4}


def _stratified_vectors(ctx, rng, args: dict, per_g: int) -> list[list]:
    """Draw vectors with the package's generator until every group element
    of its pool has per_g vectors; one list per group element."""
    want = CHAIN_POOL_SIZE[args.get("case", "inert")]
    by_g: dict[str, list] = {}
    for _ in range(100 * want * per_g):
        if len(by_g) == want and all(len(v) == per_g for v in by_g.values()):
            return [by_g[k] for k in sorted(by_g)]
        vec = heckemod.random_integral_vector(ctx, rng, "K[p]", **args)
        key = json.dumps(vec.to_json()["terms"][0]["g"], sort_keys=True)
        bucket = by_g.setdefault(key, [])
        if len(bucket) < per_g:
            bucket.append(vec)
    raise RuntimeError(f"generator did not cover {want} group elements for {args}")


def build_chain_certify(rng: random.Random) -> list[Job]:
    ctx = QuadCtx.make(3)
    groups = []
    for kind, args, per_g in CHAIN_CLASSES:
        part = 2 if kind.startswith("part2") else 3
        for i, vecs in enumerate(_stratified_vectors(ctx, rng, args, per_g * CHAIN_BLOCKS)):
            if kind.startswith("gstar"):
                groups.append([_gstar_job(f"{kind}_g{i}", v) for v in vecs])
            else:
                groups.append([_certify_job(f"{kind}_g{i}", v, part) for v in vecs])
    return _interleave(groups)


# ---------------------------------------------------------------------------
# coset_labels: pgk_label and gen_cartan_label on criterion-3 style matrices


# jobs per pass by the number of generalized Cartan candidates of g, about
# the natural mix of the matrices below (6 stands for 6 or more)
COSET_CLASSES = {1: 32, 2: 64, 3: 64, 4: 48, 5: 28, 6: 4}


def _random_matrix(ctx: QuadCtx, rng: random.Random) -> Mat2:
    """Entries (a + b sqrt r) p^v with |a|, |b| <= 8 and |v| <= 2, invertible."""
    p = ctx.p
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


def _labels_job(kind: str, ctx: QuadCtx, g: Mat2) -> Job:
    def run():
        w = padicgrp.pgk_label(g)
        ok = w.left * padicgrp.pgk_canonical(*w.label, ctx) * w.right == g
        matches = padicgrp.gen_cartan_label(g, all_matches=True)
        ok = ok and len(matches) == 1
        if ok:
            m = matches[0]
            ok = m.left * padicgrp.cartan_cell(*m.label, ctx) * m.right == g
        out = json_dumps({"pgk": w.to_json(), "cartan": [m.to_json() for m in matches]})
        return out, ok, {}

    return Job(kind, lambda: json.dumps(g.to_json(), sort_keys=True), run)


def build_coset_labels(rng: random.Random) -> list[Job]:
    """Draw matrices until every candidate-count class has its quota."""
    ctx = QuadCtx.make(3)
    groups: dict[int, list[Job]] = {k: [] for k in COSET_CLASSES}
    while any(len(groups[k]) < n for k, n in COSET_CLASSES.items()):
        g = _random_matrix(ctx, rng)
        k = min(len(padicgrp.gen_cartan_candidates(g)), max(COSET_CLASSES))
        if len(groups[k]) < COSET_CLASSES[k]:
            groups[k].append(_labels_job(f"labels_c{k}", ctx, g))
    return _interleave([groups[k] for k in sorted(groups)])


WORKLOAD_PASSES = {
    "hecke_freeness": build_hecke_freeness,
    "zeta_primes": build_zeta_primes,
    "chain_certify": build_chain_certify,
    "coset_labels": build_coset_labels,
}


def build(name: str, seed: int) -> list[Job]:
    return WORKLOAD_PASSES[name](random.Random(f"{name}:{seed}"))

