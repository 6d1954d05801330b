"""The benchmark's workloads build and run: the first job of every workload
at seed 0 passes its exact oracle, also under the benchmark's tracer, and
every workload prints what bench/digests.json records."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    try:
        yield _load("bench_workloads", BENCH / "workloads.py")
    finally:
        sys.modules.pop("bench_workloads", None)


@pytest.fixture(scope="module")
def spans(workloads):
    try:
        yield _load("bench_spans", BENCH / "spans.py")
    finally:
        sys.modules.pop("bench_spans", None)


@pytest.mark.parametrize("name", ["hecke_freeness", "zeta_primes", "chain_certify", "coset_labels"])
def test_first_job_passes_its_oracle(workloads, name):
    jobs = workloads.build(name, 0)
    out, ok, _ = jobs[0].run()
    assert ok, (name, jobs[0].kind)
    assert out


@pytest.mark.parametrize("name", ["hecke_freeness", "zeta_primes", "chain_certify", "coset_labels"])
def test_first_pass_matches_digest(workloads, name):
    # the seed-0 digest bench/run.py checks, so a changed printed result
    # fails here and not only in a benchmark run
    outs = [job.run()[0] for job in workloads.build(name, 0)]
    expected = json.loads((BENCH / "digests.json").read_text())[name]
    assert hashlib.sha256("\n".join(outs).encode()).hexdigest() == expected


def test_traced_job_finds_every_site(workloads, spans):
    # Tracer() raises when an import site of REQUIRED_SITES has moved, so a
    # refactor that drops one fails here rather than in a traced bench run
    from padicasai import heckemod, padicgrp

    tracer = spans.Tracer()
    job = workloads.build("chain_certify", 0)[0]
    with tracer.active(0):
        out, ok, _ = job.run()
    assert ok and out
    assert len(tracer.start) > 0
    assert heckemod.plocal_smith is padicgrp.plocal_smith
    assert not hasattr(padicgrp.plocal_smith, "__wrapped__")


def test_traced_coset_labels_job_counts_its_seams(workloads, spans):
    # the per-layer metrics read these seams; a Smith engine inlined into its
    # caller would zero its count without failing anything else.  Mat2
    # arithmetic runs on its integer block and makes no QuadElem product, so
    # the quad_mul seam reads exactly 0 (a matrix kernel back on QuadElem
    # entries would raise it)
    tracer = spans.Tracer()
    job = workloads.build("coset_labels", 0)[0]
    with tracer.active(0):
        out, ok, _ = job.run()
    assert ok and out
    metrics = tracer.layer_metrics()
    assert metrics["exactnum.quad_mul.calls"][0] == 0
    assert metrics["padicgrp.plocal_smith.calls"][0] >= 1


def test_traced_coset_labels_pass_counts_every_smith_form(workloads, spans):
    # a seed-0 coset_labels pass makes 240 Smith forms, one per job: three
    # invariants pin each Cartan label and one kck_membership gives its
    # witnesses.  The count is the per-layer metric of the Smith engine, which
    # an engine inlined into lattice_solve_affine or renamed would drop
    # without failing anything else, and a search back over every candidate
    # cell would raise
    tracer = spans.Tracer()
    for i, job in enumerate(workloads.build("coset_labels", 0)):
        with tracer.active(i):
            out, ok, _ = job.run()
        assert ok and out
    assert tracer.layer_metrics()["padicgrp.plocal_smith.calls"][0] == 240


@pytest.mark.parametrize("name,volumes", [("chain_certify", 99), ("zeta_primes", 18)])
def test_traced_pass_counts_volumes_with_no_smith_form(workloads, spans, name, volumes):
    # a stabilizer volume is one congruence count mod p^E: a seed-0 pass
    # makes its 99 (chain_certify) and 18 (zeta_primes) subgroup_volume calls
    # and no Smith form, where the identity-stacked lattice made 117 and 18;
    # the engine's one caller left, kck_membership, makes coset_labels' 240
    tracer = spans.Tracer()
    for i, job in enumerate(workloads.build(name, 0)):
        with tracer.active(i):
            out, ok, _ = job.run()
        assert ok and out
    metrics = tracer.layer_metrics()
    assert metrics["padicgrp.plocal_smith.calls"][0] == 0
    assert metrics["padicgrp.subgroup_volume.calls"][0] == volumes


@pytest.mark.parametrize("name,lines", [("zeta_primes", 168), ("hecke_freeness", 332)])
def test_traced_pass_reads_each_line_once(workloads, spans, name, lines):
    # the zeta engine reads one row per projective line mod p^L, and the
    # period runs it once per double-coset class of a radial phi's terms
    # (and once more for a class's second member): a seed-0 pass makes 168
    # (zeta_primes) and 332 (hecke_freeness) row-data calls, where one
    # engine call per term made 1,064 and 812 and a row-by-row engine 5,030
    # and 2,200; the count is the per-layer row metric, so a bypassed or
    # renamed seam changes it too
    tracer = spans.Tracer()
    for i, job in enumerate(workloads.build(name, 0)):
        with tracer.active(i):
            out, ok, _ = job.run()
        assert ok and out
    assert tracer.layer_metrics()["whitzeta.row_classes.calls"][0] == lines


def test_hecke_freeness_pass_builds_each_coset_table_once(workloads, monkeypatch):
    # hecke_apply reads the single cosets of K t^-1 K from a memo per (ctx,
    # case): a seed-0 pass at p = 3 runs coset_reps once over O_F (inert) and
    # once over Z_p (split), where every one of its 28 jobs ran it
    from padicasai import heckemod

    heckemod._t_inverse_cosets.cache_clear()
    calls = []
    coset_reps = heckemod.coset_reps

    def counted(lam, ctx, quadratic):
        calls.append((lam, ctx.p, quadratic))
        return coset_reps(lam, ctx, quadratic)

    monkeypatch.setattr(heckemod, "coset_reps", counted)
    for job in workloads.build("hecke_freeness", 0):
        out, ok, _ = job.run()
        assert ok and out
    assert sorted(calls) == [(1, 3, False), (1, 3, True)]


def _clear_memos():
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("padicasai."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _fresh_traced_pass(workloads, spans, name):
    """The per-layer metrics of a traced seed-0 pass of workload name, with
    every memo emptied first, as in a fresh process."""
    _clear_memos()
    tracer = spans.Tracer()
    for i, job in enumerate(workloads.build(name, 0)):
        with tracer.active(i):
            out, ok, _ = job.run()
        assert ok and out
    return tracer.layer_metrics()


def test_chain_certify_pass_extracts_each_epsilon_once_per_chain(workloads, monkeypatch):
    # whitzeta.chain_operators runs eps_operator once per distinct b among a
    # chain's cells, and so psi_epsilon_extract once per distinct b > 0: a
    # seed-0 pass makes 6, one per part3_inert_g1 chain, where one call per
    # cell made 14; no memo spans the chains, so every certificate extracts
    # its own
    from padicasai import heckemod, whitzeta

    _clear_memos()
    extracts, expected = [], []
    extract, chain_operators = whitzeta.psi_epsilon_extract, heckemod.chain_operators

    def counted_extract(b, ctx):
        extracts.append(b)
        return extract(b, ctx)

    def counted_chain(cells, ctx):
        expected.extend(sorted({b for _, b in cells if b > 0}))
        return chain_operators(cells, ctx)

    monkeypatch.setattr(whitzeta, "psi_epsilon_extract", counted_extract)
    monkeypatch.setattr(heckemod, "chain_operators", counted_chain)
    for job in workloads.build("chain_certify", 0):
        out, ok, _ = job.run()
        assert ok and out
    assert extracts == expected
    assert len(extracts) == 6


def test_traced_chain_certify_pass_counts_symmetric_reductions(workloads, spans):
    # a seed-0 chain_certify pass makes 99 symmetric reductions and 1,320
    # Lau products; the closed forms of sym_reduce and sym_expand build no
    # Lau product, where the leading-term rewrite made 4,740 in all, exact
    # division runs on integer numerators without Lau products (646 of the
    # 3,138 that the Fraction-coefficient division made), _seq_tail's
    # truncated product is no Lau product (13 more), and euler_poly builds
    # each Euler polynomial and its involuted value once per (kind, p), where
    # rebuilding them for every certificate made 531 more, and
    # whitzeta.chain_operators scales each chain cell's S^a once, where the
    # part-3 certificate's own builder scaled S^a and S^a eps_b (64 more), and
    # the zeta engine scales a shell-0 value by its weight alone and skips an
    # empty shell part, where scaling (omega X^2)^0 by the weight and
    # multiplying the empty part by 1 - omega X^2 made 105 more (1,884), and
    # a monomial's power is built in closed form and other powers square no
    # more than their bits need, where 1 * x * x .. made 220 more, and the
    # part-3 chain extracts each epsilon once per distinct b over one
    # shared denominator, where one extraction per cell over three reduced
    # RatFuncs made 38 more (1,779), and the inner integral is one root sum
    # on integer numerators with one exact division, where summing its
    # Shintani series term by term made 195 more (1,521), and each factor
    # 1 - rho X of the zeta engine's one table per (splitting type, p) is
    # built from one monomial, where a monomial times X made 6 more (1,326)
    # over the inert and split tables at p = 3; a renamed or inlined
    # sym_reduce would drop the first count
    metrics = _fresh_traced_pass(workloads, spans, "chain_certify")
    assert metrics["exactnum.sym_reduce.calls"][0] == 99
    assert metrics["exactnum.lau_mul.calls"][0] == 1320


def test_traced_passes_count_closed_form_witness_products(workloads, spans, monkeypatch):
    # iwasawa_F and pgk_label read their witnesses off the integer block of g
    # in closed form: a seed-0 pass makes no QuadElem product on
    # hecke_freeness or coset_labels, where the matrices of QuadElem entries
    # made 19,041 and 34,440 and the column-operation matrices before them
    # 27,142 and 43,080; the Iwasawa certifications, one per distinct row
    # data per engine call, are pinned so that no certificate count can drop
    # silently: 181 on hecke_freeness (457 with one zeta engine call per
    # term, before the period grouped its terms by double coset), 54 on
    # zeta_primes and 138 on chain_certify.  The zeta engine certifies on
    # the integer block through padicgrp._iwasawa_ints, not iwasawa_F, which
    # the tracer wraps; the count is of that core, as whitzeta imports it
    from padicasai import whitzeta

    core, certified = whitzeta._iwasawa_ints, []

    def counted_core(block, ctx):
        certified.append(block)
        return core(block, ctx)

    monkeypatch.setattr(whitzeta, "_iwasawa_ints", counted_core)
    counts = []
    for name in ("hecke_freeness", "zeta_primes", "chain_certify"):
        certified.clear()
        metrics = _fresh_traced_pass(workloads, spans, name)
        counts.append(len(certified))
        if name == "hecke_freeness":
            assert metrics["exactnum.quad_mul.calls"][0] == 0
    assert counts == [181, 54, 138]
    metrics = _fresh_traced_pass(workloads, spans, "coset_labels")
    assert metrics["exactnum.quad_mul.calls"][0] == 0


def test_traced_closed_loop_profiles_every_vector(workloads, spans, monkeypatch):
    # bench/run.py --trace 1 profiles the cosets of every vector passed to
    # local_factor through TestVector.terms; hecke_freeness's T^a jobs pass
    # multi-term inert and split vectors, so a terms shape the profile cannot
    # read fails here rather than in a per-layer bench run
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        run = _load("bench_run", BENCH / "run.py")
        observed: list = []
        tracer = spans.Tracer({"heckemod.local_factor": lambda a, out: observed.append(a[0])})
        jobs = workloads.build("hecke_freeness", 0)
        pool = [next(job for job in jobs if job.kind == kind) for kind in ("inert_T", "split_T1")]
        records, _, _, overhead = run.closed_loop(pool, 0, 1, tracer, observed)
    finally:
        sys.modules.pop("bench_run", None)
    assert all(ok for *_, ok, _ in records)
    metrics = run.per_layer(tracer, records, overhead)
    assert metrics["heckemod.terms_per_vector.max"][0] > 1
