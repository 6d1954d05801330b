"""Exact arithmetic for spherical Hecke modules on GL(2) over p-adic
fields: Whittaker values, local Asai and Rankin-Selberg zeta integrals,
integral test-data lattices, local Euler-factor certificates, and the
l-adic period check for Hilbert eigenform data.

Everything is computed in exact rational arithmetic; limits s -> 0 are
exact divisions evaluated at X = 1 with X = p^(-s).
"""

from .exactnum import (
    INF,
    Lau,
    NotDivisible,
    NotInImage,
    NotSymmetric,
    PrecisionOverflow,
    QuadCtx,
    QuadElem,
    RatFunc,
    complete_homog,
    sym_expand,
    sym_reduce,
    val_p,
)
from .padicgrp import (
    CosetWitness,
    DecompositionError,
    IwasawaParts,
    Mat2,
    coset_reps,
    gen_cartan_label,
    iwasawa_F,
    pgk_label,
)
from .heckealg import (
    EulerPoly,
    HeckeElem,
    NotMember,
    euler_poly,
    ideal_cert,
    inv_satake,
    involution,
    iota_embed,
    iota_solve,
    satake,
)
from .whitzeta import (
    SchwartzFn,
    ZetaResult,
    epsilon_report,
    gauss_shell,
    lambda_form,
    psi_secondary,
    wsph_value,
    zeta_asai,
    zeta_rs_split,
)
from .heckemod import (
    TestVector,
    certify_ideal,
    delta1,
    generator_vector,
    hecke_apply,
    integrality_check,
    local_factor,
    trace_level,
    xi_phi_chain,
)
from .gstar import GradedFactor, frob_grade, gstar_factor, ip_embed
from .hilbert import (
    EigenformData,
    asai_artin_value,
    ingest,
    load_fixture,
    period_ideal_check,
    satake_from_eigen,
)
from .acceptance import run_suite

__version__ = "0.1.0"
