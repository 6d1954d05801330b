"""Batch command-line front end.

Machine-readable JSON goes to stdout, short human summaries to stderr.
Exit codes: 0 success; 2 input error, including a malformed number (a zero
denominator or a JSON float), a singular matrix, a --prime or --ell that is
not an odd prime, a global option the subcommand does not read (--prime:
all but hilbert-check and verify-suite; --nonresidue: zeta, local-factor,
certify, delta1-verify and gstar-factor; --seed: verify-suite), or a JSON
document of the wrong shape (a --elem, --phi, --inputs or --form document
whose fields are not the objects and lists they must be, or a --elem term
keyed by other than its group's variables and coef); 3 precision overflow,
a zeta integral reading more than 3^12 + 3^11 = 708,588 lines mod p^L,
L = max(1, Cartan spread of g), or an integer, an output or a power that a
level forces, past the interpreter's digit limit; 4 verification failure
(an AssertionError, the root of every verification error), including an
exact division, inverse Satake transform, symmetric reduction or coset
decomposition that fails inside the engine, and a mirabolic chain whose
B' is not divisible by p - 1 or whose cofactors do not re-expand (inert
certify --part 3).  Without --satake
the Satake parameters stay symbolic; --satake specializes the normalized
period, so it is an input error anywhere but zeta --normalize, and so is a
zero product of a Satake pair (a non-invertible central character).
verify-suite --only takes criterion numbers 1 to 10 and runs them in
order.  Identical configuration and seed produce byte identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .exactnum import PrecisionOverflow, QuadCtx, is_odd_prime, json_dumps
from .heckealg import HeckeElem, euler_poly, satake
from .heckemod import TestVector, certify_ideal, delta1, local_factor, trace_level
from .gstar import cyclotomic_factor_candidate, gstar_factor
from .hilbert import EigenformData, ingest, load_fixture, period_ideal_check
from .padicgrp import Mat2
from .whitzeta import SchwartzFn, zeta_asai, zeta_rs_split
from . import acceptance


def _ctx(args) -> QuadCtx:
    return QuadCtx.make(args.prime, args.nonresidue)


def _emit(args, payload: dict, summary: str) -> None:
    text = json_dumps(payload)
    sys.stdout.write(text + "\n")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    sys.stderr.write(summary + "\n")


def _input_parser(fn):
    """Report a zero denominator or a JSON document of the wrong shape met
    while parsing user input as an input error (exit 2) instead of a
    traceback."""

    @functools.wraps(fn)
    def parse(*args):
        try:
            return fn(*args)
        except ZeroDivisionError as exc:
            raise ValueError(f"malformed number: {exc}") from None
        except (TypeError, AttributeError, IndexError) as exc:
            raise ValueError(f"malformed document: {exc}") from None

    return parse


def _no_float(text: str):
    """Read a JSON float, NaN or Infinity as an input error, not a rounded value."""
    raise ValueError(f"JSON number {text} is not exact: write it as an integer or a string")


# the parser of every user JSON document
_json = functools.partial(json.loads, parse_float=_no_float, parse_constant=_no_float)


@_input_parser
def _parse_matrix(ctx: QuadCtx, spec: str) -> Mat2:
    if spec == "identity":
        return Mat2.identity(ctx)
    if spec.startswith("t:"):
        a, b = (int(x) for x in spec[2:].split(","))
        return Mat2.t(a, b, ctx)
    if spec.startswith("n_b:"):
        return Mat2.n_b(int(spec[4:]), ctx)
    if spec.startswith("n:"):
        return Mat2.upper(Fraction(spec[2:]), ctx)
    g = Mat2.from_json(_json(spec), ctx)
    if g.det() == ctx.zero():
        raise ValueError("singular matrix")
    return g


@_input_parser
def _parse_phi(p: int, spec: str) -> SchwartzFn:
    if spec == "builtin:unramified":
        return SchwartzFn.char_zp2(p)
    if spec == "builtin:phi_p2":
        return SchwartzFn.phi_p2(p)
    if spec.startswith("{"):
        return SchwartzFn.from_json(_json(spec), p)
    with open(spec) as f:
        return SchwartzFn.from_json(_json(f.read()), p)


@_input_parser
def _satake_point(spec: str, case: str) -> dict[str, Fraction]:
    """--satake as symmetric coordinates: A,B gives e1, e2 (inert);
    u1,v1,u2,v2 gives e1_i, e2_i per component (split)."""
    vals = [Fraction(v) for v in spec.split(",")]
    suffixes = [""] if case == "inert" else ["_1", "_2"]
    if len(vals) != 2 * len(suffixes):
        raise ValueError(f"--satake takes {2 * len(suffixes)} values in the {case} case")
    point = {}
    for sfx, x, y in zip(suffixes, vals[::2], vals[1::2]):
        if x * y == 0:
            raise ValueError("central character value must be invertible")
        point["e1" + sfx], point["e2" + sfx] = x + y, x * y
    return point


def _term_gs(doc, case: str, ctx: QuadCtx) -> tuple:
    """A term's g as its tuple of components: one matrix at an inert prime,
    a pair at a split one."""
    try:
        return tuple(Mat2.from_json(m, ctx) for m in (doc if case == "split" else [doc]))
    except (ValueError, TypeError) as exc:
        shape = "a pair of matrices" if case == "split" else "one matrix"
        raise ValueError(f"term field 'g' of a {case} vector must be {shape}: {exc}") from None


@_input_parser
def _load_vector(args) -> TestVector:
    ctx = _ctx(args)
    with open(args.vector) as f:
        doc = _json(f.read())
    case, level, star = doc["case"], doc["level"], bool(doc.get("star", False))
    TestVector(ctx, case, level, [], star)  # an unknown case or level fails before any term
    summands = [(SchwartzFn.from_json(t["phi"], args.prime), _term_gs(t["g"], case, ctx), Fraction(t["coef"]))
                for t in doc["terms"]]
    return TestVector(ctx, case, level, summands, star)


@_input_parser
def _parse_elem(spec: str) -> HeckeElem:
    return HeckeElem.from_json(_json(spec))


def cmd_satake(args) -> None:
    h = _parse_elem(args.elem)
    img = satake(h, args.prime)
    _emit(args, {"input": h.to_json(), "satake": img.to_json()}, f"satake transform of a {h.group} element")


def cmd_euler_poly(args) -> None:
    ep = euler_poly(args.kind, args.prime)
    payload = {
        "kind": args.kind,
        "coefficients": [c.to_json() for c in ep.coeffs],
        "at_one": ep.at_one().to_json(),
        "involuted_at_one": ep.involute_at_one().to_json(),
    }
    _emit(args, payload, f"Euler polynomial {args.kind} at p={args.prime}")


def cmd_zeta(args) -> None:
    ctx = _ctx(args)
    phi = _parse_phi(args.prime, args.phi)
    case = args.case
    point = _satake_point(args.satake, case) if args.satake else None
    specs = args.g.split(";")
    need = 2 if case == "split" else 1
    if len(specs) != need:
        raise ValueError(f"--g takes {need} ';'-joined matrix spec(s) in the {case} case, got {len(specs)}")
    gs = tuple(_parse_matrix(ctx, s) for s in specs)
    res = zeta_rs_split(phi, gs, ctx) if case == "split" else zeta_asai(phi, *gs, ctx)
    if not args.normalize:
        _emit(args, res.to_json(), f"zeta integral ({case})")
        return
    sym = res.normalized()
    payload = {"normalized": sym.to_json()} if point is None else {"normalized_value": str(sym.eval(point))}
    _emit(args, payload, f"normalized zeta integral ({case})")


def cmd_local_factor(args) -> None:
    vec = _load_vector(args)
    if vec.level == "K[p]":
        vec = trace_level(vec)
    P = local_factor(vec)
    _emit(args, {"local_factor": P.to_json()}, "local factor computed")


def cmd_certify(args) -> None:
    vec = _load_vector(args)
    rep = certify_ideal(vec, args.part)
    if not rep.verified():
        raise AssertionError("certificate failed verification")
    _emit(args, rep.to_json(), f"part {args.part} certificate verified")


def cmd_delta1_verify(args) -> None:
    rep = delta1(_ctx(args), args.case)
    vec = rep.pop("vector")
    p_tr = rep.pop("p_trace")
    rep["traced_local_factor"] = p_tr.to_json()
    checks = [v for k, v in rep.items() if isinstance(v, bool)]
    if not all(checks):
        _emit(args, rep, "delta_1 verification FAILED")
        raise AssertionError("delta_1 verification failed")
    _emit(args, rep, f"delta_1 ({args.case}, p={args.prime}): all identities verified")


def cmd_gstar_factor(args) -> None:
    if args.vector:
        vec = _load_vector(args)
    else:
        vec = delta1(_ctx(args), args.case)["vector"]
    out = gstar_factor(vec)
    payload = out.to_json()
    payload["cyclotomic_candidate"] = cyclotomic_factor_candidate(out)
    _emit(args, payload, "G* local factor and certificate computed")


@_input_parser
def _load_local_inputs(path: str, data: EigenformData) -> list[dict]:
    """The local inputs, each g read by the form's splitting type at its prime."""
    with open(path) as f:
        docs = _json(f.read())
    inputs = []
    for d in docs:
        p = int(d["p"])
        if p not in data.primes:
            raise ValueError(f"no eigenvalue data at {p}")
        ctx = QuadCtx.make(p)
        phi = SchwartzFn.from_json(d["phi"], p)
        inputs.append({"p": p, "phi": phi, "g": _term_gs(d["g"], data.primes[p].kind, ctx), "level": d["level"]})
    return inputs


@_input_parser
def _load_form(spec: str) -> EigenformData:
    if spec.startswith("builtin:"):
        return load_fixture(spec.split(":", 1)[1])
    with open(spec) as f:
        return ingest(_json(f.read()))


def cmd_hilbert_check(args) -> None:
    data = _load_form(args.form)
    inputs = _load_local_inputs(args.inputs, data) if args.inputs else []
    s0 = [int(x) for x in args.s0.split(",")] if args.s0 else []
    rep = period_ideal_check(
        data, inputs, s0, args.ell, assume_class_coprime=args.assume_coprime
    )
    _emit(args, rep, f"period check: member={rep['member']}")
    if not rep["member"]:
        raise AssertionError("period value outside the stated ideal")


def cmd_verify_suite(args) -> None:
    only = [int(x) for x in args.only.split(",")] if args.only else None
    n = len(acceptance.CRITERIA)
    if only and not all(1 <= i <= n for i in only):
        raise ValueError(f"--only takes criterion numbers 1 to {n}")
    rep = acceptance.run_suite(seed=args.seed, only=only)
    lines = [
        f"  [{r['criterion']:2d}] {'PASS' if r['ok'] else 'FAIL'}  {r['name']} ({r['seconds']}s)"
        for r in rep["criteria"]
    ]
    # timings go to stderr only, so equal config and seed give equal bytes
    payload = {
        **rep,
        "criteria": [{k: v for k, v in r.items() if k != "seconds"} for r in rep["criteria"]],
    }
    _emit(args, payload, "acceptance battery:\n" + "\n".join(lines))
    if not rep["all_ok"]:
        raise AssertionError("acceptance criteria failed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="padicasai", description=__doc__)
    # unset unless given, so main can refuse one its subcommand does not read
    ap.add_argument("--prime", type=int, default=argparse.SUPPRESS, help="default 3")
    ap.add_argument("--nonresidue", type=int, default=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="default 0")
    ap.add_argument("--out", type=str, default=None)
    ap.add_argument(
        "--satake",
        default=None,
        metavar="A,B",
        help="specialize the normalized period (zeta --normalize): A,B (inert) or u1,v1,u2,v2 (split)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("satake", help="Satake transform of a Hecke element")
    s.add_argument("--elem", required=True, help="HeckeElem JSON")

    s = sub.add_parser("euler-poly", help="local Euler factor polynomials")
    s.add_argument(
        "--kind",
        required=True,
        choices=["asai_inert", "asai_star_inert", "asai_star_split", "standard_F", "rs_split"],
    )

    s = sub.add_parser("zeta", help="local zeta integral")
    s.add_argument("--phi", required=True, help="SchwartzFn JSON, path, or builtin:<name>")
    s.add_argument("--g", default="identity", help="matrix spec; split case: two specs joined by ';'")
    s.add_argument("--case", choices=["inert", "split"], default="inert")
    s.add_argument("--normalize", action="store_true")

    s = sub.add_parser("local-factor", help="local factor of a test vector")
    s.add_argument("--vector", required=True)

    s = sub.add_parser("certify", help="ideal certificate for a test vector")
    s.add_argument("--vector", required=True)
    s.add_argument("--part", type=int, required=True, choices=[1, 2, 3])

    s = sub.add_parser("delta1-verify", help="verify the canonical vector identities")
    s.add_argument("--case", choices=["inert", "split"], default="inert")

    s = sub.add_parser("gstar-factor", help="G* local factor with certificate")
    s.add_argument("--case", choices=["inert", "split"], default="inert")
    s.add_argument("--vector", default=None)

    s = sub.add_parser("hilbert-check", help="l-adic period ideal check")
    s.add_argument("--form", required=True, help="eigenform JSON path or builtin:<fixture>")
    s.add_argument("--inputs", default=None, help="JSON list of local inputs")
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--s0", default="", help="comma-separated primes of S_0")
    s.add_argument("--assume-coprime", action="store_true")

    s = sub.add_parser("verify-suite", help="run the acceptance battery")
    s.add_argument("--only", default=None, help="comma-separated criterion numbers, 1 to 10")
    return ap


GLOBAL_DEFAULTS = {"prime": 3, "nonresidue": None, "seed": 0}

# each subcommand with the global options it reads
COMMANDS = {
    "satake": (cmd_satake, {"prime"}),
    "euler-poly": (cmd_euler_poly, {"prime"}),
    "zeta": (cmd_zeta, {"prime", "nonresidue"}),
    "local-factor": (cmd_local_factor, {"prime", "nonresidue"}),
    "certify": (cmd_certify, {"prime", "nonresidue"}),
    "delta1-verify": (cmd_delta1_verify, {"prime", "nonresidue"}),
    "gstar-factor": (cmd_gstar_factor, {"prime", "nonresidue"}),
    "hilbert-check": (cmd_hilbert_check, set()),
    "verify-suite": (cmd_verify_suite, {"seed"}),
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cmd, reads = COMMANDS[args.command]
    try:
        for opt, default in GLOBAL_DEFAULTS.items():
            if hasattr(args, opt) and opt not in reads:
                raise ValueError(f"{args.command} does not read --{opt}")
            setattr(args, opt, getattr(args, opt, default))
        if not is_odd_prime(args.prime):
            raise ValueError(f"the prime {args.prime} is not an odd prime")
        if args.satake and (args.command != "zeta" or not args.normalize):
            raise ValueError("--satake specializes the normalized period: it needs zeta --normalize")
        cmd(args)
        return 0
    except PrecisionOverflow as exc:
        sys.stderr.write(f"precision overflow: {exc}\n")
        return 3
    except AssertionError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 4
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
