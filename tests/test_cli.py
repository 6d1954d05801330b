import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from padicasai.cli import main

CMD = [sys.executable, "-m", "padicasai.cli"]


def run_module(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def run(*args):
    """cli.main in-process, as a CompletedProcess; an exception it lets
    escape fails the test, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse rejects its own arguments
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


ONE = [[{"a": "1", "b": "0"}, {"a": "0", "b": "0"}], [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}]]


def test_zeta_unramified_normalized():
    r = run("--prime", "3", "zeta", "--phi", "builtin:unramified", "--g", "identity", "--normalize")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["normalized"]["terms"] == {"0,0": "1"}


def test_zeta_specialized():
    r = run(
        "--prime", "3", "--satake", "2,3",
        "zeta", "--phi", "builtin:unramified", "--normalize",
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["normalized_value"] == "1"


def test_euler_poly_and_satake_roundtrip():
    r = run("--prime", "5", "euler-poly", "--kind", "asai_inert")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    at1 = doc["at_one"]
    r2 = run("--prime", "5", "satake", "--elem", json.dumps(at1))
    assert r2.returncode == 0


def test_delta1_verify():
    r = run("--prime", "5", "delta1-verify", "--case", "inert")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["A_s_equals_one"] is True


def test_gstar_factor_delta1():
    r = run("--prime", "3", "gstar-factor", "--case", "split")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["certificate"]["verified"] is True


def test_hilbert_check_builtin():
    r = run("hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["member"] is True


def test_vector_serialization_roundtrip(tmp_path):
    from fractions import Fraction

    from padicasai.exactnum import QuadCtx
    from padicasai.heckemod import TestVector
    from padicasai.padicgrp import Mat2
    from padicasai.whitzeta import SchwartzFn

    ctx = QuadCtx.make(3)
    vec = TestVector(
        ctx,
        "inert",
        "K[p]",
        [(SchwartzFn.phi_p2(3), (Mat2.n_b(1, ctx),), Fraction(-2, 3))],
        star=False,
    )
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(vec.to_json()))
    r = run("--prime", "3", "certify", "--vector", str(path), "--part", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["certificate"]["verified"] is True


def test_input_error_exit_code():
    # the one case through the python -m padicasai.cli entry point
    r = run_module("--prime", "4", "euler-poly", "--kind", "asai_inert")
    assert r.returncode == 2
    r2 = run_module("hilbert-check", "--form", "missing.json", "--ell", "5")
    assert r2.returncode == 2


@pytest.mark.parametrize(
    "case, g", [("split", "identity"), ("split", "identity;identity;identity"), ("inert", "identity;t:1,0")]
)
def test_zeta_g_spec_count_is_an_input_error(case, g):
    # a split zeta takes exactly two ';'-joined matrix specs, an inert one exactly one
    r = run("--prime", "3", "zeta", "--phi", "builtin:unramified", "--case", case, "--g", g)
    assert r.returncode == 2
    assert "input error: --g takes" in r.stderr
    assert "Traceback" not in r.stderr


def test_precision_overflow_exit_code(tmp_path):
    # g = n(1/2187) has Cartan spread 14: its lines mod p^14 lie above the cap 12
    phi = {"level": 2, "cells": [{"c": ["0", "1"], "coef": "1"}]}
    r = run("--prime", "3", "zeta", "--phi", json.dumps(phi), "--g", "n:1/2187")
    assert r.returncode == 3


@pytest.mark.parametrize(
    "args",
    [
        # 7^8 + 7^7 = 6,588,344 lines mod 7^8, above the cap 3^12 + 3^11
        ["--prime", "7", "zeta", "--phi", "builtin:unramified", "--g", "t:8,0"],
        # the level 10000 is compared with 12, not p^L with the cap: printing
        # 3^10000 + 3^9999 would pass the interpreter's digit limit (exit 2)
        ["--prime", "3", "zeta", "--phi", "builtin:unramified", "--g", "t:10000,0"],
        # v(det) = 100000 is read in O(log v) divisions, not one per unit
        ["--prime", "3", "zeta", "--phi", "builtin:unramified", "--g", "t:100000,0"],
    ],
)
def test_work_cap_exits_3_at_once(args, monkeypatch):
    # the cap raises before any line is read: the input's own cell is the
    # only one canonicalized
    from padicasai import whitzeta

    calls = {"lines": 0, "cells": 0}
    line_reps, canon = whitzeta._line_reps, whitzeta.SchwartzFn._canon

    def counted(key, fn):
        def wrapper(*a):
            calls[key] += 1
            return fn(*a)
        return wrapper

    monkeypatch.setattr(whitzeta, "_line_reps", counted("lines", line_reps))
    monkeypatch.setattr(whitzeta.SchwartzFn, "_canon", counted("cells", canon))
    r = run(*args)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("precision overflow: ")
    assert calls["lines"] == 0 and calls["cells"] <= 1


def test_output_past_the_digit_limit_exits_3(tmp_path):
    # a valid vector whose local factor holds a 9,541-digit coefficient: too
    # long to print is a precision overflow, not an input error
    doc = json.loads((INPUTS / "vec_K.json").read_text())
    doc["terms"][0]["phi"]["level"] = 10000
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(doc))
    r = run("--prime", "3", "local-factor", "--vector", str(path))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("precision overflow: ") and "digit" in r.stderr
    assert r.stdout == ""


def satake_elem(group, coef="1", **exps):
    return ["satake", "--elem", json.dumps({"group": group, "terms": [dict(exps, coef=coef)]})]


@pytest.mark.parametrize(
    "args",
    [
        satake_elem("inert_F", T=10 ** 8),
        satake_elem("inert_F", T=10 ** 8, S=10 ** 8),
        satake_elem("split_pair", S1=10 ** 8),
        satake_elem("split_pair", T1=10 ** 8, S1=10 ** 8, T2=10 ** 8, S2=10 ** 8),
        satake_elem("split_pair", T2=10 ** 8, S2=-(10 ** 8)),
    ],
)
def test_satake_exponent_past_the_digit_limit_exits_3_at_once(args, monkeypatch):
    # p^(10^8) has 47,712,126 digits at p = 3: the exponent is compared with
    # the digit limit before any p-power or transform is built
    from padicasai import heckealg

    built = []
    from_ints = heckealg.Lau.from_ints
    monkeypatch.setattr(heckealg.Lau, "from_ints", lambda *a: built.append(a) or from_ints(*a))
    r = run("--prime", "3", *args)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("precision overflow: ") and "Traceback" not in r.stderr
    assert r.stdout == "" and built == []


@pytest.mark.parametrize(
    "args,term",
    [
        # 3^9000 has 4,295 digits, inside the default limit of 4,300
        (satake_elem("inert_F", T=9000), ("9000,0", 3 ** 9000)),
        # an S exponent scales no inert coefficient: e2^(10^8) prints
        (satake_elem("inert_F", S=10 ** 8), ("0,100000000", 1)),
        (satake_elem("split_pair", S1=-9000), ("0,-9000,0,0", 3 ** 9000)),
        # past 9,030 = 21 ceil(4300 / 10), but the coefficient cancels 3^40
        (satake_elem("inert_F", coef=f"1/{3 ** 40}", T=9040), ("9040,0", 3 ** 9000)),
        (satake_elem("split_pair", coef=str(3 ** 40), S1=9040), ("0,9040,0,0", f"1/{3 ** 9000}")),
    ],
)
def test_satake_exponent_inside_the_digit_limit_prints(args, term):
    r = run("--prime", "3", *args)
    assert r.returncode == 0, r.stderr
    key, coef = term
    assert json.loads(r.stdout)["satake"]["terms"] == {key: str(coef)}


def test_level_minus_40_is_one_cell():
    # ch(3^-40 Z_3^2) is kept as one cell at level -40, not 3^80 level-0
    # cells: its zeta integral is (omega(p) X^2)^-40 times the unramified one
    phi = json.dumps({"level": -40, "cells": [{"c": ["0", "0"], "coef": "1"}]})
    r = run("--prime", "3", "zeta", "--phi", phi)
    base = run("--prime", "3", "zeta", "--phi", "builtin:unramified")
    assert r.returncode == base.returncode == 0, r.stderr
    got, want = json.loads(r.stdout)["ratfunc"], json.loads(base.stdout)["ratfunc"]
    assert got["den"] == want["den"]
    assert (want["num"]["terms"], got["num"]["terms"]) == ({"0,0,0": "1"}, {"-40,-40,-80": "1"})


def level_vector(tmp_path, case: str, level: int, centre=("0", "0")) -> str:
    """ch(c + 3^level Z_3^2) (x) ch(K) as a vector file."""
    phi = {"level": level, "cells": [{"c": list(centre), "coef": "1"}]}
    doc = {"case": case, "level": "K", "terms": [{"phi": phi, "g": ONE if case == "inert" else [ONE, ONE], "coef": "1"}]}
    path = tmp_path / f"{case}_{level}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_bounded(*args):
    """The CLI in a process of 1 GB address space and 20 s: a p-power that a
    level forces fails the test, where in-process it would hang the suite."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=20, preexec_fn=limit)


@pytest.mark.parametrize("level", [3, -3, 10 ** 30, -(10 ** 30)])
def test_the_origin_cell_builds_no_p_power_at_any_level(level, tmp_path):
    # ch(3^N Z_3^2) (x) ch(K) has the factor S^-N (inert) and S1^-N S2^-N
    # (split): the origin centre is canonical with no p^N, and its
    # stabilizer is GL2(Z_p) with no p^-N either
    inert = level_vector(tmp_path, "inert", level)
    r = run_bounded("--prime", "3", "local-factor", "--vector", inert)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["local_factor"]["terms"] == [{"S": -level, "T": 0, "coef": "1"}]
    r = run_bounded("--prime", "3", "certify", "--part", "1", "--vector", inert)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["target"]["terms"] == [{"S": -level, "T": 0, "coef": "1"}]
    # the split zeta integral holds (omega(p) X^2)^N, whose coefficient p^(-2N)
    # is refused before it is built once it passes the digit limit
    r = run_bounded("--prime", "3", "local-factor", "--vector", level_vector(tmp_path, "split", level))
    if abs(level) == 3:
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["local_factor"]["terms"] == [
            {"S1": -level, "S2": -level, "T1": 0, "T2": 0, "coef": "1"}
        ]
    else:
        assert r.returncode == 3 and r.stderr.startswith("precision overflow: ") and "digits" in r.stderr


def test_a_centre_off_the_origin_at_a_huge_level_exits_3(tmp_path):
    # the centre 6 is canonical mod 3^N: p^N is refused before it is built
    r = run_bounded("--prime", "3", "local-factor", "--vector", level_vector(tmp_path, "inert", 10 ** 30, ("6", "0")))
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr.startswith("precision overflow: ") and "Traceback" not in r.stderr


def test_verify_suite_subset_deterministic():
    # identical configuration and seed: byte-identical stdout
    r1 = run("--seed", "1", "verify-suite", "--only", "1,4,7,10")
    r2 = run("--seed", "1", "verify-suite", "--only", "1,4,7,10")
    assert r1.returncode == 0
    assert json.loads(r1.stdout)["all_ok"] is True
    assert r1.stdout == r2.stdout


# one prime of the builtin synthetic_w2 form; hilbert-check accepts it as is
PRIME3 = {"type": "inert", "lambda": ["2"], "omega": ["1"]}
FORM = {
    "schema": 1,
    "field_disc": 12,
    "weights": {"k": [2, 2], "t": [0, 0]},
    "coefficient_field": {"d": None},
    "primes": {"3": PRIME3},
}


def form_with_lambda(lam):
    return dict(FORM, primes={"3": dict(PRIME3, **{"lambda": lam})})


INPUTS = Path(__file__).parent / "golden" / "inputs"
SPLIT11 = json.loads((INPUTS / "inputs_split11.json").read_text())
SINGULAR = json.dumps([[{"a": "1", "b": "0"}, {"a": "1", "b": "0"}], [{"a": "1", "b": "0"}, {"a": "1", "b": "0"}]])
MALFORMED = {
    "matrix zero denominator": ["zeta", "--phi", "builtin:unramified", "--g", "n:1/0"],
    "satake zero denominator": ["--satake", "1/0,2", "zeta", "--phi", "builtin:unramified", "--normalize"],
    # --satake specializes the normalized period, at an invertible central character
    "satake without normalize": ["--satake", "2,3", "zeta", "--phi", "builtin:unramified"],
    "satake with euler-poly": ["--satake", "2,3", "euler-poly", "--kind", "asai_inert"],
    "satake with delta1-verify": ["--satake", "2,3", "delta1-verify"],
    "satake zero central character inert": ["--satake", "0,3", "zeta", "--phi", "builtin:unramified", "--normalize"],
    "satake zero central character split": [
        "--satake", "2,3,0,7", "zeta", "--case", "split",
        "--phi", "builtin:phi_p2", "--g", "identity;n:1/3", "--normalize",
    ],
    # the battery has criteria 1 to 10
    "only ninety-nine": ["verify-suite", "--only", "99"],
    "only zero and seven": ["verify-suite", "--only", "0,7"],
    "cell zero denominator": [
        "zeta", "--phi", json.dumps({"level": 1, "cells": [{"c": ["1/0", "0"], "coef": "1"}]}),
    ],
    "singular matrix inert": ["zeta", "--phi", "builtin:unramified", "--g", SINGULAR],
    "singular matrix split": ["zeta", "--phi", "builtin:unramified", "--case", "split", "--g", "identity;" + SINGULAR],
    # --prime and --ell must be odd primes
    "ell zero": ["hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "0"],
    "ell four": ["hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "4"],
    "ell negative": ["hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "-5"],
    "prime nine zeta": ["--prime", "9", "zeta", "--phi", "builtin:unramified"],
    "prime nine euler-poly": ["--prime", "9", "euler-poly", "--kind", "asai_inert"],
    "prime fifteen delta1": ["--prime", "15", "delta1-verify"],
    # JSON documents of the wrong shape; a dict or list below is written to
    # a file and passed by its path
    "elem terms not a list": ["satake", "--elem", json.dumps({"group": "inert_F", "terms": "x"})],
    "elem terms an object": ["satake", "--elem", json.dumps({"group": "inert_F", "terms": {}})],
    # a key outside the group's variables and coef was dropped: T1 read as T1^0
    "elem unknown key": ["satake", "--elem", json.dumps({"group": "inert_F", "terms": [{"T1": 2, "coef": "1"}]})],
    "elem not an object": ["satake", "--elem", "[1]"],
    # an unknown group read as a split one and was refused for its term key T
    "elem unknown group": ["satake", "--elem", json.dumps({"group": "bogus", "terms": [{"T": 1, "coef": "1"}]})],
    "elem zero denominator": ["satake", "--elem", json.dumps({"group": "inert_F", "terms": [{"T": 1, "coef": "1/0"}]})],
    "phi cell not an object": ["zeta", "--phi", json.dumps({"level": 1, "cells": [5]})],
    "inputs not a list": ["hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5", "--inputs", {"p": 11}],
    # each --inputs g must match the splitting type of its prime (11 splits in
    # synthetic_w2 and is inert in synthetic_w2_quad), and its level be K or K[p]
    "inputs one matrix at a split prime": [
        "hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5",
        "--inputs", str(INPUTS / "inputs_inert11.json"), "--s0", "11",
    ],
    "inputs matrix pair at an inert prime": [
        "hilbert-check", "--form", "builtin:synthetic_w2_quad", "--ell", "5",
        "--inputs", str(INPUTS / "inputs_split11.json"), "--s0", "11",
    ],
    "inputs level banana": [
        "hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5",
        "--inputs", [dict(d, level="banana") for d in SPLIT11],
    ],
    "inputs g empty": [
        "hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5",
        "--inputs", [dict(d, g=[]) for d in SPLIT11],
    ],
    "form lambda zero denominator": ["hilbert-check", "--ell", "5", "--form", form_with_lambda(["1/0"])],
    "form lambda not a list": ["hilbert-check", "--ell", "5", "--form", form_with_lambda("2")],
    "form primes not an object": ["hilbert-check", "--ell", "5", "--form", dict(FORM, primes=[])],
    # a JSON float is not an exact number: 0.1 was read as
    # 3602879701896397/36028797018963968, a level or T exponent of 1.7 cut
    # to 1, and a level of 1e400 escaped as an OverflowError
    "phi coef float": ["zeta", "--phi", json.dumps({"level": 1, "cells": [{"c": ["0", "1"], "coef": 0.1}]})],
    "phi level float": ["zeta", "--phi", json.dumps({"level": 1.7, "cells": [{"c": ["0", "1"], "coef": "1"}]})],
    "phi level 1e400": ["zeta", "--phi", '{"level": 1e400, "cells": [{"c": ["0", "1"], "coef": "1"}]}'],
    "phi level Infinity": ["zeta", "--phi", '{"level": Infinity, "cells": []}'],
    "elem T float": ["satake", "--elem", json.dumps({"group": "inert_F", "terms": [{"T": 1.5, "coef": "1"}]})],
    "vector coef float": [
        "local-factor", "--vector",
        {"case": "inert", "level": "K", "terms": [
            {"phi": {"level": 0, "cells": [{"c": ["0", "0"], "coef": "1"}]}, "g": ONE, "coef": 0.5}
        ]},
    ],
    # a cell centre is a pair and a matrix two rows of two: ["1", "0", "5"]
    # lost its third entry, and [[a, b, c], [d]] was read as [[a, b], [c, d]]
    "phi centre of three": [
        "zeta", "--phi", json.dumps({"level": 1, "cells": [{"c": ["1", "0", "5"], "coef": "1"}]}),
    ],
    "matrix rows of three and one": [
        "zeta", "--phi", "builtin:unramified", "--g", json.dumps([ONE[0] + ONE[1][:1], ONE[1][1:]]),
    ],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(name, tmp_path):
    args = []
    for i, arg in enumerate(MALFORMED[name]):
        if not isinstance(arg, str):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    r = run(*args)
    assert r.returncode == 2
    assert r.stderr.startswith("input error: ") and "does not read" not in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("form", ["synthetic_w2", "synthetic_w2_quad"])
def test_hilbert_s0_prime_without_inputs_exits_2(form):
    # an S0 prime (11 = 1 mod 5, split in synthetic_w2, inert in
    # synthetic_w2_quad) carries determinant-level data; with no --inputs
    # at it the level was never checked and the run ended in exit 4
    r = run("hilbert-check", "--form", f"builtin:{form}", "--ell", "5", "--s0", "11")
    assert r.returncode == 2, r.stderr
    assert r.stderr == "input error: 11 in S0 needs determinant-level data\n"
    assert r.stdout == ""


HILBERT = ["hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5"]
ZETA = ["zeta", "--phi", "builtin:unramified"]
SATAKE = ["satake", "--elem", json.dumps({"group": "inert_F", "terms": [{"T": 1, "coef": "1"}]})]


@pytest.mark.parametrize(
    "option,args",
    [
        # verify-suite reads --seed only; hilbert-check builds each prime's context itself
        (["--prime", "5"], ["verify-suite", "--only", "3"]),
        (["--prime", "3"], HILBERT),
        (["--nonresidue", "2"], HILBERT),
        (["--seed", "1"], HILBERT),
        (["--nonresidue", "2"], SATAKE),
        (["--nonresidue", "2"], ["euler-poly", "--kind", "asai_inert"]),
        (["--seed", "1"], ZETA),
        (["--seed", "0"], ["certify", "--vector", str(INPUTS / "vec_K.json"), "--part", "1"]),
    ],
)
def test_a_global_option_the_subcommand_does_not_read_exits_2(option, args):
    r = run(*option, *args)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"input error: {args[0]} does not read {option[0]}\n"


@pytest.mark.parametrize(
    "option,args",
    [
        (["--nonresidue", "2", "--prime", "3"], ZETA),
        (["--prime", "5"], SATAKE),
        (["--seed", "1"], ["verify-suite", "--only", "1"]),
        ([], HILBERT),
    ],
)
def test_a_global_option_the_subcommand_reads_runs(option, args):
    r = run(*option, *args)
    assert r.returncode == 0, r.stderr


def test_well_formed_form_file_runs(tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(FORM))
    r = run("hilbert-check", "--form", str(path), "--ell", "5")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["member"] is True


def test_negative_level_phi_runs():
    # level -1 made p ** N a float inside the cell canonicalization: exit 1
    phi = json.dumps({"level": -1, "cells": [{"c": ["0", "0"], "coef": "1"}]})
    r = run("--prime", "3", "zeta", "--phi", phi, "--normalize")
    assert r.returncode == 0
    assert "Traceback" not in r.stderr


def test_certify_nine_cells_prints_the_one_cell_output(tmp_path):
    # ch(Z_p^2) written on its nine level-1 cells is the generator's one
    # level-0 cell: the same function, certified with the same bytes
    nine = [{"c": [str(x), str(y)], "coef": "1"} for x in range(3) for y in range(3)]
    outs = []
    for phi in ({"level": 1, "cells": nine}, {"level": 0, "cells": [{"c": ["0", "0"], "coef": "1"}]}):
        path = tmp_path / f"vec{len(outs)}.json"
        path.write_text(json.dumps({"case": "inert", "level": "K", "terms": [{"phi": phi, "g": ONE, "coef": "1"}]}))
        r = run("--prime", "3", "certify", "--vector", str(path), "--part", "1")
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


ENGINE_FAULTS = ["NotDivisible", "NotInImage", "NotSymmetric", "DecompositionError"]


@pytest.mark.parametrize("name", ENGINE_FAULTS)
def test_engine_fault_exits_4(name, monkeypatch, capsys):
    # raised past parsing, inside the local-factor engine: a verification failure
    import padicasai
    from padicasai import heckemod

    def broken(*args, **kwargs):
        raise getattr(padicasai, name)("injected engine fault")

    monkeypatch.setattr(heckemod, "inv_satake", broken)
    vec = Path(__file__).parent / "golden" / "inputs" / "vec_K.json"
    code = main(["--prime", "3", "local-factor", "--vector", str(vec)])
    err = capsys.readouterr().err
    assert code == 4
    assert "verification failure: injected engine fault" in err
    assert "Traceback" not in err


# plocal_smith reports one pivot fewer: the stacked identity rows give every
# condition matrix full column rank, so the lattice layer's rank check is an
# engine fault, not an input error.  kck_membership is the Smith engine's one
# caller, reached by the Cartan labels of verify-suite's criterion 3
ONE_PIVOT_FEWER = """
from padicasai import padicgrp
smith = padicgrp.plocal_smith
def one_pivot_fewer(rows, p):
    t, tden, exps, V, w = smith(rows, p)
    return t, tden, exps[:-1], V, w
padicgrp.plocal_smith = one_pivot_fewer
"""

# the congruence count drops its first accepted residue class: the volume of
# a subgroup is then not 1 / an integer index, which the volume checks
COUNT_ONE_CLASS_SHORT = """
from padicasai import padicgrp
count = padicgrp.congruence_measure
def one_class_short(rows, n, p, accept):
    dropped = []
    def accept_all_but_the_first(x):
        if accept(x) and not dropped:
            dropped.append(x)
            return False
        return accept(x)
    return count(rows, n, p, accept_all_but_the_first)
padicgrp.congruence_measure = one_class_short
"""


def exits_4_in_every_mode(monkeypatch, fault, name, argv, stderr):
    # in process, then under python -O, which keeps the check: it is no bare assert
    from padicasai import padicgrp

    monkeypatch.setattr(padicgrp, name, getattr(padicgrp, name))  # restored after the run
    exec(fault, {})
    r = run(*argv)
    monkeypatch.undo()
    assert r.returncode == 4, r.stderr
    assert r.stderr == stderr
    code = fault + f"import sys\nfrom padicasai.cli import main\nsys.exit(main({argv!r}))\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 4, r.stderr
    assert r.stderr == stderr


def test_a_lattice_invariant_fault_exits_4_in_every_mode(monkeypatch):
    argv = ["verify-suite", "--only", "3"]
    stderr = "verification failure: condition matrix not of full column rank\n"
    exits_4_in_every_mode(monkeypatch, ONE_PIVOT_FEWER, "plocal_smith", argv, stderr)


def test_a_volume_count_fault_exits_4_in_every_mode(monkeypatch):
    vec = str(Path(__file__).parent / "golden" / "inputs" / "vec_K.json")
    argv = ["--prime", "3", "certify", "--vector", vec, "--part", "1"]
    stderr = "verification failure: the volume 5/48 of a subgroup is not the inverse of an index\n"
    exits_4_in_every_mode(monkeypatch, COUNT_ONE_CLASS_SHORT, "congruence_measure", argv, stderr)


# (case, level, g, the field stderr must name): each g has the wrong shape
# for its case, or the case or level is unknown
MALFORMED_VECTORS = {
    "pair under inert": ("inert", "K", [ONE, ONE], "'g'"),
    "matrix under split": ("split", "K", ONE, "'g'"),
    "case Split": ("Split", "K", ONE, "case"),
    "level k": ("inert", "k", ONE, "level"),
}


# (form, --inputs, the text stderr must hold): each g is read by the
# splitting type of its prime in the form (11 splits in synthetic_w2 and is
# inert in synthetic_w2_quad), and a prime the form lacks has no type
MALFORMED_INPUTS = {
    "matrix pair at an inert prime": ("builtin:synthetic_w2_quad", SPLIT11, "'g'"),
    "one matrix at a split prime": ("builtin:synthetic_w2", str(INPUTS / "inputs_inert11.json"), "'g'"),
    "prime absent from the form": ("builtin:synthetic_w2", [dict(d, p=5) for d in SPLIT11], "at 5"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_hilbert_inputs_name_the_field(name, tmp_path):
    form, inputs, field = MALFORMED_INPUTS[name]
    if not isinstance(inputs, str):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(inputs))
        inputs = str(path)
    r = run("hilbert-check", "--form", form, "--ell", "5", "--inputs", inputs)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("input error: ") and field in r.stderr


@pytest.mark.parametrize("command", [["local-factor"], ["certify", "--part", "1"]])
@pytest.mark.parametrize("name", sorted(MALFORMED_VECTORS))
def test_malformed_vector_file_exits_2(name, command, tmp_path):
    case, level, g, field = MALFORMED_VECTORS[name]
    phi = {"level": 0, "cells": [{"c": ["0", "0"], "coef": "1"}]}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"case": case, "level": level, "terms": [{"phi": phi, "g": g, "coef": "1"}]}))
    r = run("--prime", "3", command[0], "--vector", str(path), *command[1:])
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "input error" in r.stderr and field in r.stderr


def leaf_paths(node, path=()):
    """The key path of every leaf (string, number, bool or null) of a JSON
    document, depth first."""
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaf_paths(v, path + (k,))
    else:
        yield path


FUZZ_DOCS = {name: json.loads((INPUTS / name).read_text()) for name in ("vec_K.json", "vec_Kp.json")}
FUZZ_LEAVES = [(name, path) for name, doc in sorted(FUZZ_DOCS.items()) for path in leaf_paths(doc)]
DELETE = object()
FUZZ_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "2", "9", "1/3", "-1/9", "1/0", "", "x", "1e5", "0.5", "10" * 12, "1/" + "3" * 20]),
    st.sampled_from(["K", "K[p]", "inert", "split", [], {}, ["1", "0"], None, True, DELETE]),
    st.integers(-10 ** 6, 10 ** 6) | st.integers(),
    st.floats(),
    st.text(max_size=4),
)


@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    leaf=st.sampled_from(FUZZ_LEAVES),
    value=FUZZ_VALUES,
    command=st.sampled_from([["local-factor"], ["certify", "--part", "1"]]),
)
def test_a_single_leaf_mutation_exits_with_a_documented_code(leaf, value, command, tmp_path_factory):
    # one leaf of a golden vector file replaced (or deleted): the run ends in
    # a result, an input error, a precision cap or a verification failure
    name, path = leaf
    doc = json.loads(json.dumps(FUZZ_DOCS[name]))
    node = doc
    for k in path[:-1]:
        node = node[k]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    vec = tmp_path_factory.mktemp("fuzz") / "vec.json"
    vec.write_text(json.dumps(doc))
    r = run("--prime", "3", command[0], "--vector", str(vec), *command[1:])
    assert r.returncode in (0, 2, 3, 4), (path, value, r.stderr)
    assert "Traceback" not in r.stderr
