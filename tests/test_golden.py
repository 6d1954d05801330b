"""Byte-level golden outputs of the command line.

Each case runs one CLI command in-process and compares its stdout with
tests/golden/cli/<name>.txt.  A changed golden file is an output change to
be reviewed, never a way to make this test pass.  To rewrite the files
after a reviewed change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from padicasai.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

SATAKE_ELEM = json.dumps(
    {"group": "inert_F", "terms": [{"T": 1, "S": -1, "coef": "2"}, {"T": 0, "S": 1, "coef": "-1/3"}]}
)

CASES = {
    "zeta_inert_p3": ["--prime", "3", "zeta", "--phi", "builtin:unramified", "--g", "identity"],
    "zeta_inert_p5": ["--prime", "5", "zeta", "--phi", "builtin:unramified", "--g", "t:1,0"],
    "zeta_normalize_phi_p2": ["--prime", "3", "zeta", "--phi", "builtin:phi_p2", "--g", "n_b:1", "--normalize"],
    "zeta_split": ["--prime", "3", "zeta", "--phi", "builtin:unramified", "--case", "split", "--g", "identity;t:1,0"],
    "zeta_satake_normalize": ["--prime", "3", "--satake", "2,3", "zeta", "--phi", "builtin:unramified", "--normalize"],
    "zeta_split_satake_normalize": [
        "--prime", "3", "--satake", "2,3,5,7", "zeta", "--case", "split",
        "--phi", "builtin:phi_p2", "--g", "identity;n:1/3", "--normalize",
    ],
    **{
        f"euler_poly_{kind}": ["--prime", "3", "euler-poly", "--kind", kind]
        for kind in ("asai_inert", "asai_star_inert", "asai_star_split", "standard_F", "rs_split")
    },
    "satake": ["--prime", "3", "satake", "--elem", SATAKE_ELEM],
    **{
        f"delta1_{case}_p{p}": ["--prime", str(p), "delta1-verify", "--case", case]
        for case in ("inert", "split")
        for p in (3, 5)
    },
    "gstar_inert": ["--prime", "3", "gstar-factor", "--case", "inert"],
    "gstar_split": ["--prime", "3", "gstar-factor", "--case", "split"],
    "local_factor": ["--prime", "3", "local-factor", "--vector", "{inputs}/vec_K.json"],
    "certify_part1": ["--prime", "3", "certify", "--vector", "{inputs}/vec_K.json", "--part", "1"],
    "certify_part2": ["--prime", "3", "certify", "--vector", "{inputs}/vec_Kp_vanishing.json", "--part", "2"],
    "certify_part3": ["--prime", "3", "certify", "--vector", "{inputs}/vec_Kp.json", "--part", "3"],
    # a T-degree-1 target: the chain takes a T-step at the largest prime the goldens use
    "certify_part3_p31": ["--prime", "31", "certify", "--vector", "{inputs}/vec_Kp_p31.json", "--part", "3"],
    "hilbert_w2": ["hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5"],
    "hilbert_w2_quad": ["hilbert-check", "--form", "builtin:synthetic_w2_quad", "--ell", "5"],
    "hilbert_w2_s0_11": [
        "hilbert-check", "--form", "builtin:synthetic_w2", "--ell", "5",
        "--inputs", "{inputs}/inputs_split11.json", "--s0", "11",
    ],
    "hilbert_w2_quad_s0_11": [
        "hilbert-check", "--form", "builtin:synthetic_w2_quad", "--ell", "5",
        "--inputs", "{inputs}/inputs_inert11.json", "--s0", "11",
    ],
    # irrational Satake values at 13 and a constant period at 7
    "hilbert_w2_quad_s0_13": [
        "hilbert-check", "--form", "builtin:synthetic_w2_quad", "--ell", "3",
        "--inputs", "{inputs}/inputs_split13.json", "--s0", "13",
    ],
    # 11 splits in Q(sqrt 5): an irrational value takes the Hensel-lift valuation
    "hilbert_w2_quad_ell11": [
        "hilbert-check", "--form", "builtin:synthetic_w2_quad", "--ell", "11",
        "--inputs", "{inputs}/inputs_split13.json",
    ],
    "verify_suite": ["verify-suite", "--only", "1,2,4,7,9,10"],
    "verify_suite_cartan_p3": ["verify-suite", "--only", "3"],
}


def resolve(argv: list[str]) -> list[str]:
    return [a.replace("{inputs}", str(INPUTS)) for a in argv]


def run_cli(argv: list[str]) -> tuple[int, str]:
    argv = resolve(argv)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    code, stdout = run_cli(CASES[name])
    assert code == 0
    assert stdout == (GOLDEN / "cli" / f"{name}.txt").read_text()


@pytest.mark.parametrize(
    "name",
    [
        "zeta_inert_p5", "zeta_split", "zeta_normalize_phi_p2", "zeta_split_satake_normalize",
        "delta1_inert_p3", "delta1_inert_p5", "delta1_split_p3", "local_factor", "certify_part1", "certify_part2",
        "certify_part3", "certify_part3_p31", "gstar_inert", "gstar_split",
    ],
)
def test_cli_golden_under_optimize(name):
    # python -O strips bare asserts; every check must survive it unchanged, and
    # each certificate route (the division through (p-1)(1-S), the chain, G*
    # inert and split) builds its certificate under it, as does the inner
    # integral's division by prod (x_i - y_i), inert and split, with a finite
    # shell at nonzero phase valuation (phi_p2), and the period's double-coset
    # classes with their second-member check (local_factor, certify part 1)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run(
        [sys.executable, "-O", "-m", "padicasai.cli", *resolve(CASES[name])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "cli" / f"{name}.txt").read_text()


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, stdout = run_cli(argv)
        if code:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / "cli" / f"{name}.txt").write_text(stdout)
