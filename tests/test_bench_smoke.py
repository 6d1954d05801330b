"""The benchmark's workloads build and run: the first job of every workload
at seed 0 passes its exact oracle."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["hecke_freeness", "zeta_primes", "chain_certify", "coset_labels"])
def test_first_job_passes_its_oracle(workloads, name):
    jobs = workloads.build(name, 0)
    out, ok, _ = jobs[0].run()
    assert ok, (name, jobs[0].kind)
    assert out
