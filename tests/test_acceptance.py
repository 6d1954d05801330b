"""The acceptance battery, one test per criterion, printing a pass line
with the measured runtime.  Every comparison inside is exact."""

from padicasai import acceptance as acc


def _report(res, budget=None):
    line = f"[criterion] {res['name']}: {'PASS' if res['ok'] else 'FAIL'} ({res['seconds']}s)"
    print(line)
    assert res["ok"], res
    if budget is not None:
        assert res["seconds"] < budget, f"runtime {res['seconds']}s over budget {budget}s"


def test_criterion_1_unramified_calibration():
    res = acc.criterion_1_unramified_calibration()
    # < 10 s per prime, two primes
    _report(res, budget=20)


def test_criterion_2_psi_identity():
    _report(acc.criterion_2_psi_identity())


def test_criterion_3_decomposition_covers():
    _report(acc.criterion_3_decomposition_covers())


def test_criterion_4_phi_c_weights():
    _report(acc.criterion_4_phi_c_weights())


def test_criterion_5_delta1():
    res = acc.criterion_5_delta1()
    # < 60 s per prime, three primes
    _report(res, budget=180)


def test_criterion_6_certificates():
    _report(acc.criterion_6_certificates())


def test_criterion_7_gauss_oracle():
    _report(acc.criterion_7_gauss_oracle())


def test_criterion_8_chain_identity():
    _report(acc.criterion_8_chain_identity())


def test_criterion_9_hilbert():
    _report(acc.criterion_9_hilbert(), budget=30)


def test_criterion_10_epsilon_report():
    _report(acc.criterion_10_epsilon_report())
