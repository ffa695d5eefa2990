import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.catalog import CPUS
from repro.machines.cpu import CPUModel, working_set

PII = CPUS["pentium-ii-450"]
T3E = CPUS["alpha21164-450"]


def test_model_validation():
    with pytest.raises(ValueError):
        CPUModel("x", 100, 100, (1024,), (1e9,))  # missing memory bandwidth
    with pytest.raises(ValueError):
        CPUModel("x", 100, 100, (2048, 1024), (1e9, 1e9, 1e9))  # not increasing
    with pytest.raises(ValueError):
        CPUModel("x", 100, -1, (1024,), (1e9, 1e8))


def test_bandwidth_monotone_nonincreasing():
    ws = np.logspace(2, 8, 60)
    b = [PII.bandwidth_at(w) for w in ws]
    assert all(b1 >= b2 - 1e-6 for b1, b2 in zip(b, b[1:]))
    assert b[0] == pytest.approx(PII.bandwidths[0], rel=0.05)
    assert b[-1] == pytest.approx(PII.bandwidths[-1], rel=0.05)


@given(st.sampled_from(list(CPUS)), st.sampled_from(["dcopy", "daxpy", "ddot"]))
@settings(max_examples=30, deadline=None)
def test_rates_positive_and_bounded(key, routine):
    cpu = CPUS[key]
    for n in (16, 1024, 65536):
        r = cpu.blas_rate(routine, n)
        assert r > 0
        if routine != "dcopy":
            assert r <= cpu.peak_mflops * 1.01


def test_blas_time_validation():
    with pytest.raises(ValueError):
        PII.blas_time("zgemm", 10)
    with pytest.raises(ValueError):
        PII.blas_time("ddot", 0)


def test_cache_cliffs_visible():
    # In-L1 rate must exceed out-of-cache rate substantially.
    in_l1 = PII.blas_rate("daxpy", 512)  # 8 KB working set
    in_mem = PII.blas_rate("daxpy", 1 << 20)  # 16 MB
    assert in_l1 > 3 * in_mem


def test_dgemm_approaches_plateau():
    r_small = PII.blas_rate("dgemm", 4)
    r_big = PII.blas_rate("dgemm", 400)
    assert r_big > 2 * r_small
    assert r_big <= PII.dgemm_efficiency * PII.peak_mflops * 1.01


def test_overhead_dominates_tiny_calls():
    # Figure 6: small-n dgemm far below the large-n plateau.
    assert PII.blas_rate("dgemm", 2) < 0.25 * PII.blas_rate("dgemm", 200)


# --- The paper's Figure 1-6 qualitative claims --------------------------------


def test_claim_pii_l1_among_best():
    # "the PC performance for data that fit in the first level of cache
    # is among the best of the architectures examined"
    others = ["power2-66", "ppc604e-332", "r10000-195", "ultrasparc-300"]
    pii = CPUS["pentium-ii-450"].blas_rate("dcopy", 500)  # 8 KB, in L1
    for key in others:
        assert pii >= 0.95 * CPUS[key].blas_rate("dcopy", 500)


def test_claim_pii_ddot_unmatched_in_cache():
    # "the ddot performance is actually unmatched" (in-cache)
    pii = CPUS["pentium-ii-450"].blas_rate("ddot", 400)  # 6.4 KB, inside L1
    for key in ["power2-66", "ppc604e-332", "r10000-195", "ultrasparc-300"]:
        assert pii >= 0.99 * CPUS[key].blas_rate("ddot", 400)


def test_claim_pii_memory_bandwidth_competitive():
    # Out-of-cache the PII beats the Silver node and Onyx2 thanks to the
    # 100 MHz SDRAM subsystem.
    n = 1 << 20
    pii = CPUS["pentium-ii-450"].blas_rate("daxpy", n)
    assert pii > CPUS["ppc604e-332"].blas_rate("daxpy", n)
    assert pii > CPUS["r10000-195"].blas_rate("daxpy", n)


def test_claim_t3e_p2sc_superior():
    # "the T3E and the SP2-P2SC nodes being superior to all the other
    # architectures tested" (large-size dgemm / overall).
    for key in ["pentium-ii-450", "ppc604e-332", "r10000-195", "ultrasparc-300", "power2-66"]:
        assert T3E.blas_rate("dgemm", 300) > CPUS[key].blas_rate("dgemm", 300)
        assert CPUS["p2sc-160"].blas_rate("dgemm", 300) > CPUS[key].blas_rate(
            "dgemm", 300
        ) or key == "ppc604e-332"


def test_claim_pii_dgemm_peak_lowest():
    # "the PC peak ... is 450 MFlop/s, while most of the other machines
    # have higher peaks ... not surprising that the PC curve is lower".
    pii = CPUS["pentium-ii-450"].blas_rate("dgemm", 400)
    assert pii < T3E.blas_rate("dgemm", 400)
    assert pii < CPUS["p2sc-160"].blas_rate("dgemm", 400)


# --- Table 1 application rates --------------------------------------------------


def test_table1_ordering_from_app_rates():
    # Serial bluff-body time ordering: P2SC < PII ~ T3E < Onyx2 < AP3000
    # < Silver < Thin2 (Table 1).
    r = {k: CPUS[k].app_mflops for k in CPUS}
    assert r["p2sc-160"] > r["pentium-ii-450"]
    assert abs(r["alpha21164-450"] - r["pentium-ii-450"]) / r["pentium-ii-450"] < 0.05
    assert r["pentium-ii-450"] > r["r10000-195"] > r["ultrasparc-300"]
    assert r["ultrasparc-300"] > r["ppc604e-332"] > r["power2-66"]


def dns_sustained_mflops(cpu) -> float:
    """The kernel model's estimate of the DNS stage mix, which no run
    prices with (runs use the measured ``app_mflops``).

    The serial timestep is ~60% banded solves (dgemv-like streaming
    through a 256 kB factor, past L1), ~25% vector kernels on long
    vectors, ~15% small dgemm (Section 4.1 / Figure 12): the
    work-weighted harmonic mean of the model's rates at those regimes.
    """
    r_solve = cpu.blas_rate("dgemv", max(8, int(math.sqrt(256e3 / 8.0))))
    r_vec = cpu.blas_rate("daxpy", 15000)  # paper: 15k-long vectors
    r_gemm = cpu.blas_rate("dgemm", 10)  # "most calls ... small n (10 or less)"
    weights = ((0.60, r_solve), (0.25, r_vec), (0.15, r_gemm))
    return 1.0 / sum(w / r for w, r in weights)


def test_app_rate_consistent_with_kernel_model():
    # The calibrated application rate must lie within the envelope the
    # kernel model spans (sanity: not above peak, not below a tenth of
    # the kernel mix).
    for key, cpu in CPUS.items():
        mix = dns_sustained_mflops(cpu)
        assert cpu.app_mflops <= cpu.peak_mflops
        assert cpu.app_mflops > 0.1 * mix
        assert cpu.app_mflops < 10 * mix


def test_app_time_scaling():
    t1 = PII.app_time(1e9)
    t2 = PII.app_time(2e9)
    assert t2 == pytest.approx(2 * t1)
    with pytest.raises(ValueError):
        PII.app_time(-1.0)


def test_app_time_needs_a_measured_rate():
    with pytest.raises(ValueError, match="no measured application rate"):
        CPUModel("x", 100, 100, (1024,), (1e9, 1e8)).app_time(1.0)


def test_routine_helpers():
    assert working_set("dgemv", 10) == 8 * 120
