"""Catalog invariants: the machine/network registry stays coherent."""

import pytest

from repro.machines.catalog import (
    ALLTOALL_FIGURE_NETWORKS,
    BLAS_FIGURE_MACHINES,
    CPUS,
    MACHINES,
    NETWORKS,
    PINGPONG_FIGURE_NETWORKS,
)

from ..benchkernels._simulated_oracle import simulated_pingpong


def test_every_machine_has_default_network():
    for spec in MACHINES.values():
        assert spec.network("default") is not None
        assert spec.procs_per_node >= 1
        assert spec.max_procs >= 1
        assert spec.ram_per_node > 0


def test_cpu_names_unique_and_bandwidths_decreasing():
    names = [c.name for c in CPUS.values()]
    assert len(set(names)) == len(names)
    for cpu in CPUS.values():
        bw = cpu.bandwidths
        assert all(a >= b for a, b in zip(bw, bw[1:])), cpu.name


def test_figure_lineups_reference_existing_entries():
    for panel in BLAS_FIGURE_MACHINES.values():
        for key in panel:
            assert key in MACHINES
    for name in PINGPONG_FIGURE_NETWORKS + ALLTOALL_FIGURE_NETWORKS:
        assert name in NETWORKS


def test_paper_machine_count():
    # Section 2 compares ten systems.
    assert len(MACHINES) == 10
    # Figure 7 shows twelve network configurations.
    assert len(PINGPONG_FIGURE_NETWORKS) == 12


def test_roadrunner_uses_pii_cpu():
    assert MACHINES["RoadRunner"].cpu is CPUS["pentium-ii-450"]
    assert MACHINES["Muses"].cpu is CPUS["pentium-ii-450"]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_simulated_pingpong_consistent_with_every_model(name):
    """simmpi execution agrees with the analytic Hockney model on every
    catalogued network, at eager and rendezvous sizes.  On the TCP
    networks the simulated wall additionally carries the protocol
    stack's per-byte CPU cost on each side of the transfer."""
    net = NETWORKS[name]
    for nbytes in (512, 262144):
        measured = simulated_pingpong(name, nbytes, reps=4)
        expect = net.send_time(nbytes) + 2.0 * net.cpu_time_for_bytes(nbytes)
        assert measured == pytest.approx(expect, rel=0.25), (name, nbytes)


def test_clock_rates_match_section2():
    assert CPUS["pentium-ii-450"].clock_mhz == 450
    assert CPUS["power2-66"].clock_mhz == 66
    assert CPUS["p2sc-160"].clock_mhz == 160
    assert CPUS["ppc604e-332"].clock_mhz == 332
    assert CPUS["r10000-195"].clock_mhz == 195
    assert CPUS["r10000-250"].clock_mhz == 250
    assert CPUS["ultrasparc-300"].clock_mhz == 300
    assert CPUS["alpha21164-450"].clock_mhz == 450
