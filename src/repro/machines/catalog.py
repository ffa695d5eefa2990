"""The paper's machines (Section 2) as CPU + network model instances.

CPU parameters come from the published hardware specs (clock, cache
sizes, peak rates) with sustained bandwidths and application rates
calibrated to reproduce the *shapes* of Figures 1-6 and the ordering of
Table 1; network parameters are calibrated against Figure 7's measured
latency/bandwidth curves and the hardware peaks quoted in Section 2.
The calibration story for every number is recorded in EXPERIMENTS.md.

Naming follows the paper: machines are keyed by the label used in the
figures ("Muses", "T3E", "SP2-Silver", ...), and the twelve network
configurations by their Figure 7 legend entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cpu import CPUModel
from .network import NetworkModel

__all__ = [
    "MachineSpec",
    "CPUS",
    "NETWORKS",
    "MACHINES",
    "PRICES_1999",
    "BLAS_FIGURE_MACHINES",
    "PINGPONG_FIGURE_NETWORKS",
    "ALLTOALL_FIGURE_NETWORKS",
]

KB = 1024.0
MB = 1024.0 * 1024.0

# ---------------------------------------------------------------------------
# Processors
# ---------------------------------------------------------------------------

CPUS: dict[str, CPUModel] = {
    # Intel Pentium II 450 MHz, 16 KB L1, 512 KB half-speed L2, 100 MHz
    # SDRAM ("its fast 100MHz SDRAM memory subsystem").  Used by both
    # Muses and RoadRunner.
    "pentium-ii-450": CPUModel(
        name="Pentium II, 450MHz",
        clock_mhz=450,
        peak_mflops=450,
        cache_sizes=(16 * KB, 512 * KB),
        bandwidths=(3.6e9, 1.1e9, 0.42e9),
        overhead_us=0.15,
        dgemm_efficiency=0.75,
        dgemm_n_half=6.0,
        flop_caps={"ddot": 450, "daxpy": 300, "dgemv": 380},
        app_mflops=105.0,
        solve_mflops=140.0,
    ),
    # IBM Power2 66 MHz "Thin2": 128 KB L1, no L2, 128-bit memory bus.
    "power2-66": CPUModel(
        name="Power2, 66MHz (Thin2)",
        clock_mhz=66,
        peak_mflops=264,
        cache_sizes=(128 * KB,),
        bandwidths=(1.9e9, 1.4e9),
        overhead_us=0.45,
        dgemm_efficiency=0.85,
        flop_caps={"ddot": 264, "daxpy": 200, "dgemv": 264},
        app_mflops=59.0,
        solve_mflops=36.5,
    ),
    # IBM P2SC 160 MHz "Thin4" (Maui): Power2 core, higher clock.
    "p2sc-160": CPUModel(
        name="P2SC, 160MHz",
        clock_mhz=160,
        peak_mflops=640,
        cache_sizes=(128 * KB,),
        bandwidths=(2.6e9, 1.6e9),
        overhead_us=0.3,
        dgemm_efficiency=0.85,
        flop_caps={"ddot": 640, "daxpy": 420, "dgemv": 600},
        app_mflops=120.0,
        solve_mflops=89.0,
    ),
    # PowerPC 604e 332 MHz "Silver": 32 KB L1, slow 256 KB L2 ("the
    # performance drop for going to L2 ... for the Silver node SP").
    "ppc604e-332": CPUModel(
        name="PowerPC 604e, 332MHz (Silver)",
        clock_mhz=332,
        peak_mflops=664,
        cache_sizes=(32 * KB, 256 * KB),
        bandwidths=(2.7e9, 0.9e9, 0.33e9),
        overhead_us=0.25,
        dgemm_efficiency=0.70,
        flop_caps={"ddot": 400, "daxpy": 280, "dgemv": 420},
        app_mflops=65.0,
        solve_mflops=81.0,
    ),
    # SGI R10000 195 MHz (Onyx2): 32 KB L1, 4 MB L2.
    "r10000-195": CPUModel(
        name="R10000, 195MHz (Onyx2)",
        clock_mhz=195,
        peak_mflops=390,
        cache_sizes=(32 * KB, 4 * MB),
        bandwidths=(1.6e9, 1.1e9, 0.30e9),
        overhead_us=0.3,
        dgemm_efficiency=0.85,
        flop_caps={"ddot": 390, "daxpy": 260, "dgemv": 360},
        app_mflops=82.0,
        solve_mflops=64.0,
    ),
    # SGI R10000 250 MHz (NCSA Origin 2000).
    "r10000-250": CPUModel(
        name="R10000, 250MHz (Origin 2000)",
        clock_mhz=250,
        peak_mflops=500,
        cache_sizes=(32 * KB, 4 * MB),
        bandwidths=(2.0e9, 1.4e9, 0.35e9),
        overhead_us=0.25,
        dgemm_efficiency=0.85,
        flop_caps={"ddot": 500, "daxpy": 330, "dgemv": 460},
        app_mflops=98.0,
        solve_mflops=100.0,
    ),
    # Fujitsu AP3000 node: UltraSPARC 300 MHz, Sun LIBPERF BLAS.
    "ultrasparc-300": CPUModel(
        name="UltraSPARC, 300MHz (AP3000)",
        clock_mhz=300,
        peak_mflops=600,
        cache_sizes=(16 * KB, 1 * MB),
        bandwidths=(2.4e9, 0.8e9, 0.25e9),
        overhead_us=0.3,
        dgemm_efficiency=0.60,
        flop_caps={"ddot": 380, "daxpy": 260, "dgemv": 380},
        app_mflops=70.0,
        solve_mflops=60.0,
    ),
    # Cray T3E-900 node: Alpha 21164A 450 MHz, 8 KB L1 / 96 KB L2,
    # STREAMS hardware prefetch enabled (as in the paper's runs).
    "alpha21164-450": CPUModel(
        name="Alpha 21164A, 450MHz (T3E)",
        clock_mhz=450,
        peak_mflops=900,
        cache_sizes=(8 * KB, 96 * KB),
        bandwidths=(3.6e9, 2.2e9, 0.82e9),
        overhead_us=0.2,
        dgemm_efficiency=0.85,
        flop_caps={"ddot": 450, "daxpy": 300, "dgemv": 500},
        app_mflops=104.0,
        solve_mflops=115.0,
    ),
    # Hitachi SR8000 CPU: pseudo-vector PA-RISC derivative.
    "sr8000": CPUModel(
        name="SR8000 CPU (pseudo-vector)",
        clock_mhz=250,
        peak_mflops=1000,
        cache_sizes=(128 * KB,),
        bandwidths=(4.0e9, 3.2e9),
        overhead_us=0.5,
        dgemm_efficiency=0.9,
        app_mflops=300.0,
        solve_mflops=400.0,
    ),
}

# ---------------------------------------------------------------------------
# Networks (the twelve Figure 7 configurations)
# ---------------------------------------------------------------------------

NETWORKS: dict[str, NetworkModel] = {
    "AP3000": NetworkModel(
        "AP3000 (AP-Net)", latency_us=35, bandwidth=65e6, busy_wait_fraction=1.0
    ),
    "SP2-Thin2": NetworkModel(
        "SP2-Thin2 (TB2 adapter)", latency_us=50, bandwidth=33e6, busy_wait_fraction=1.0
    ),
    "SP2-Silver, internode": NetworkModel(
        "SP2-Silver internode (MX adapter)", latency_us=29, bandwidth=90e6, busy_wait_fraction=1.0
    ),
    "SP2-Silver, intranode": NetworkModel(
        "SP2-Silver intranode (shared memory)", latency_us=22, bandwidth=130e6, busy_wait_fraction=1.0
    ),
    "Muses, MPICH": NetworkModel(
        "Muses MPICH/TCP (Fast Ethernet, point-to-point)",
        latency_us=124,
        bandwidth=10.8e6,
        eager_threshold=16384,
        rendezvous_extra_us=120.0,
        full_duplex=False,
        cpu_overhead_per_byte=1.0 / 60e6,
        busy_wait_fraction=0.35,
    ),
    "Muses, LAM": NetworkModel(
        "Muses LAM/TCP tuned (Fast Ethernet, point-to-point)",
        latency_us=97,
        bandwidth=11.2e6,
        eager_threshold=16384,
        rendezvous_extra_us=100.0,
        full_duplex=False,
        cpu_overhead_per_byte=1.0 / 60e6,
        busy_wait_fraction=0.35,
    ),
    "Onyx2": NetworkModel(
        "Onyx2 (shared memory)", latency_us=12, bandwidth=160e6, busy_wait_fraction=1.0
    ),
    "RoadRunner, eth-intranode": NetworkModel(
        "RoadRunner Fast Ethernet intranode (TCP loopback)",
        latency_us=150,
        bandwidth=22e6,
        full_duplex=False,
        cpu_overhead_per_byte=1.0 / 45e6,
        busy_wait_fraction=0.45,
    ),
    "RoadRunner, eth-internode": NetworkModel(
        "RoadRunner Fast Ethernet internode (MPICH/TCP)",
        latency_us=280,
        bandwidth=9.5e6,
        eager_threshold=16384,
        rendezvous_extra_us=200.0,
        full_duplex=False,
        aggregate_capacity=15e6,  # oversubscribed control network
        cpu_overhead_per_byte=1.0 / 45e6,
        busy_wait_fraction=0.45,
    ),
    "RoadRunner, myr-intranode": NetworkModel(
        "RoadRunner Myrinet intranode (GM loopback)",
        latency_us=42,
        bandwidth=28e6,
        busy_wait_fraction=1.0,
    ),
    "RoadRunner, myr-internode": NetworkModel(
        "RoadRunner Myrinet internode (MPICH-GM)",
        latency_us=30,
        bandwidth=33e6,
        # 32-bit Myrinet fabric: ample for small clusters, saturating
        # towards 64-128 processors (Table 2's myrinet tail).
        aggregate_capacity=1.2e9,
        busy_wait_fraction=1.0,
    ),
    "T3E": NetworkModel(
        "T3E-900 3-D torus", latency_us=14, bandwidth=300e6, busy_wait_fraction=1.0
    ),
    "NCSA": NetworkModel(
        "Origin 2000 ccNUMA (NCSA)", latency_us=15, bandwidth=140e6, busy_wait_fraction=1.0
    ),
    "HITACHI": NetworkModel(
        "SR8000 3-D crossbar", latency_us=12, bandwidth=500e6, busy_wait_fraction=1.0
    ),
}


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """One of the paper's ten systems: node CPU plus its network(s)."""

    name: str
    cpu: CPUModel
    networks: dict[str, NetworkModel] = field(default_factory=dict)
    procs_per_node: int = 1
    max_procs: int = 1
    ram_per_node: float = 256e6  # bytes (Section 2 hardware specs)
    notes: str = ""

    @property
    def ram_per_proc(self) -> float:
        return self.ram_per_node / self.procs_per_node

    def network(self, kind: str = "default") -> NetworkModel:
        try:
            return self.networks[kind]
        except KeyError:
            raise KeyError(
                f"{self.name} has networks {sorted(self.networks)}, not {kind!r}"
            ) from None


MACHINES: dict[str, MachineSpec] = {
    "RoadRunner": MachineSpec(
        name="RoadRunner (AltaCluster, 128 x PII-450)",
        ram_per_node=512e6,
        cpu=CPUS["pentium-ii-450"],
        networks={
            "default": NETWORKS["RoadRunner, myr-internode"],
            "ethernet": NETWORKS["RoadRunner, eth-internode"],
            "ethernet-intranode": NETWORKS["RoadRunner, eth-intranode"],
            "myrinet": NETWORKS["RoadRunner, myr-internode"],
            "myrinet-intranode": NETWORKS["RoadRunner, myr-intranode"],
        },
        procs_per_node=2,
        max_procs=128,
        notes="NSF Alliance supercluster at AHPCC; Red Hat, 2.2.10 kernel",
    ),
    "Muses": MachineSpec(
        name="Muses (4 x PII-450, < $10k)",
        ram_per_node=384e6,
        cpu=CPUS["pentium-ii-450"],
        networks={
            "default": NETWORKS["Muses, LAM"],
            "mpich": NETWORKS["Muses, MPICH"],
            "lam": NETWORKS["Muses, LAM"],
        },
        procs_per_node=1,
        max_procs=4,
        notes="quad Fast Ethernet NICs, point-to-point topology",
    ),
    "SP2-Silver": MachineSpec(
        name="IBM SP, Silver (F50) nodes",
        ram_per_node=1024e6,
        cpu=CPUS["ppc604e-332"],
        networks={
            "default": NETWORKS["SP2-Silver, internode"],
            "internode": NETWORKS["SP2-Silver, internode"],
            "intranode": NETWORKS["SP2-Silver, intranode"],
        },
        procs_per_node=4,
        max_procs=96,
        notes="Brown TCASCV; SP switch, MX adapter",
    ),
    "SP2-Thin2": MachineSpec(
        name="IBM SP, Thin2 (39H) nodes",
        ram_per_node=128e6,
        cpu=CPUS["power2-66"],
        networks={"default": NETWORKS["SP2-Thin2"]},
        procs_per_node=1,
        max_procs=24,
        notes="Brown CFM; HPS with TB2 adapter",
    ),
    "P2SC": MachineSpec(
        name="IBM SP, Thin4 (397) nodes",
        ram_per_node=256e6,
        cpu=CPUS["p2sc-160"],
        networks={"default": NETWORKS["SP2-Silver, internode"]},
        procs_per_node=1,
        max_procs=211,
        notes="MHPCC; SP switch",
    ),
    "Onyx2": MachineSpec(
        name="SGI Onyx2 (8 x R10000-195)",
        ram_per_node=2048e6,
        cpu=CPUS["r10000-195"],
        networks={"default": NETWORKS["Onyx2"]},
        procs_per_node=8,
        max_procs=8,
        notes="Brown CFM; shared memory",
    ),
    "NCSA": MachineSpec(
        name="SGI Origin 2000 (NCSA)",
        ram_per_node=512e6,
        cpu=CPUS["r10000-250"],
        networks={"default": NETWORKS["NCSA"]},
        procs_per_node=2,
        max_procs=128,
        notes="195 and 250 MHz processors; ccNUMA",
    ),
    "AP3000": MachineSpec(
        name="Fujitsu AP3000 (28 x UltraSPARC-300)",
        ram_per_node=256e6,
        cpu=CPUS["ultrasparc-300"],
        networks={"default": NETWORKS["AP3000"]},
        procs_per_node=1,
        max_procs=28,
        notes="Imperial College; AP-Net",
    ),
    "T3E": MachineSpec(
        name="SGI/Cray T3E-900 (NAVO)",
        ram_per_node=256e6,
        cpu=CPUS["alpha21164-450"],
        networks={"default": NETWORKS["T3E"]},
        procs_per_node=1,
        max_procs=816,
        notes="3-D torus; STREAMS prefetch enabled",
    ),
    "HITACHI": MachineSpec(
        name="Hitachi SR8000 (U. Tokyo)",
        ram_per_node=8192e6,
        cpu=CPUS["sr8000"],
        networks={"default": NETWORKS["HITACHI"]},
        procs_per_node=8,
        max_procs=1024,
        notes="pseudo-vector CPUs; 3-D crossbar",
    ),
}

# Estimated 1999 cost per processor, US$, keyed by machine (and fabric
# where it changes the price); the estimates are documented in
# repro.apps.cost_of_ownership.
PRICES_1999 = {
    "Muses": 2_500,  # $10k / 4 nodes, per the paper
    "RoadRunner-eth": 2_800,  # commodity node + ethernet share
    "RoadRunner-myr": 4_600,  # + Myrinet NIC and switch share
    "SP2-Silver": 40_000,
    "SP2-Thin2": 35_000,
    "P2SC": 45_000,
    "Onyx2": 50_000,
    "NCSA": 45_000,
    "AP3000": 35_000,
    "T3E": 60_000,
}

# Figure line-ups (which systems appear in which plot).
BLAS_FIGURE_MACHINES = {
    "left": ["SP2-Thin2", "SP2-Silver", "Muses", "AP3000", "Onyx2"],
    "right": ["T3E", "P2SC", "Muses"],
}

PINGPONG_FIGURE_NETWORKS = [
    "AP3000",
    "SP2-Thin2",
    "SP2-Silver, internode",
    "SP2-Silver, intranode",
    "Muses, MPICH",
    "Muses, LAM",
    "Onyx2",
    "RoadRunner, eth-intranode",
    "RoadRunner, eth-internode",
    "RoadRunner, myr-intranode",
    "RoadRunner, myr-internode",
    "T3E",
]

ALLTOALL_FIGURE_NETWORKS = [
    "AP3000",
    "T3E",
    "RoadRunner, eth-internode",
    "RoadRunner, myr-internode",
    "SP2-Silver, internode",
    "SP2-Silver, intranode",
    "SP2-Thin2",
    "NCSA",
    "Muses, LAM",
]
