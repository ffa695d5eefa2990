"""Property tests for the fused multi-field Fourier fast path.

Three contracts, randomised over field counts, layouts and rank counts:

* the fused (leading-field-axis) transpose is byte-identical in field
  data to the per-field loop while conserving total wire bytes and
  paying one Alltoall instead of F,
* the batched real FFT pair charges exactly the sum of the per-field
  charges and produces byte-identical modes/planes,
* the fused transpose program is deterministic: two runs produce
  identical results, per-rank ledgers, ``rank_traces()`` strings,
  metrics and sanitizer vector clocks, and conserve bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fourier.mapping import point_chunks, transpose_to_modes, transpose_to_points
from repro.fourier.pipeline import FusedFourierPipeline
from repro.fourier.transforms import fft_z, ifft_z, mode_blocks
from repro.linalg.counters import OpCounter
from repro.machines.network import NetworkModel
from repro.obs import MetricsRegistry, Trace, scoped
from repro.parallel.simmpi import VirtualCluster

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)


@given(
    st.integers(1, 4),
    st.integers(2, 4),
    st.integers(1, 4),
    st.integers(4, 9),
    st.integers(0, 10_000),
)
@settings(max_examples=10, deadline=None)
def test_fused_transpose_property(nf, nprocs, ppr, nmodes, seed):
    """Fused == per-field loop: data bitwise, wire bytes conserved,
    Alltoall count divided by F — at uneven mode layouts too."""
    npoints = ppr * nprocs + (seed % 2)  # sometimes uneven points as well

    def fn(comm):
        my = mode_blocks(nmodes, comm.size)[comm.rank]
        rng = np.random.default_rng(seed + comm.rank)
        stack = rng.standard_normal(
            (nf, npoints, len(my))
        ) + 1j * rng.standard_normal((nf, npoints, len(my)))

        sent0, msgs0 = comm._st.sent_bytes, comm._st.messages
        pts = transpose_to_points(comm, stack)
        back = transpose_to_modes(comm, pts, npoints)
        fused = (comm._st.sent_bytes - sent0, comm._st.messages - msgs0)

        sent0, msgs0 = comm._st.sent_bytes, comm._st.messages
        pts_l = np.stack([transpose_to_points(comm, stack[i]) for i in range(nf)])
        back_l = np.stack(
            [transpose_to_modes(comm, pts_l[i], npoints) for i in range(nf)]
        )
        loop = (comm._st.sent_bytes - sent0, comm._st.messages - msgs0)

        assert pts.tobytes() == pts_l.tobytes()
        assert back.tobytes() == back_l.tobytes()
        np.testing.assert_array_equal(back, stack)
        assert fused[0] == loop[0], "total wire bytes must be conserved"
        assert nf * fused[1] == loop[1], "fused pays 1/F of the messages"
        return pts

    registry = MetricsRegistry()
    with scoped(registry):
        res = VirtualCluster(nprocs, NET).run(fn)
    # All modes present exactly once across ranks.
    full = np.concatenate(res, axis=-2)
    assert full.shape == (nf, npoints, nmodes)
    # 2 fused calls vs 2*nf per-field calls, per rank.
    snap = registry.snapshot()
    assert snap["fourier.transpose.alltoalls"]["value"] == nprocs * (2 + 2 * nf)


@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.sampled_from([4, 8, 16]),
    st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_batched_fft_property(nf, npts, nz, seed):
    """One batched rfft/irfft over a field stack: byte-identical values
    and charge ledgers to the per-field loop, in both directions."""
    rng = np.random.default_rng(seed)
    # Band-limited planes (real mode 0, no Nyquist) so the kept
    # half-spectrum round-trips exactly.
    seed_modes = rng.standard_normal(
        (nf, npts, nz // 2)
    ) + 1j * rng.standard_normal((nf, npts, nz // 2))
    seed_modes[..., 0] = seed_modes[..., 0].real
    planes = ifft_z(seed_modes, nz)
    with OpCounter() as cf:
        modes = fft_z(planes)
    with OpCounter() as cl:
        modes_l = np.stack([fft_z(planes[i]) for i in range(nf)])
    assert modes.tobytes() == modes_l.tobytes()
    assert cf.snapshot().label_charges() == cl.snapshot().label_charges()

    with OpCounter() as cf:
        back = ifft_z(modes, nz)
    with OpCounter() as cl:
        back_l = np.stack([ifft_z(modes[i], nz) for i in range(nf)])
    assert back.tobytes() == back_l.tobytes()
    assert cf.snapshot().label_charges() == cl.snapshot().label_charges()
    np.testing.assert_allclose(back, planes, atol=1e-12)


def _transpose_fingerprint(nf, nprocs, nmodes, npoints, seed):
    """Full observable state of one run of the fused-transpose program."""
    def fn(comm):
        my = mode_blocks(nmodes, comm.size)[comm.rank]
        rng = np.random.default_rng(seed + comm.rank)
        stack = rng.standard_normal(
            (nf, npoints, len(my))
        ) + 1j * rng.standard_normal((nf, npoints, len(my)))
        pts = transpose_to_points(comm, stack)
        back = transpose_to_modes(comm, pts, npoints)
        return pts.tobytes(), back.tobytes(), comm.wall, comm.cpu_time

    registry = MetricsRegistry()
    trace = Trace()
    cluster = VirtualCluster(nprocs, NET, sanitize=True, trace=trace)
    with scoped(registry):
        results = cluster.run(fn)
    return {
        "results": results,
        "ranks": [
            (st.wall, st.cpu, st.sent_bytes, st.recv_bytes, st.messages)
            for st in cluster.ranks
        ],
        "rank_traces": cluster.rank_traces(),
        "metrics": sorted(
            (k, tuple(sorted(v.items())))
            for k, v in registry.snapshot().items()
        ),
        "vector_clocks": cluster._sanitizer.clocks(),
    }


@given(
    st.integers(1, 4),
    st.integers(2, 4),
    st.sampled_from([4, 8, 16]),
    st.integers(0, 10_000),
)
@settings(max_examples=8, deadline=None)
def test_pipeline_matches_compositional_path(nf, nprocs, nz, seed):
    """The z-major workspace pipeline is bitwise the composition of
    transpose + batched FFT in both directions, with identical charge
    ledgers, wire bytes and message counts — including on the second
    pass through its persistent send buffers."""
    npoints = 3 * nprocs + (seed % 2)

    def fn(comm):
        pipe = FusedFourierPipeline()
        my = mode_blocks(nz // 2, comm.size)[comm.rank]
        mine = point_chunks(npoints, comm.size)[comm.rank]
        rng = np.random.default_rng(seed + comm.rank)
        for _ in range(2):  # round 2 reuses the workspaces
            fields = rng.standard_normal(
                (nf, len(my), npoints)
            ) + 1j * rng.standard_normal((nf, len(my), npoints))

            sent0, msgs0 = comm._st.sent_bytes, comm._st.messages
            with OpCounter() as cp:
                phys = pipe.to_physical(comm, list(fields), nz)
                back = pipe.to_modal(comm, phys, npoints, nz)
            wire_p = (comm._st.sent_bytes - sent0, comm._st.messages - msgs0)

            sent0, msgs0 = comm._st.sent_bytes, comm._st.messages
            with OpCounter() as co:
                pts = transpose_to_points(comm, fields.transpose(0, 2, 1))
                ref_phys = ifft_z(pts, nz)  # (nf, my_pts, nz)
                ref_back = transpose_to_modes(comm, fft_z(ref_phys), npoints)
            wire_o = (comm._st.sent_bytes - sent0, comm._st.messages - msgs0)

            assert len(phys) == nf
            for i in range(nf):
                assert phys[i].shape == (nz, mine.stop - mine.start)
                assert (
                    phys[i].tobytes()
                    == np.ascontiguousarray(ref_phys[i].T).tobytes()
                )
            assert (
                back.tobytes()
                == np.ascontiguousarray(ref_back.transpose(0, 2, 1)).tobytes()
            )
            assert cp.snapshot().label_charges() == co.snapshot().label_charges()
            assert wire_p == wire_o, "pipeline must conserve wire traffic"
        return True

    registry = MetricsRegistry()
    with scoped(registry):
        VirtualCluster(nprocs, NET).run(fn)
    snap = registry.snapshot()
    # 2 rounds x (2 pipeline + 2 oracle) collectives per rank.
    assert snap["fourier.transpose.alltoalls"]["value"] == nprocs * 8


@given(
    st.integers(1, 4),
    st.integers(2, 4),
    st.integers(4, 9),
    st.integers(0, 10_000),
)
@settings(max_examples=6, deadline=None)
def test_fused_transpose_engine_parity(nf, nprocs, nmodes, seed):
    """The fused path is deterministic and conservative: two runs agree
    on every observable, including traces and sanitizer vector clocks,
    and every byte sent is received."""
    npoints = 2 * nprocs + 1
    first = _transpose_fingerprint(nf, nprocs, nmodes, npoints, seed)
    second = _transpose_fingerprint(nf, nprocs, nmodes, npoints, seed)
    assert first == second
    sent = sum(r[2] for r in first["ranks"])
    assert sent > 0 and sent == sum(r[3] for r in first["ranks"])
