import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fourier.transforms import (
    fft_z,
    ifft_z,
    mode_blocks,
    nmodes_for,
    wavenumbers,
)


def test_nmodes_validation():
    assert nmodes_for(8) == 4
    with pytest.raises(ValueError):
        nmodes_for(7)
    with pytest.raises(ValueError):
        nmodes_for(0)


def test_wavenumbers_default_box():
    np.testing.assert_allclose(wavenumbers(8), [0, 1, 2, 3])
    np.testing.assert_allclose(wavenumbers(4, lz=np.pi), [0, 2])


@given(st.integers(1, 4), st.integers(0, 999))
@settings(max_examples=20, deadline=None)
def test_fft_roundtrip(pow2, seed):
    nz = 2 ** (pow2 + 1)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((3, nz))
    # Remove the Nyquist content our convention drops.
    modes = fft_z(vals)
    back = ifft_z(modes, nz)
    again = ifft_z(fft_z(back), nz)
    np.testing.assert_allclose(back, again, atol=1e-12)


def test_fft_of_pure_cosine():
    nz = 8
    z = 2 * np.pi * np.arange(nz) / nz
    vals = 3.0 * np.cos(2 * z)[None, :]
    modes = fft_z(vals)
    # cos(2z) -> mode 2 with amplitude 3/2 (two-sided convention).
    np.testing.assert_allclose(modes[0, 2], 1.5, atol=1e-12)
    modes[0, 2] = 0
    np.testing.assert_allclose(modes, 0, atol=1e-12)


def test_mode0_is_mean():
    vals = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert fft_z(vals)[0, 0] == pytest.approx(2.5)


def test_spectral_derivative_exact():
    nz = 16
    z = 2 * np.pi * np.arange(nz) / nz
    vals = np.sin(3 * z)[None, :]
    d = ifft_z(fft_z(vals) * (1j * wavenumbers(nz)), nz)
    np.testing.assert_allclose(d, 3 * np.cos(3 * z)[None, :], atol=1e-12)


def test_ifft_shape_check():
    with pytest.raises(ValueError):
        ifft_z(np.zeros((2, 3), dtype=complex), 8)


def test_mode_blocks():
    blocks = mode_blocks(8, 4)
    assert [list(b) for b in blocks] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    with pytest.raises(ValueError):
        mode_blocks(6, 0)


@given(st.integers(1, 64), st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_mode_blocks_balanced_uneven(nmodes, nprocs):
    """Uneven counts split into contiguous blocks differing by <= 1."""
    blocks = mode_blocks(nmodes, nprocs)
    assert len(blocks) == nprocs
    covered = [m for b in blocks for m in b]
    assert covered == list(range(nmodes))
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1


def test_fft_charges_split_by_direction():
    """rfft and irfft are priced separately: the inverse pays the extra
    spectrum scale and the zero-padded scratch traffic."""
    from repro.linalg.counters import OpCounter

    nz, nbatch = 16, 3
    vals = np.random.default_rng(0).standard_normal((nbatch, nz))
    with OpCounter() as ops:
        modes = fft_z(vals)
    fwd = ops.snapshot().label_charges()["rfft-z"]
    with OpCounter() as ops2:
        ifft_z(modes, nz)
    inv = ops2.snapshot().label_charges()["irfft-z"]
    # Golden-pinned formulas (per line of length nz = 16, nbatch = 3).
    assert fwd == (
        nbatch * (2.5 * nz * 4.0 + 2.0 * (nz // 2)),
        nbatch * (8.0 * nz + 16.0 * (nz // 2 + 1)),
    )
    assert inv == (
        nbatch * (2.5 * nz * 4.0 + 2.0 * (nz // 2 + 1)),
        nbatch * (32.0 * (nz // 2 + 1) + 8.0 * nz),
    )
    # The directions are genuinely distinct prices now.
    assert fwd != inv


def test_batched_fft_charges_equal_per_field_sum():
    """One batched call over a field stack charges exactly the sum of
    the per-field calls (linear in the batch count)."""
    from repro.linalg.counters import OpCounter

    nz, nf, npts = 8, 5, 7
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((nf, npts, nz))
    with OpCounter() as ops_f:
        fused = fft_z(stack)
    with OpCounter() as ops_p:
        per = np.stack([fft_z(stack[i]) for i in range(nf)])
    assert fused.tobytes() == per.tobytes()
    assert ops_f.snapshot().label_charges() == ops_p.snapshot().label_charges()
    with OpCounter() as ops_fi:
        back_f = ifft_z(fused, nz)
    with OpCounter() as ops_pi:
        back_p = np.stack([ifft_z(per[i], nz) for i in range(nf)])
    assert back_f.tobytes() == back_p.tobytes()
    assert (
        ops_fi.snapshot().label_charges() == ops_pi.snapshot().label_charges()
    )
