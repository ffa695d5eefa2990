"""Fourier machinery for the homogeneous (spanwise) direction.

NekTar-F resolves one homogeneous direction with Fourier expansions:
Nz physical planes <-> Nz/2 complex modes (the Nyquist mode is dropped,
as in the production code's dealiased convention).  "Typically, one
processor is assigned to one Fourier mode which corresponds to two
spectral/hp element planes."
"""

from __future__ import annotations

import numpy as np

from ..linalg.counters import charge

__all__ = [
    "nmodes_for",
    "wavenumbers",
    "fft_z",
    "ifft_z",
    "mode_blocks",
]


def nmodes_for(nz: int) -> int:
    """Complex modes kept for nz physical planes (Nyquist dropped)."""
    if nz < 2 or nz % 2:
        raise ValueError("need an even number of planes >= 2")
    return nz // 2


#: Spanwise period L_z of the Fourier direction (the paper's 2 pi).
LZ = 2.0 * np.pi


def wavenumbers(nz: int) -> np.ndarray:
    """Spanwise wavenumbers k_m = 2 pi m / L_z of the kept modes."""
    return 2.0 * np.pi * np.arange(nmodes_for(nz)) / LZ


def _charge_rfft(nbatch: int, nz: int) -> None:
    """Real-to-complex transform work: nbatch length-nz lines.

    Split-radix real FFT (~2.5 nz log2 nz real flops per line) plus the
    1/nz normalisation of the kept half-spectrum; traffic is the real
    input line plus the complex half-spectrum output."""
    nm = nz // 2
    charge(
        nbatch * (2.5 * nz * np.log2(max(2, nz)) + 2.0 * nm),
        nbatch * (8.0 * nz + 16.0 * (nz // 2 + 1)),
        "rfft-z",
    )


def _charge_irfft(nbatch: int, nz: int) -> None:
    """Complex-to-real inverse transform work: nbatch length-nz lines.

    The nz-scale of the padded half-spectrum (2 real flops per complex
    entry), then the inverse split-radix FFT; traffic adds the
    zero-padded scratch spectrum to the modal input and real output."""
    nh = nz // 2 + 1
    charge(
        nbatch * (2.5 * nz * np.log2(max(2, nz)) + 2.0 * nh),
        nbatch * (32.0 * nh + 8.0 * nz),
        "irfft-z",
    )


def fft_z(values: np.ndarray) -> np.ndarray:
    """Forward transform along the last axis: (..., nz) real physical
    planes -> (..., nz//2) complex modes, normalised so mode 0 is the
    z-mean.  The Nyquist mode is discarded.  Leading axes are batched
    through one library call (fields x points in the fused NekTar-F
    path), charged per transformed line."""
    values = np.asarray(values, dtype=np.float64)
    nz = values.shape[-1]
    nm = nmodes_for(nz)
    _charge_rfft(values.size // nz, nz)
    return np.fft.rfft(values, axis=-1)[..., :nm] / nz


def ifft_z(modes: np.ndarray, nz: int) -> np.ndarray:
    """Inverse of :func:`fft_z` back to nz physical planes.

    The padded half-spectrum is scaled in place (no ``full * nz``
    temporary): on the fused multi-field stacks the scratch spectrum is
    tens of MB, and the extra allocate+stream per call is what made the
    batched path slower than the per-field loop it replaces."""
    modes = np.asarray(modes, dtype=np.complex128)
    nm = nmodes_for(nz)
    if modes.shape[-1] != nm:
        raise ValueError(f"expected {nm} modes for nz={nz}")
    full = np.empty(modes.shape[:-1] + (nz // 2 + 1,), dtype=np.complex128)
    np.multiply(modes, nz, out=full[..., :nm])
    full[..., nm:] = 0.0
    _charge_irfft(int(np.prod(modes.shape[:-1], dtype=np.int64)), nz)
    return np.fft.irfft(full, n=nz, axis=-1)


def mode_blocks(nmodes: int, nprocs: int) -> list[range]:
    """Contiguous mode-to-processor assignment (the paper's mapping).

    Balanced exactly like :func:`repro.fourier.mapping.point_chunks`:
    when nmodes does not divide evenly, block sizes differ by at most
    one, so awkward (nmodes, nprocs) pairs map without padding."""
    if nmodes < 0 or nprocs < 1:
        raise ValueError("need nmodes >= 0 and nprocs >= 1")
    bounds = np.linspace(0, nmodes, nprocs + 1).astype(int)
    return [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
