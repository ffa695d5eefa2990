"""Fourier substrate: spanwise transforms and distributed transposes."""

from .mapping import point_chunks, transpose_to_modes, transpose_to_points
from .pipeline import FusedFourierPipeline
from .transforms import fft_z, ifft_z, mode_blocks, nmodes_for, wavenumbers

__all__ = [
    "nmodes_for",
    "wavenumbers",
    "fft_z",
    "ifft_z",
    "mode_blocks",
    "point_chunks",
    "transpose_to_points",
    "transpose_to_modes",
    "FusedFourierPipeline",
]
