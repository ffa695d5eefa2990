"""Fused stage-2 pipeline: one Alltoall, z-major layout, reused buffers.

:func:`repro.fourier.mapping.transpose_to_points` with a leading field
axis already collapses NekTar-F's 15 collectives per step to 2, but a
straight "stack the fields and call the same primitives" fast path is
*slower* on the host than the per-field loop it replaces: the stacked
arrays are tens of MB, so every pass (stack build, chunk gather, padded
spectrum, ``irfft`` scratch) is a fresh multi-MB allocation (mmap +
page faults) streamed through memory with a 16-byte granule scatter on
the mode axis.  Measured on the paper-size mesh (1216 quads at order 8,
121600 quadrature points) the naive fused step lost 2-3x to the loop.

This module is the layout the fused path actually wants:

* **z-major point space** — in point space the mode/plane axis comes
  *first* ``(nz, my_points)``, so Alltoall chunks are contiguous row
  blocks (memcpy, not 16-byte scatters) and the real FFTs run along
  axis 0, which pocketfft vectorises across the contiguous point axis.
  NumPy's FFT is layout-independent in values, so results stay
  *bitwise* identical to field-by-field transpose + FFT (pinned by
  tests).
* **persistent send workspaces** — chunk buffers are allocated once
  and refilled every step, eliminating the allocation/page-fault churn
  that dominated the naive path.  Reuse is safe with exactly one
  collective of separation: simmpi hands chunks to receivers by
  reference, but a rank can only reach its *next* ``alltoall`` (and
  thus overwrite a send buffer) after every peer completed the current
  one, which happens after those peers copied the chunks out — every
  receive chunk is consumed before the receiver's next collective.
* **fused scale/pad/chunk passes** — the ``1/nz`` and ``nz`` scalings
  ride the chunk/scatter copies instead of being separate passes, and
  the padded half-spectrum is refilled in place per field.

Charges are byte-identical to ``ifft_z``/``fft_z`` on the same data
(same ``rfft-z``/``irfft-z`` labels, linear in the batch), the wire
bytes and message counts match the stacked transpose exactly, and each
collective increments the same ``fourier.transpose.alltoalls`` metric.
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics
from ..parallel.simmpi import VirtualComm
from .mapping import point_chunks
from .transforms import _charge_irfft, _charge_rfft, mode_blocks

__all__ = ["FusedFourierPipeline"]


class FusedFourierPipeline:
    """Workspace-holding fused transpose + transform pair.

    One instance per solver: the send-side chunk buffers persist across
    steps (shapes are constant for a fixed discretisation, and the
    buffers are re-created if the shape key changes).  Outputs handed
    back to the caller (physical planes, modal blocks) are fresh arrays
    the caller may keep; only the *send* workspaces are reused.
    """

    def __init__(self) -> None:
        self._send: dict = {}

    def _send_bufs(self, key, shapes) -> list[np.ndarray]:
        bufs = self._send.get(key)
        if bufs is None or [b.shape for b in bufs] != list(shapes):
            bufs = [np.empty(s, dtype=np.complex128) for s in shapes]
            self._send[key] = bufs
        return bufs

    def to_physical(
        self, comm: VirtualComm, fields, nz: int
    ) -> list[np.ndarray]:
        """F modal fields (my_modes, npoints) -> F planes (nz, my_points).

        One Alltoall for the whole field stack; per-field inverse FFTs
        keep the working set allocator-recycled.  Values are bitwise
        those of ``ifft_z(transpose_to_points(comm, stack), nz)`` in
        z-major layout.
        """
        nf = len(fields)
        nmy, npoints = fields[0].shape
        chunks = point_chunks(npoints, comm.size)
        send = self._send_bufs(
            "fwd", [(nf, nmy, sl.stop - sl.start) for sl in chunks]
        )
        for buf, sl in zip(send, chunks):
            for i, f in enumerate(fields):
                buf[i] = f[:, sl]
        recv = comm.alltoall(send)
        metrics.inc("fourier.transpose.alltoalls")
        blocks = mode_blocks(nz // 2, comm.size)
        my_pts = len(range(npoints)[chunks[comm.rank]])
        full = self._send.get(("spectrum", my_pts, nz))
        if full is None:
            full = np.empty((nz // 2 + 1, my_pts), dtype=np.complex128)
            self._send[("spectrum", my_pts, nz)] = full
        _charge_irfft(nf * my_pts, nz)
        phys = []
        for i in range(nf):
            for blk, part in zip(blocks, recv):
                np.multiply(part[i], nz, out=full[blk.start : blk.stop])
            full[nz // 2 :] = 0.0
            phys.append(np.fft.irfft(full, n=nz, axis=0))
        return phys

    def to_modal(
        self, comm: VirtualComm, planes, npoints: int, nz: int
    ) -> np.ndarray:
        """F planes (nz, my_points) -> (F, my_modes, npoints) modal.

        Inverse of :meth:`to_physical` composed with the forward FFT:
        bitwise ``transpose_to_modes(comm, fft_z(stack), npoints)`` in
        z-major layout.  The output is a fresh array (NekTar-F keeps it
        in the time-integration history).
        """
        nf = len(planes)
        my_pts = planes[0].shape[1]
        blocks = mode_blocks(nz // 2, comm.size)
        _charge_rfft(nf * my_pts, nz)
        specs = [np.fft.rfft(p, axis=0) for p in planes]
        send = self._send_bufs(
            "bwd", [(nf, len(blk), my_pts) for blk in blocks]
        )
        for buf, blk in zip(send, blocks):
            for j, s in enumerate(specs):
                np.divide(s[blk.start : blk.stop], nz, out=buf[j])
        recv = comm.alltoall(send)
        metrics.inc("fourier.transpose.alltoalls")
        chunks = point_chunks(npoints, comm.size)
        out = np.empty(
            (nf, len(blocks[comm.rank]), npoints), dtype=np.complex128
        )
        for sl, part in zip(chunks, recv):
            out[..., sl] = part
        return out
