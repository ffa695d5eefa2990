"""repro — spectral/hp element DNS on simulated PC/Linux clusters.

A from-scratch Python reproduction of Karamanos, Evangelinos, Boes,
Kirby & Karniadakis, "Direct Numerical Simulation of Turbulence with a
PC/Linux Cluster: Fact or Fiction?" (SC '99).

Subpackages
-----------
- :mod:`repro.linalg` — counted BLAS kernels, banded Cholesky, PCG.
- :mod:`repro.spectral` — Jacobi polynomials, quadrature, modal expansions.
- :mod:`repro.mesh` — unstructured 2-D meshes, generators, mappings.
- :mod:`repro.assembly` — dof maps, elemental operators, global assembly.
- :mod:`repro.solvers` — global Helmholtz/Poisson solvers.
- :mod:`repro.ns` — Navier–Stokes: serial 2-D, Fourier-parallel, ALE.
- :mod:`repro.fourier` — FFT helpers and mode-to-processor mapping.
- :mod:`repro.parallel` — virtual-time MPI (simmpi), collectives, fault injection.
- :mod:`repro.machines` — CPU/network performance models; the paper's machines.
- :mod:`repro.benchkernels` — kernel-level drivers (Figures 1-8).
- :mod:`repro.apps` — application-level drivers (Tables 1-3, Figures 12-16).
- :mod:`repro.reporting` — table/series emitters matching the paper's layout.
"""

__version__ = "1.0.0"
