"""The paper's application suite.

One-deep divide-and-conquer applications (§2.4–§2.5):

- :mod:`repro.apps.sorting` — mergesort (sequential, traditional
  parallel, one-deep) and one-deep quicksort;
- :mod:`repro.apps.skyline` — the skyline problem.

Mesh-spectral applications (§4):

- :mod:`repro.apps.fftlib` / :mod:`repro.apps.fft2d` — from-scratch 1-D
  FFT and the two-dimensional FFT program (§4.4.2);
- :mod:`repro.apps.poisson` — Jacobi Poisson solver (§4.4.3);
- :mod:`repro.apps.cfd` — 2-D compressible-flow code (§4.5.1);
- :mod:`repro.apps.fdtd` — 3-D FDTD electromagnetics (§4.5.2);
- :mod:`repro.apps.spectralflow` — axisymmetric spectral incompressible
  flow (§4.5.3);
- :mod:`repro.apps.smog` — airshed photochemical smog model (§4.5.4).

Beyond the paper, pipeline/farm applications (ROADMAP archetype growth):

- :mod:`repro.apps.knapsack` — 0/1 knapsack under branch and bound;
- :mod:`repro.apps.imagepipe` — streaming image-filter pipeline with a
  farmed blur stage;
- :mod:`repro.apps.knapfarm` — a stream of knapsack instances through a
  solver farm, reusing the branch-and-bound archetype's search.
"""
