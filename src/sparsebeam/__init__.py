"""Sparse receive-array design maximizing beamformer output SINR.

Pick the best P of N grid sensor locations for a Capon/MaxSINR beamformer:
exhaustive enumeration (the oracle), a greedy spectral-overlap search, and a
small trained network that maps correlation lags straight to configurations,
plus snapshot simulation and a reproducible experiment harness. Import
names from the module that defines them.
"""

from . import beamformer, enumeration, harness, mlp, nnc, sbsa, scene, snapshots

__version__ = "0.1.0"
