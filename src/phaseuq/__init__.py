"""Coded-illumination quantitative phase imaging with ensemble uncertainty.

Subpackages cover the full chain: array/Fourier plumbing (grid), LED-array
illumination and the weak-phase transfer function (optics), iterative and
one-shot phase reconstruction (recon), phase-map conditioning (preprocess),
a small heteroscedastic convolutional regressor (learner), uncertainty
statistics (uqstats), and a reproducible pipeline front end (cli).
"""

__version__ = "0.1.0"
