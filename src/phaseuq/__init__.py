"""Coded-illumination quantitative phase imaging with ensemble uncertainty.

Modules cover the full chain: range-checked settings blocks and their
parser (config), centered Fourier transforms and resizing (grid), LED-array
illumination and the weak-phase transfer function (optics), synthetic phase
objects (phantom), iterative and one-shot phase reconstruction (recon),
phase-map conditioning (preprocess), a small heteroscedastic convolutional
regressor (learner), the predictive ensemble and its uncertainty statistics
(uqstats), the ``.puqt`` tensor container (tensorfile), the run-directory
stages (pipeline), their command line front end (cli), and the error
taxonomy they share (errors). numpy is the only runtime dependency.
"""

__version__ = "0.1.0"
