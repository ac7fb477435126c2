"""Multilevel ensemble Kalman filtering for spectrally discretized SPDEs.

Coupled coarse/fine particle pairs across a resolution ladder feed a
telescoping estimate of the covariance action, which drives a perturbed
observation Kalman update.  The single-level EnKF is the same engine
with one level, and the exact Kalman recursion serves as the reference.
See the README for the experiment protocol and the CLI.
"""

__version__ = "0.1.0"
