"""Failure prediction for hourly machine-state event streams.

Pipeline: ingest or synthesize the five event datasets, assemble a joined
machine-state stream with a configurable failure horizon, fit a
sample-weighted logistic regression, and evaluate it with machine-disjoint
temporally ordered cross-validation.
"""

import os
# BLAS products here are 30 columns at most: a 2nd thread spins and moves trailing bits.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads; a count already set wins

__version__ = "0.1.0"
