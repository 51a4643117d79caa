"""Oracles only the tests call: reference quantities that no subcommand or
bound check of the library computes."""

import numpy as np

from driftlearn.o2nc import O2ncTrace, Objective
from driftlearn.streams import philox_rng


def stationarity_surrogate(
    point,
    objective: Objective,
    radius: float,
    samples: int,
    seed: int,
    c: float = 0.0,
) -> float:
    """Upper-bound witness for the smoothed-gradient stationarity measure.

    Uses the uniform distribution on the ball of the given radius around
    the point (one feasible choice among all mean-preserving distributions)
    and returns |mean grad F(point + delta)| + c * mean |delta|^2.  With
    radius = 0 this is exactly |grad F(point)|.
    """
    if radius < 0.0 or samples < 1:
        raise ValueError("need radius >= 0 and samples >= 1")
    x = point.xbar_final if isinstance(point, O2ncTrace) else np.asarray(point, dtype=float)
    d = objective.dim
    if radius == 0.0:
        return float(np.linalg.norm(objective.grad(x)))
    rng = philox_rng(seed)
    dirs = rng.standard_normal((samples, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), np.finfo(float).tiny)
    radii = radius * rng.random(samples) ** (1.0 / d)
    perturbations = dirs * radii[:, None]
    mean_grad = np.zeros(d)
    mean_sq = 0.0
    for delta in perturbations:
        mean_grad += objective.grad(x + delta)
        mean_sq += float(delta @ delta)
    mean_grad /= samples
    mean_sq /= samples
    return float(np.linalg.norm(mean_grad)) + c * mean_sq
