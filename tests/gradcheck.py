"""Finite-difference gradient check shared by the test modules."""

from typing import Callable, Iterable

import numpy as np

from injecttst.numerics import Tensor, grad_table


def grad_check(f: Callable[[dict], Tensor], params: dict, h: float = 1e-3,
               max_coords: int = 32, seed: int = 0) -> float:
    """Max relative error of reverse-mode gradients vs 64-bit central differences.

    `f` maps a name->Tensor dict to a scalar Tensor and must be deterministic.
    Coordinates are subsampled per tensor when a tensor has more than
    `max_coords` entries. The relative error denominator is floored at 1 so
    near-zero gradients are compared absolutely.
    """
    work = {name: Tensor(p.data.astype(np.float64), requires_grad=True)
            for name, p in params.items()}
    analytic = grad_table(f(work), work)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in work.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords:
            idxs: Iterable[int] = range(n)
        else:
            idxs = rng.choice(n, size=max_coords, replace=False)
        aflat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(work).data)
            flat[i] = orig - h
            fm = float(f(work).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(aflat[i])
            err = abs(a - numeric) / max(abs(a) + abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
