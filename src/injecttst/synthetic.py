"""Synthetic series generators for desk-scale verification.

Two families: sine mixtures (smooth, per-channel predictable) and lead-lag
pairs in which the follower channel's future equals the driver channel's
recent past plus noise, making cross-channel information genuinely necessary.
"""

from __future__ import annotations

import math

import numpy as np

from .data import SeriesTable
from .errors import ConfigError


def sine_mixture(rows: int, channels: int = 3, seed: int = 0,
                 noise: float = 0.1, components: int = 3) -> SeriesTable:
    """Each channel is a random mixture of sines plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows)[:, None]
    values = np.zeros((rows, channels), dtype=np.float64)
    for c in range(channels):
        periods = rng.uniform(16.0, 96.0, components)
        amps = rng.uniform(0.5, 1.5, components)
        phases = rng.uniform(0.0, 2.0 * np.pi, components)
        values[:, c] = (amps * np.sin(2.0 * np.pi * t / periods + phases)).sum(axis=1)
    values += noise * rng.standard_normal(values.shape)
    return SeriesTable(values=values.astype(np.float32),
                       channel_names=[f"ch{c}" for c in range(channels)])


def lead_lag(rows: int, lag: int = 6, seed: int = 0, noise: float = 0.05,
             smooth: int = 6) -> SeriesTable:
    """Driver/follower pair: follower(t) = driver(t - lag) + noise.

    The driver is smoothed white noise, so the follower's next `lag` steps
    are readable from the driver's history but not from the follower's own.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(rows + lag + smooth)
    kernel = np.ones(smooth) / smooth
    base = np.convolve(raw, kernel, mode="valid")[:rows + lag]
    base = (base - base.mean()) / max(base.std(), 1e-8)
    driver = base[lag:lag + rows]
    follower = base[:rows] + noise * rng.standard_normal(rows)
    values = np.stack([driver, follower], axis=1).astype(np.float32)
    return SeriesTable(values=values, channel_names=["driver", "follower"])


# generator -> (function, {parameter: (type, smallest value)})
_GENERATORS = {
    "sines": (sine_mixture, {"rows": (int, 1), "channels": (int, 1), "seed": (int, 0),
                             "noise": (float, 0.0), "components": (int, 1)}),
    "lead-lag": (lead_lag, {"rows": (int, 1), "lag": (int, 1), "seed": (int, 0),
                            "noise": (float, 0.0), "smooth": (int, 1)}),
}


def dataset_from_spec(spec: str) -> SeriesTable:
    """Build a table from a spec string like 'synthetic:lead-lag:rows=600,lag=6'.

    Each item is `name=value`; a value must parse as its parameter's type and
    be finite and at least the parameter's smallest value."""
    parts = spec.split(":")
    if len(parts) < 2 or parts[0] != "synthetic":
        raise ConfigError(f"not a synthetic dataset spec: {spec!r}")
    if len(parts) > 3:
        raise ConfigError(f"synthetic spec has more than one parameter list: {spec!r}")
    name = parts[1]
    if name not in _GENERATORS:
        raise ConfigError(f"unknown synthetic generator {name!r}; "
                          f"choices: {sorted(_GENERATORS)}")
    fn, params = _GENERATORS[name]
    kwargs = {}
    if len(parts) > 2 and parts[2]:
        for item in parts[2].split(","):
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigError(f"synthetic spec item {item!r} is not name=value: {spec!r}")
            if key not in params:
                raise ConfigError(f"unknown parameter {key!r} for generator {name!r}")
            if key in kwargs:
                raise ConfigError(f"synthetic spec sets {key} twice: {spec!r}")
            conv, least = params[key]
            try:
                value = conv(raw)
            except ValueError:
                raise ConfigError(f"synthetic spec {key}={raw!r} is not "
                                  f"{'an integer' if conv is int else 'a number'}") from None
            if not least <= value < math.inf:
                raise ConfigError(f"synthetic spec {key} must be finite and >= {least}, "
                                  f"got {raw!r}")
            kwargs[key] = value
    if "rows" not in kwargs:
        raise ConfigError(f"synthetic spec must set rows: {spec!r}")
    return fn(**kwargs)
