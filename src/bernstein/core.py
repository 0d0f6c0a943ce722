"""Grids, fields, problem specification, region masks, and shared discrete operators.

All types here are immutable after construction and safe to share read-only
between parallel workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CONTINUATION = 0
STOPPING = 1

#: Orientations. The forward problem holds data at t = T/2 and is solved
#: downward in time; the backward one is its time mirror, with data at
#: t = -T/2, solved upward.
FORWARD = "forward"
BACKWARD = "backward"


class ConvergenceError(RuntimeError):
    """An iterative solver or quadrature failed to reach its tolerance."""

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = residual_trace


# ---------------------------------------------------------------------------
# Built-in scalar functions, addressable by name from JSON problem documents.
# Each builder takes keyword parameters and returns a vectorized f(x).

def _zero(**_):
    return lambda x: np.zeros_like(np.asarray(x, dtype=float))


def _abs(scale=1.0, **_):
    return lambda x: scale * np.abs(x)


def _log1p_abs(scale=1.0, **_):
    return lambda x: scale * np.log1p(np.abs(x))


def _constant(value=0.0, **_):
    return lambda x: np.full_like(np.asarray(x, dtype=float), float(value))


def _linear(slope=1.0, intercept=0.0, **_):
    return lambda x: slope * np.asarray(x, dtype=float) + intercept


def _quadratic(scale=1.0, center=0.0, **_):
    return lambda x: scale * (np.asarray(x, dtype=float) - center) ** 2


FUNCTION_REGISTRY: dict[str, Callable] = {
    "zero": _zero,
    "abs": _abs,
    "log1p_abs": _log1p_abs,
    "constant": _constant,
    "linear": _linear,
    "quadratic": _quadratic,
}


def function_from_spec(doc) -> Callable:
    """Resolve a function document {"name": ..., params...} or plain name string."""
    if callable(doc):
        return doc
    if isinstance(doc, str):
        name, params = doc, {}
    elif isinstance(doc, dict):
        params = dict(doc)
        name = params.pop("name", None)
    else:
        raise ValueError(f"cannot interpret function spec {doc!r}")
    if name not in FUNCTION_REGISTRY:
        raise ValueError(
            f"unknown function {name!r}; available: {sorted(FUNCTION_REGISTRY)}"
        )
    return FUNCTION_REGISTRY[name](**params)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A one-dimensional control problem on the horizon [-T/2, T/2].

    Parameters
    ----------
    hbar : float
        Diffusion constant, > 0.
    half_horizon : float
        T/2; the horizon is [-half_horizon, half_horizon].
    potential, terminal_cost, initial_cost : callable
        V(x), S(x) and S*(x); vectorized scalar functions.
    x_min, x_max : float
        Spatial truncation of the real line.
    """

    hbar: float
    half_horizon: float
    potential: Callable = field(compare=False)
    terminal_cost: Callable = field(compare=False)
    initial_cost: Callable = field(compare=False)
    x_min: float = -3.0
    x_max: float = 3.0

    def __post_init__(self):
        for name in ("hbar", "half_horizon", "x_min", "x_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.half_horizon <= 0:
            raise ValueError(f"half_horizon must be positive, got {self.half_horizon}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")

    @classmethod
    def from_json(cls, doc) -> "ProblemSpec":
        """Build from a JSON document (string, dict, or file-like)."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        elif hasattr(doc, "read"):
            doc = json.load(doc)
        try:
            return cls(
                hbar=float(doc["hbar"]),
                half_horizon=float(doc["half_horizon"]),
                potential=function_from_spec(doc["potential"]),
                terminal_cost=function_from_spec(doc["terminal_cost"]),
                initial_cost=function_from_spec(doc["initial_cost"]),
                x_min=float(doc["x_min"]),
                x_max=float(doc["x_max"]),
            )
        except KeyError as exc:
            raise ValueError(f"problem document is missing field {exc}") from exc

    def validate_regularity(self, n_samples=512, lipschitz_bound=1e6):
        """Sampled sanity diagnostics for the cost/potential functions.

        Checks that V is bounded below, S and S* are finite, and the sampled
        difference quotients of all three stay below ``lipschitz_bound``.
        These are diagnostics on user-supplied black boxes, not guarantees.
        """
        xs = np.linspace(self.x_min, self.x_max, n_samples)
        for name, f in (
            ("potential", self.potential),
            ("terminal_cost", self.terminal_cost),
            ("initial_cost", self.initial_cost),
        ):
            vals = np.asarray(f(xs), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} is non-finite on the truncated domain")
            quot = np.abs(np.diff(vals)) / np.diff(xs)
            if np.max(quot) > lipschitz_bound:
                raise ValueError(
                    f"{name} sampled difference quotient {np.max(quot):.3g} "
                    f"exceeds bound {lipschitz_bound:.3g}"
                )


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid covering [x_min, x_max] x [-T/2, T/2]."""

    xs: np.ndarray
    ts: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ts = np.asarray(self.ts, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)
        for name, arr in (("xs", xs), ("ts", ts)):
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError(f"{name} must be a 1-d array with >= 2 nodes")
            d = np.diff(arr)
            if not np.all(d > 0):
                raise ValueError(f"{name} must be strictly increasing")
            if not np.allclose(d, d[0], rtol=1e-9, atol=0):
                raise ValueError(f"{name} must be uniformly spaced")
        xs.setflags(write=False)
        ts.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def nt(self) -> int:
        return self.ts.size

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dt(self) -> float:
        return float(self.ts[1] - self.ts[0])


@dataclass(frozen=True)
class ScalarField:
    """A real function sampled on a space-time grid, indexed (time, space)."""

    grid: SpaceTimeGrid
    values: np.ndarray
    allow_nan: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.nt, self.grid.nx):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.nt}, {self.grid.nx})"
            )
        if not self.allow_nan and not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite entries")
        values.setflags(write=False)


@dataclass(frozen=True)
class RegionMask:
    """Continuation/stopping classification of every grid node."""

    grid: SpaceTimeGrid
    flags: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=np.int8)
        object.__setattr__(self, "flags", flags)
        if flags.shape != (self.grid.nt, self.grid.nx):
            raise ValueError("flags shape does not match grid")
        if not np.all((flags == CONTINUATION) | (flags == STOPPING)):
            raise ValueError("every node must be CONTINUATION or STOPPING")
        flags.setflags(write=False)


# ---------------------------------------------------------------------------
# Operations


def build_grid(spec: ProblemSpec, nx: int, nt: int) -> SpaceTimeGrid:
    """Uniform grid with exact endpoints; nx >= 3 spatial, nt >= 2 time nodes."""
    if nx < 3 or nt < 2:
        raise ValueError(f"need nx >= 3 and nt >= 2, got nx={nx}, nt={nt}")
    T2 = spec.half_horizon
    return SpaceTimeGrid(
        xs=np.linspace(spec.x_min, spec.x_max, nx),
        ts=np.linspace(-T2, T2, nt),
    )


def interpolate(fld: ScalarField, t: float, x: float) -> float:
    """Bilinear interpolation in (t, x); exact at nodes, errors out of hull."""
    ts, xs = fld.grid.ts, fld.grid.xs
    eps_t = 1e-12 * max(1.0, abs(ts[0]), abs(ts[-1]))
    eps_x = 1e-12 * max(1.0, abs(xs[0]), abs(xs[-1]))
    if not (ts[0] - eps_t <= t <= ts[-1] + eps_t):
        raise ValueError(f"time {t} outside grid hull [{ts[0]}, {ts[-1]}]")
    if not (xs[0] - eps_x <= x <= xs[-1] + eps_x):
        raise ValueError(f"position {x} outside grid hull [{xs[0]}, {xs[-1]}]")
    it = min(int(np.searchsorted(ts, t, side="right")) - 1, ts.size - 2)
    ix = min(int(np.searchsorted(xs, x, side="right")) - 1, xs.size - 2)
    it = max(it, 0)
    ix = max(ix, 0)
    wt = (t - ts[it]) / (ts[it + 1] - ts[it])
    wx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    wt = min(max(wt, 0.0), 1.0)
    wx = min(max(wx, 0.0), 1.0)
    v = fld.values
    return float(
        (1 - wt) * ((1 - wx) * v[it, ix] + wx * v[it, ix + 1])
        + wt * ((1 - wx) * v[it + 1, ix] + wx * v[it + 1, ix + 1])
    )


def gradient_rows(values: np.ndarray, dx: float) -> np.ndarray:
    """d/dx of row-wise sampled values: central interior, 2nd-order one-sided edges."""
    v = np.asarray(values, dtype=float)
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2 * dx)
    g[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * dx)
    g[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * dx)
    return g


def gradient_x(fld: ScalarField) -> ScalarField:
    """Spatial gradient of a field; exact on affine fields."""
    if fld.grid.nx < 3:
        raise ValueError("gradient_x needs at least 3 spatial nodes")
    return ScalarField(fld.grid, gradient_rows(fld.values, fld.grid.dx),
                       allow_nan=fld.allow_nan)


def region_from_eta(eta: ScalarField, obstacle: ScalarField,
                    tol: float = 0.0, abs_tol: float = 0.0) -> RegionMask:
    """Classify nodes: STOPPING iff eta - obstacle <= max(abs_tol, tol * obstacle)."""
    if eta.grid is not obstacle.grid and not (
        np.array_equal(eta.grid.xs, obstacle.grid.xs)
        and np.array_equal(eta.grid.ts, obstacle.grid.ts)
    ):
        raise ValueError("eta and obstacle must live on the same grid")
    if tol < 0 or abs_tol < 0:
        raise ValueError("tolerances must be nonnegative")
    if np.any(obstacle.values <= 0):
        raise ValueError("obstacle must be strictly positive")
    thresh = np.maximum(abs_tol, tol * obstacle.values)
    flags = np.where(eta.values - obstacle.values <= thresh, STOPPING, CONTINUATION)
    return RegionMask(eta.grid, flags)
