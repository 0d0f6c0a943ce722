"""Grids, fields, problem specification, region masks, shared discrete
operators, and the one place that forks.

All types here are immutable after construction and safe to share read-only
between parallel workers. Three conventions are decided here alone.

How a point (t, x) maps onto a grid: ``SpaceTimeGrid.nearest_row`` and
``nearest_column`` snap it to a node, and ``interpolate`` reads a field
between nodes. Every lookup goes through these: the Monte Carlo drift and
stopping-region lookups, the survival function q at the start and along
the paths, the band-error slices and the node checks of ``experiments``.

The implicit Euler step: ``_step_matrix`` is the step of every parabolic
solve and, transposed, of the killed density in ``stopping``; ``_pin_rows``
holds nodes in it, ``_factor_step`` factors it, ``_solve_step`` solves
with it or its transpose and ``_step_residual`` is its one mat-vec
A e - b. ``hjb`` builds it with drift 0, overwrites the two far-field rows
and pins the active set; ``stopping._step`` builds it with +b (forward)
or -b (backward) and pins the stopping nodes. A change of the
discretization is therefore made once, and the forward and backward
Kolmogorov solves stay discrete adjoints.

The time direction: ``_marching_rows`` returns a field's rows with the
data row last, next to the orientations FORWARD and BACKWARD. Every march
(``hjb._march``, ``hjb.lcp_residual``, ``stopping.solve_q``), the data row
of ``experiments.stopping_columns`` and ``simulate``'s time flip of a
backward ensemble take their rows from it, so a backward solve with the
forward data is the forward solve mirrored bit for bit. Only
``schrodinger._propagate``, a kernel integral rather than a march, keeps a
data row of its own.

``block_bounds`` cuts a job into contiguous blocks, one per usable CPU,
and ``fork_blocks``, the one place that forks, runs them in parallel in
``multiprocessing`` fork processes; the Monte Carlo engine splits its
paths into such blocks once; its results do not depend on the split.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

CONTINUATION = 0
STOPPING = 1

#: Orientations. The forward problem holds data at t = T/2 and is solved
#: downward in time; the backward one is its time mirror, with data at
#: t = -T/2, solved upward (``_marching_rows`` orders the rows of either).
FORWARD = "forward"
BACKWARD = "backward"


def _marching_rows(orientation: str, values):
    """The time rows of ``values`` in marching order, data row last: as they
    are for FORWARD, the view ``values[::-1]`` for BACKWARD. Its own
    inverse, so it also maps a result marched that way back to time order."""
    if orientation not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown orientation {orientation!r}")
    return values if orientation == FORWARD else values[::-1]


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance, or the two routes
    of an oracle's drift evaluation disagree."""

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = residual_trace


# ---------------------------------------------------------------------------
# Built-in scalar functions, addressable by name from JSON problem documents.
# Each builder takes keyword parameters and returns a vectorized f(x).

def _zero():
    return lambda x: np.zeros_like(np.asarray(x, dtype=float))


def _abs(scale=1.0):
    return lambda x: scale * np.abs(x)


def _log1p_abs(scale=1.0):
    return lambda x: scale * np.log1p(np.abs(x))


def _constant(value=0.0):
    return lambda x: np.full_like(np.asarray(x, dtype=float), float(value))


def _linear(slope=1.0, intercept=0.0):
    return lambda x: slope * np.asarray(x, dtype=float) + intercept


def _quadratic(scale=1.0, center=0.0):
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
    try:
        fn = FUNCTION_REGISTRY[name](**params)
    except TypeError:
        taken = inspect.signature(FUNCTION_REGISTRY[name]).parameters
        raise ValueError(f"function {name!r} takes {', '.join(taken) or 'no parameters'}"
                         f", not {sorted(set(params) - set(taken))}") from None
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"function {name!r} parameter {key} must be a "
                             f"number, not {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf or a long int
            raise ValueError(f"function {name!r} parameter {key} must be "
                             f"finite, got {value!r}")
    return fn


def _number(value) -> float:
    """A JSON number as a float; a TypeError for anything else, a bool or a
    numeric string included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


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
        """Build from a parsed JSON problem document, an object of exactly
        the seven fields: the four numbers read by ``_number``, not cast,
        and the three functions by ``function_from_spec``. A field missing,
        unknown or of the wrong type is a ValueError that names it."""
        if not isinstance(doc, dict):
            raise ValueError(f"a problem document is an object of fields, not {doc!r}")
        valid = sorted(f.name for f in fields(cls))
        unknown = sorted(set(doc) - set(valid))
        if unknown:
            raise ValueError(f"unknown problem fields {unknown}; valid fields: "
                             f"{', '.join(valid)}")

        def number(name):
            try:
                return _number(doc[name])
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None

        try:
            return cls(
                hbar=number("hbar"),
                half_horizon=number("half_horizon"),
                potential=function_from_spec(doc["potential"]),
                terminal_cost=function_from_spec(doc["terminal_cost"]),
                initial_cost=function_from_spec(doc["initial_cost"]),
                x_min=number("x_min"),
                x_max=number("x_max"),
            )
        except KeyError as exc:
            raise ValueError(f"problem document is missing field {exc}") from exc


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

    def __eq__(self, other):
        """Value equality: the same x nodes and the same time nodes."""
        if not isinstance(other, SpaceTimeGrid):
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.ts, other.ts)

    def nearest_row(self, t):
        """Index of the time node nearest t, a scalar or an array, as
        ``np.argmin(np.abs(ts - t))`` picks it for a finite t: the lower on
        a tie. An infinite t gets the near end."""
        return _nearest(self.ts, t)

    def nearest_column(self, x):
        """Index of the x node nearest x, picked likewise."""
        return _nearest(self.xs, x)

    def exact_row(self, t) -> int:
        """The row of the grid time t, to 1e-9 relative, or a ValueError."""
        k = _nearest(self.ts, t)  # a NaN or infinite t fails the test below
        if not abs(self.ts[k] - t) <= 1e-9 * max(1.0, abs(self.ts[k])):
            raise ValueError(f"t = {t} is on no grid node; the nearest grid "
                             f"time is {float(self.ts[k])!r}")
        return k


def _cell(nodes: np.ndarray, q: np.ndarray):
    """``np.searchsorted(nodes, q, side="right") - 1`` for uniformly spaced
    ``nodes`` and a 1-d ``q`` in their hull, and the nodes there (n - 1 only
    at q == nodes[-1]). The index is estimated from the spacing; a grid is
    uniform to 1e-9 relative (``SpaceTimeGrid``), so the estimate is at most
    one off, and one comparison with each neighbouring node corrects it."""
    e = q - nodes[0]
    e /= nodes[1] - nodes[0]
    j = np.fmin(e, nodes.size - 2, out=e).astype(np.intp)
    j -= nodes.take(j) > q
    j += nodes[1:].take(j) <= q
    return j, nodes.take(j)


def _nearest(nodes: np.ndarray, q):
    """The node of q's cell or the next one, whichever is strictly nearer;
    an int for a scalar q."""
    qc = np.clip(np.asarray(q, dtype=float), nodes[0], nodes[-1]).ravel()
    j = np.minimum(_cell(nodes, qc)[0], nodes.size - 2)
    j += np.abs(nodes.take(j + 1) - qc) < np.abs(qc - nodes.take(j))
    return int(j[0]) if np.ndim(q) == 0 else j.reshape(np.shape(q))


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

    def __eq__(self, other):
        """Value equality: equal grids and equal values, NaN equal to NaN
        where ``allow_nan`` is set."""
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (self.allow_nan == other.allow_nan and self.grid == other.grid
                and np.array_equal(self.values, other.values,
                                   equal_nan=self.allow_nan))


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

    def __eq__(self, other):
        """Value equality: equal grids and equal flags."""
        if not isinstance(other, RegionMask):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.flags, other.flags)


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


def interpolate(fld: ScalarField, t, x):
    """Linear interpolation of a finite field in (t, x) at a point, or at
    arrays of points broadcast together; exact at nodes. t is tested
    against the time hull: one within 1e-12 relative of it reads the end
    row, one further out raises a ``ValueError``. x is clipped onto the x
    hull in one pass, so a position off the grid reads the field at its
    edge node, as a Monte Carlo path does.

    The two time rows around t are blended, and the blend is read in x by
    ``np.interp``'s rules, bit for bit: ``slope*(x - x_j) + f_j``, and the
    node value at an exact node. A scalar t blends its rows once: the same
    arithmetic per element. Only a finite field is read; the ``allow_nan``
    fields of ``simulate.reversed_drift`` never are.
    """
    ts, xs, v = fld.grid.ts, fld.grid.xs, fld.values
    tq = np.asarray(t, dtype=float)
    if tq.size and not (ts[0] <= tq.min() and tq.max() <= ts[-1]):
        eps = 1e-12 * max(1.0, abs(ts[0]), abs(ts[-1]))
        out = ~((ts[0] - eps <= tq) & (tq <= ts[-1] + eps))
        if out.any():
            raise ValueError(f"time {tq[out].flat[0]} outside grid hull "
                             f"[{ts[0]}, {ts[-1]}]")
        tq = np.clip(tq, ts[0], ts[-1])
    xq = np.clip(np.asarray(x, dtype=float), xs[0], xs[-1])
    shape = np.broadcast_shapes(tq.shape, xq.shape) if tq.ndim else xq.shape
    xc = np.broadcast_to(xq, shape).ravel() if tq.ndim else xq.ravel()
    j, xj = _cell(xs, xc)
    # j == n - 1 only at the last node, whose value the node rule below
    # sets: any slope serves there
    if tq.ndim == 0:
        k = min(int(np.searchsorted(ts, tq, side="right")) - 1, ts.size - 2)
        w = (tq - ts[k]) / (ts[k + 1] - ts[k])
        row = (1 - w) * v[k] + w * v[k + 1]
        at, slope = row.take, (np.diff(row) / np.diff(xs)).take(j, mode="clip")
    else:
        tc = np.broadcast_to(tq, shape).ravel()
        it = np.minimum(np.searchsorted(ts, tc, side="right") - 1, ts.size - 2)
        wt = (tc - ts[it]) / (ts[it + 1] - ts[it])

        def at(k):
            return (1 - wt) * v[it, k] + wt * v[it + 1, k]
        cell = np.minimum(j, xs.size - 2)
        slope = (at(cell + 1) - at(cell)) / (xs.take(cell + 1) - xs.take(cell))
    fj = at(j)
    vals = xc - xj  # slope * (x - x_j) + f_j, in place
    vals *= slope
    vals += fj
    np.copyto(vals, fj, where=xj == xc)
    return float(vals[0]) if shape == () else vals.reshape(shape)


def mean_stderr(samples):
    """Sample mean and standard error (ddof = 1) of a 1-d sample, as floats."""
    v = np.asarray(samples)
    return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(v.size))


def gradient_rows(values: np.ndarray, dx: float) -> np.ndarray:
    """d/dx of row-wise sampled values: central interior, 2nd-order one-sided edges."""
    v = np.asarray(values, dtype=float)
    g = np.empty_like(v)
    mid = np.subtract(v[..., 2:], v[..., :-2], out=g[..., 1:-1])
    mid /= 2 * dx
    g[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * dx)
    g[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * dx)
    return g


def _step_matrix(drift, hbar: float, dt: float, dx: float,
                 potential=None) -> np.ndarray:
    """The implicit Euler step matrix I - dt L on one time row, in the
    (1, 1)-banded layout that ``_factor_step`` takes (``ab[0, i + 1]``
    couples node i to i + 1, ``ab[2, i - 1]`` node i to i - 1), for
    L = drift d/dx + (hbar/2) d2/dx2 - potential/hbar.

    The drift is exponentially fitted (Scharfetter-Gummel/Il'in): node i
    couples to i -/+ 1 with lam B(+/-Pe_i), lam = dt (hbar/2) / dx**2,
    Pe_i = b_i dx / (hbar/2), B(z) = z / (e**z - 1). As B(-z) - B(z) = z
    the drift is differenced centrally, second order in dx, and as B > 0
    no off-diagonal is positive at any cell Peclet number; at drift 0 both
    couplings are lam. The edges reflect (the outside neighbour folded onto
    the edge node). Without a potential every row sums to 1: an M-matrix,
    whose transpose conserves the sum of what it steps.
    """
    c = np.asarray(drift, dtype=float)
    lam = dt * (hbar / 2) / (dx * dx)
    # B(-|Pe|), 1 at Pe = 0, and B(|Pe|) = B(-|Pe|) exp(-|Pe|): no overflow, no 0/0
    a = np.abs(c) * dx / (hbar / 2)
    big = np.divide(a, -np.expm1(-a), out=np.ones(c.size), where=a > 0)
    small = big * np.exp(-a)
    up = lam * np.where(c > 0, small, big)  # couples node i to i - 1
    dn = lam * np.where(c > 0, big, small)  # couples node i to i + 1
    diag = np.ones(c.size)
    if potential is not None:
        diag += dt * np.asarray(potential, dtype=float) / hbar
    ab = np.zeros((3, c.size))
    ab[1] = diag + lam * (big + small)
    ab[0, 1:] = -dn[:-1]
    ab[2, :-1] = -up[1:]
    ab[1, 0] = diag[0] + dn[0]
    ab[1, -1] = diag[-1] + up[-1]
    return ab


def _pin_rows(ab: np.ndarray, rows) -> np.ndarray:
    """Make the rows of the (1, 1)-banded ``ab`` where the boolean ``rows``
    is true identity rows, in place, and return ``ab``. The columns are
    left alone: a pinned node's neighbours still couple to it."""
    ab[1, rows] = 1.0
    ab[0, 1:][rows[:-1]] = 0.0
    ab[2, :-1][rows[1:]] = 0.0
    return ab


def _factor_step(ab: np.ndarray) -> tuple:
    """LU factors of the (1, 1)-banded ``ab`` (LAPACK dgttrf). scipy.linalg
    loads on the first call: a run that solves nothing never loads it."""
    from scipy.linalg import lapack
    return lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])[:5]


def _solve_step(lu: tuple, b: np.ndarray, trans: str = "N",
                overwrite_b: bool = False) -> np.ndarray:
    """x with A x = b, A factored by ``_factor_step`` (LAPACK dgttrs): the
    bits of ``scipy.linalg.solve_banded((1, 1), A, b)``; with trans="T",
    x with A^T x = b from the same factors. With overwrite_b, x is written
    over ``b``, a contiguous float row, and returned as a view of it."""
    from scipy.linalg import lapack
    return lapack.dgttrs(*lu, b, trans=trans, overwrite_b=overwrite_b)[0]


def _step_residual(ab: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The row residual A e - b of the (1, 1)-banded ``ab``; of each row
    of ``e`` and ``b`` if they are 2-d."""
    r = ab[1] * e - b
    r[..., :-1] += ab[0, 1:] * e[..., 1:]
    r[..., 1:] += ab[2, :-1] * e[..., :-1]
    return r


_REGION_ABS_TOL, _REGION_REL_TOL = 1e-9, 1e-8


def region_from_eta(eta: ScalarField, psi: np.ndarray) -> RegionMask:
    """Classify nodes against the obstacle row psi, shared by every time
    row: STOPPING iff eta - psi <= max(_REGION_ABS_TOL, _REGION_REL_TOL *
    psi), where eta meets the obstacle to round-off."""
    if psi.shape != (eta.grid.nx,):
        raise ValueError(f"obstacle row of shape {psi.shape} on {eta.grid.nx} nodes")
    if np.any(psi <= 0):
        raise ValueError("obstacle must be strictly positive")
    thresh = np.maximum(psi * _REGION_REL_TOL, _REGION_ABS_TOL)
    # True (1) is STOPPING, False (0) CONTINUATION
    stop = np.less_equal(eta.values - psi, thresh)
    return RegionMask(eta.grid, stop.view(np.int8))


# ---------------------------------------------------------------------------
# Parallel blocks


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``); 1 where
    that or ``os.fork`` is missing, so that nothing forks there."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def block_bounds(n: int, min_block: int) -> list:
    """Bounds [0, ..., n] of contiguous blocks of range(n) for
    ``fork_blocks``: one per usable CPU, but none of fewer than
    ``min_block`` items, and at least one."""
    k = max(1, min(usable_cpus(), n // max(min_block, 1)))
    return [n * i // k for i in range(k + 1)]


def fork_blocks(bounds: list, fn) -> None:
    """Run ``fn(lo, hi)`` on each block [bounds[i], bounds[i + 1]) of
    ``bounds`` (as ``block_bounds`` returns them), the blocks in parallel.

    This process runs block 0 while a child started by ``multiprocessing``'s
    fork start method runs each other block; ``fn`` returns nothing, so a
    block's results must reach this process through shared memory or a
    file. That start method flushes ``sys.stdout`` and ``sys.stderr`` before
    each fork, and a child leaves through ``os._exit``: it runs no exit
    handler and writes no inherited text a second time. Every child is
    reaped before this returns or raises. A failed child prints its
    traceback to stderr and raises ``ChildProcessError`` here, naming its
    block and exit status (minus the number of a signal that ended it). On
    any error here, that one included, every child is killed (SIGKILL) and
    reaped before the error propagates. With one block ``fn(bounds[0],
    bounds[1])`` runs here, and nothing forks or loads ``multiprocessing``.

    The fork is safe although the process may hold BLAS threads as long as
    ``fn`` calls no BLAS and takes no library lock in the child. From
    Python 3.12 on, a fork warns in a process with threads; that warning
    is left to the caller's filters.
    """
    children = []
    try:
        for i in range(1, len(bounds) - 1):
            import multiprocessing  # loaded only once a block forks
            child = multiprocessing.get_context("fork").Process(
                target=fn, args=bounds[i:i + 2])
            child.start()
            children.append(child)
        fn(bounds[0], bounds[1])
        for i, child in enumerate(children, 1):
            child.join()
            if child.exitcode != 0:
                raise ChildProcessError(
                    f"block {i} of {len(bounds) - 1} (items {bounds[i]} to "
                    f"{bounds[i + 1]} of {bounds[-1]}) exited with status "
                    f"{child.exitcode}")
    except BaseException:
        for child in children:
            child.kill()
            child.join()
        raise
