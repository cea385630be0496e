"""Local linear kernel regression and kernel density estimation.

The regression engine fits, at each evaluation point x0, a weighted
least-squares line to (x, z) with weights K((x - x0)/h)/h, K the fixed
kernel model.tricube, and returns the intercept.  Writing
u = (x - x0)/h, w = K(u)/h and S_l = sum w u^l, T_l = sum w u^l z, the
intercept is

    (S_2 T_0 - S_1 T_1) / (S_0 S_2 - S_1^2),

which reproduces constants and linear functions exactly.  A point is
degenerate when the normal-equation determinant S_0 S_2 - S_1^2 is at most
1e-12 S_0^2.  The ratio of the two is the weighted variance of u, so the
rule does not depend on the scale of x or h: a point is degenerate when the
weighted sd of its window's x is at most 1e-6 h (or no x carries weight).
Fewer than two distinct x values in the open window is the common case, but
a bandwidth vast beside the spread of x, such as 1e30 on log2 intensities,
flags every point too.  _solve applies that rule and the formula to the
moments of both routes below.

Curves on equispaced points (fit_curve on config.grid, which also serves
the two-stage baseline's stage-1 nodes) and density_interpolator's density
come from one lattice engine, _lattice_sums: linear binning, then
the window sums by one strided matmul with the kernel taps (Fan & Marron
1994; Wand 1994).  The density takes S_0 alone; the fits take the five
moments, with the exact fit where a window holds too few x for binning.
Their flags agree with the exact pass's on every design tested, and their
values are within 1e-4 sd(z) of it on the benchmark designs and on a
300-gene input at bandwidths from 0.05 to 1000 (measured, not proved).

local_linear_at (the exact fit at arbitrary points), the fits' sparse
windows and kde_values (the exact density) -- the tests' oracles -- are
plain per-point passes over the sorted sample: _windows finds every point's
kernel window with one searchsorted pair and yields, point by point, the
window and u = (x - x0)/h.  Regression reduces the weights K(u)/h to the
five moment sums; the density sums K(u).  A row holds at most n floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (
    FLAG_DEGENERATE,
    EstimationConfig,
    GenevarError,
    NonFinite,
    ShapeMismatch,
    VarianceCurve,
    tricube,
)

_DET_RTOL = 1e-12
_DENSITY_NODES = 512
# lattice steps per bandwidth in fit_curve, at least: the binning error
# falls like the step squared, and 256 keeps it below 1e-4 sd(z) on the
# table2 design (measured 8.5e-5; 3.5e-4 at 128)
_TAPS_PER_H = 256
_LATTICE_MAX = 1 << 19  # lattice nodes per binned fit, at most (4 MB per row of bins)
# x per lattice-fit window, at least; sparser windows get the exact fit.  At
# 32 the 300-gene, J=4 CLI input stays within 3e-5 sd(z) of exact at every
# bandwidth from 0.05 to 1 (16: 3e-5, 8: 3e-4), and no window of the
# 2000-gene benchmark designs at h = 1 holds fewer (the least holds 42)
_EXACT_BELOW = 32
_BIN_ROWS = 1 << 16  # data binned at once by _lattice_sums


@dataclass(frozen=True)
class ScatterData:
    """Paired design points and responses for one smoothing problem."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
            raise ShapeMismatch("x and z must be equal-length 1-d arrays")
        if x.size == 0:
            raise ShapeMismatch("empty scatter data")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise NonFinite("scatter data contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)


def _windows(xs, points, h):
    """Yield (i, window, u) for each point whose kernel window in the sorted
    sample xs holds data: window is the slice of xs within a kernel
    halfwidth of points[i], and u = (xs[window] - points[i]) / h."""
    lo = np.searchsorted(xs, points - h, side="left")
    hi = np.searchsorted(xs, points + h, side="right")
    for i in np.flatnonzero(hi > lo):
        window = slice(lo[i], hi[i])
        yield i, window, (xs[window] - points[i]) / h


def _solve(s0, s1, s2, t0, t1):
    """(intercept, degenerate) from the window moments; degenerate points,
    where the determinant is at most 1e-12 s0^2, hold NaN."""
    det = s0 * s2 - s1 * s1
    ok = det > _DET_RTOL * (s0 * s0)
    safe = np.where(ok, det, 1.0)
    return np.where(ok, (s2 * t0 - s1 * t1) / safe, np.nan), ~ok


def _exact_fit(xs, zs, h, points):
    """Exact local linear fit at points from the sample (xs, zs) sorted by
    x.  Returns (values, degenerate); degenerate points, and points whose
    window holds no data, hold NaN."""
    moments = np.zeros((5, points.size))
    for i, window, u in _windows(xs, points, h):
        w = tricube(u) / h
        wu = w * u
        zw = zs[window]
        moments[:, i] = w.sum(), wu.sum(), wu @ u, w @ zw, wu @ zw
    return _solve(*moments)


def local_linear_at(data: ScatterData, config: EstimationConfig, points):
    """Local linear fit at arbitrary points.

    Returns (values, degenerate_mask); degenerate points hold NaN.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise NonFinite("evaluation points must be finite")
    order_x = np.argsort(data.x, kind="stable")
    return _exact_fit(data.x[order_x], data.z[order_x], config.bandwidth, pts)


def _lattice_sums(x, h, points, *weights):
    """Window sums at equispaced points from linearly binned x: for each
    (v, k) in weights, v a weight per datum or None for unit weights, the
    sums of v K(u) u^l / h, l < k <= 3.  Returns (step, sums), sums[i] of
    shape (k, points.size); a window that meets no datum sums to 0.

    points must be strictly increasing with a common spacing g, or a single
    point (then g = h / _TAPS_PER_H).  The lattice step is g / R, with R the
    smallest integer that makes it at most s / _TAPS_PER_H, where s is h or,
    if smaller, a quarter of the range of x: the binning error grows with
    the step relative to the spread of x in a window, which is about h for
    a narrow window and the data's own spread for a wide one.  R is found up
    to a relative 1e-9, so that rounding in g, h or x cannot flip it; every
    point is then a lattice node.  Each x is split linearly between its two
    nearest nodes with np.add.at, _BIN_ROWS data at a time, so that no
    temporary grows with x, and the sums at the points are one strided
    matmul of the bins with the taps K(u) u^l / h.  The lattice and the
    taps are cropped to the nodes where the data meet a window of some
    point.  Where that would still take more than _LATTICE_MAX nodes, R is
    lowered, so the step exceeds s / _TAPS_PER_H and the sums lose
    accuracy; if R = 1 is still too fine, GenevarError is raised.
    """
    n = points.size
    spacing = (points[-1] - points[0]) / (n - 1) if n > 1 else h / _TAPS_PER_H
    # data positions in units of g; rounding is monotone, so these are the
    # least and greatest of (x - points[0]) / spacing
    lo_x = (x.min() - points[0]) / spacing
    hi_x = (x.max() - points[0]) / spacing
    furthest = max(hi_x, n - 1 - lo_x)            # from any point to any datum
    scale = min(h, 0.25 * (hi_x - lo_x) * spacing) if hi_x > lo_x else h
    refine = int(min(max(np.ceil(spacing * _TAPS_PER_H / scale * (1.0 - 1e-9)),
                         1.0), _LATTICE_MAX))
    while True:
        # taps reach at most the furthest datum's node
        reach = int(min(np.floor(h / spacing * refine), furthest * refine + 1.0))
        # the points whose windows can hold data; the lattice spans their windows
        first = max(0, int(np.ceil(lo_x - (reach + 1) / refine)))
        last = min(n - 1, int(np.floor(hi_x + (reach + 1) / refine)))
        size = (last - first) * refine + 2 * reach + 1
        if size <= _LATTICE_MAX or refine == 1:
            break
        refine = max(1, min(refine - 1, refine * _LATTICE_MAX // size))
    if size > _LATTICE_MAX:
        raise GenevarError(
            f"a binned fit needs {size} lattice nodes, more than {_LATTICE_MAX}: "
            "the grid spacing is too fine for the data range")
    step = spacing / refine
    sums = [np.zeros((k, n)) for _, k in weights]
    if first > last:
        return step, sums

    def nodes(lo, hi):
        """(index, right) of x[lo:hi]: the left node's bin and the right
        node's share of each datum.  Lattice nodes run 0..size-1, node 0 at
        point first's window edge; data off the lattice land on the
        discarded nodes -1 and size (and size+1)."""
        right = x[lo:hi] - points[0]
        right /= spacing
        right *= refine
        right -= first * refine - reach
        np.clip(right, -1.0, size, out=right)
        index = np.floor(right)
        right -= index
        index = index.astype(np.intp)
        index += 1
        return index, right

    chunks = [(lo, min(lo + _BIN_ROWS, x.size))
              for lo in range(0, x.size, _BIN_ROWS)]
    whole = nodes(0, x.size) if len(chunks) == 1 else None
    taps = _taps(reach, step, h)
    for (v, k), out in zip(weights, sums):
        # the left shares of every chunk, then the right ones, each in data
        # order: the same additions in the same order as binning all the
        # data at once, so the bins do not depend on _BIN_ROWS
        bins = np.zeros(size + 3)
        for side in (0, 1):
            for lo, hi in chunks:
                index, right = whole or nodes(lo, hi)
                if side == 0:
                    share = np.subtract(1.0, right)
                    if v is not None:
                        share *= v[lo:hi]
                else:
                    share = right if v is None else right * v[lo:hi]
                np.add.at(bins[side:], index, share)
                del index, right, share
        # row r is the window bins[1 + r*refine : 2 + r*refine + 2*reach]
        windows = np.lib.stride_tricks.as_strided(
            bins[1:], shape=(last - first + 1, taps.shape[0]),
            strides=(refine * bins.strides[0], bins.strides[0]),
            writeable=False)
        out[:, first:last + 1] = (windows @ taps[:, :k]).T
        del bins, windows  # one row of bins at a time
    return step, sums


@functools.lru_cache(maxsize=8)
def _taps(reach, step, h):
    """The kernel taps of _lattice_sums, K(u) u^l / h for l = 0, 1, 2 in
    columns at u = r step / h, r = -reach..reach.  Cached, as the fits of a
    simulate run at one bandwidth over one grid all take the same taps, and
    read-only, as those calls share them."""
    u = np.arange(-reach, reach + 1) * (step / h)
    w = tricube(u) / h
    taps = np.stack([w, w * u, w * u * u], axis=1)
    taps.setflags(write=False)
    return taps


def fit_curve(data: ScatterData, config: EstimationConfig) -> VarianceCurve:
    """Local linear fit over the equispaced config.grid from the moments of
    _lattice_sums, with the exact fit where a window holds too few x for
    binning.  Degenerate grid points are flagged (value NaN), never
    interpolated.  See the module docstring for how close the values and
    flags are to the exact pass's.

    A point whose window, shrunk by one lattice step to
    (x0 - h + step, x0 + h - step), holds fewer than _EXACT_BELOW x, or x
    spanning no more than one step, is fitted by the exact pass instead,
    values and degenerate flags both.  Binning cannot resolve x closer than
    a step, and it smears a datum near the window's edge onto an inner
    node, far above its exact weight; in a sparse window that moves the
    fit by up to several sd(z), and it flags points the exact rule
    evaluates or evaluates points it flags.  So the flags are the exact
    pass's wherever such a window decides them, and elsewhere each binned
    point has at least _EXACT_BELOW x spread over more than a step.
    """
    h, points = config.bandwidth, config.grid
    step, (s, t) = _lattice_sums(data.x, h, points, (None, 3), (data.z, 2))
    values, degenerate = _solve(*s, *t)
    xs = np.sort(data.x)
    lo = np.searchsorted(xs, points - (h - step), side="right")
    hi = np.searchsorted(xs, points + (h - step), side="left")
    spread = xs[np.maximum(hi - 1, 0)] - xs[np.minimum(lo, xs.size - 1)]
    sparse = (hi - lo < _EXACT_BELOW) | (spread <= step)
    if sparse.any():
        order = np.argsort(data.x, kind="stable")
        values[sparse], degenerate[sparse] = _exact_fit(
            xs, data.z[order], h, points[sparse])
    flags = np.where(degenerate, FLAG_DEGENERATE, 0).astype(np.uint8)
    return VarianceCurve(grid=points, values=values, flags=flags)


def kde_values(x, config: EstimationConfig, points) -> np.ndarray:
    """Kernel density estimate (1/(n h)) sum K((x_g - x0)/h) at each point,
    with the estimation kernel and config.bandwidth."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise GenevarError("kde needs at least one observation")
    if not np.all(np.isfinite(x)):
        raise NonFinite("kde sample contains non-finite entries")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    h = config.bandwidth
    sums = np.zeros(pts.shape)
    for i, _, u in _windows(np.sort(x), pts, h):
        sums[i] = tricube(u).sum()
    return sums / (x.size * h)


def density_interpolator(sample, config: EstimationConfig):
    """The density of kde_values, binned (Silverman 1982) as S_0 / n at
    _DENSITY_NODES equispaced nodes over the sample and the kernel's reach,
    then interpolated.  S_0 comes from _lattice_sums with unit weights; no
    sparse fallback, as no ratio can go unstable.  At the nodes it is within
    1e-5 max(kde_values) of kde_values on the tested designs.  Returns a
    callable mapping points to density values."""
    sample = np.asarray(sample, dtype=float).ravel()
    lo, hi = sample.min(), sample.max()  # NaN if the sample holds one
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFinite("density sample contains non-finite entries")
    h = config.bandwidth
    grid = np.linspace(lo - h, hi + h, _DENSITY_NODES)
    _, ((s0,),) = _lattice_sums(sample, h, grid, (None, 1))
    dens = s0 / sample.size

    def density(points):
        return np.interp(np.atleast_1d(np.asarray(points, dtype=float)),
                         grid, dens)

    return density
