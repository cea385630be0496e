"""Normal, Student t, chi-square and noncentral-t tail probabilities.

The p-values and power functions behind `validate` and `select`, in numpy
and the standard library only:

    normal_sf       P(Z > x), elementwise, from math.erfc
    normal_critical c with P(|Z| > c) = alpha
    t_two_sided     P(|T| > |t|) for T ~ t_df, elementwise
    t_critical      c with P(|T| > c) = alpha
    chi2_sf         P(X > x) for X ~ chi2_df, one value
    t_power         P(|T'| > c_alpha) for T' noncentral t, per alpha and ncp

The t tail is the regularized incomplete beta function,
P(|T| > |t|) = I_y(df/2, 1/2) with y = df/(df + t^2), summed by its power
series on whichever side of (a + 1)/(a + b + 2) it converges fast.  The
chi-square tail is Q(df/2, x/2), by its series below x/2 = df/2 + 1 and by
a continued fraction above.  The noncentral-t power is the Poisson mixture
of the noncentral F(1, df) (Lenth 1989, AS 243).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_TINY = 1e-17  # terms below this (relative to a sum of order one) stop a series
_SQRT1_2 = math.sqrt(0.5)


def normal_sf(x):
    """P(Z > x) for standard normal Z, elementwise, as 0.5 erfc(x/sqrt 2)."""
    u = np.asarray(x, dtype=float) * _SQRT1_2
    out = np.fromiter(map(math.erfc, u.ravel().tolist()), dtype=float,
                      count=u.size)
    return 0.5 * out.reshape(u.shape)


def normal_critical(alpha: float) -> float:
    """The two-sided normal critical value: P(|Z| > c) = alpha.  The lower
    quantile is taken, since rounding 1 - alpha/2 would cost digits."""
    return -NormalDist().inv_cdf(alpha / 2.0)


def _log_beta(a, b):
    """log B(a, b).  For a large, lgamma(a) - lgamma(a + b) goes through
    Stirling's series, since the two lgammas would cancel."""
    a, b = max(a, b), min(a, b)
    if a <= 15.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(b) + b - b * math.log(a + b)
            - (a - 0.5) * math.log1p(b / a)
            + _stirling_error(a) - _stirling_error(a + b))


def _beta_series(x, xc, a, b):
    """I_x(a, b) with xc = 1 - x, elementwise, by the power series

        I_x(a, b) = x^a xc^b / (a B(a, b)) sum_k (a+b)_k / (a+1)_k x^k.

    The term ratio x (a+b+k)/(a+1+k) moves monotonically from its value at
    k = 0 towards x, so the larger of the two bounds it; where x <= (a + 1)/
    (a + b + 2) that bound is below one and sets the number of terms."""
    bound = float(np.nanmax(x, initial=0.0)) * max((a + b) / (a + 1.0), 1.0)
    n_terms = math.ceil(math.log(_TINY) / math.log(bound)) if bound > 0 else 0
    term = total = 1.0
    for k in range(n_terms):
        term *= x
        term *= (a + b + k) / (a + 1.0 + k)
        total += term
        # the bound is loose where total has grown: look every 16 terms
        if k % 16 == 15 and not np.any(term > _TINY * total):
            break
    with np.errstate(divide="ignore"):  # x or xc = 0
        log_front = a * np.log(x) + b * np.log(xc)
    return np.exp(log_front - (math.log(a) + _log_beta(a, b))) * total


def t_two_sided(t, df):
    """P(|T| > |t|) for T ~ Student t with df degrees of freedom,
    elementwise: I_y(df/2, 1/2) with y = df/(df + t^2)."""
    t2 = np.square(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore"):  # t = 0
        y = 1.0 / (1.0 + t2 / df)
        x = 1.0 / (1.0 + df / t2)  # 1 - y without cancellation
    a = 0.5 * df
    direct = y <= (a + 1.0) / (a + 2.5)
    p = np.empty_like(y)
    p[direct] = _beta_series(y[direct], x[direct], a, 0.5)
    p[~direct] = 1.0 - _beta_series(x[~direct], y[~direct], 0.5, a)
    return p


def _t_density(t: float, df) -> float:
    return math.exp(math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi)
                    - 0.5 * (df + 1) * math.log1p(t * t / df))


def t_critical(alpha: float, df) -> float:
    """The two-sided t critical value: P(|T| > c) = alpha, by Newton steps
    on log P(|T| > c) from the normal critical value, kept inside the
    bracket that the evaluated points establish (bisecting otherwise)."""
    lo, hi = 0.0, math.inf
    c = normal_critical(alpha)
    for _ in range(200):
        p = float(t_two_sided(c, df))
        step = (math.log(p) - math.log(alpha)) * p / (2.0 * _t_density(c, df))
        # near the root the sign of p - alpha is rounding, so a small step
        # is taken before it can move the bracket
        if abs(step) <= 1e-14 * c:
            break
        if p > alpha:
            lo = c
        else:
            hi = c
        if lo < c + step < hi:
            c += step
        else:
            c = 0.5 * (lo + hi) if hi < math.inf else 2.0 * c
    return c + step


def _stirling_error(a: float) -> float:
    """lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2)."""
    if a <= 15.0:
        return (math.lgamma(a) - (a - 0.5) * math.log(a) + a
                - 0.5 * math.log(2.0 * math.pi))
    inv, inv2 = 1.0 / a, 1.0 / (a * a)
    return inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (
        1 / 1680 - inv2 * (1 / 1188 - inv2 * 691 / 360360)))))


def _gamma_front(a: float, z: float) -> float:
    """z^a e^(-z) / Gamma(a), as sqrt(a / 2 pi) exp(-stirling_error(a) - bd0)
    with bd0 = z - a - a log(z/a): this keeps the two large terms
    a log z and lgamma(a) from cancelling when a is large."""
    d = (z - a) / a
    bd0 = a * (d - (math.log1p(d) if abs(d) < 0.5 else math.log(z / a)))
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(-_stirling_error(a) - bd0)


def chi2_sf(x: float, df) -> float:
    """P(X > x) for X ~ chi-square with df degrees of freedom: the
    regularized upper incomplete gamma function Q(df/2, x/2)."""
    a, z = 0.5 * df, 0.5 * x
    if math.isnan(z):
        return math.nan
    if z <= 0.0:
        return 1.0
    if math.isinf(z):
        return 0.0
    front = _gamma_front(a, z)
    if z < a + 1.0:
        # P(a, z) = front / a * sum_k z^k / ((a+1) ... (a+k))
        term = total = 1.0
        k = 1
        while term > _TINY * total:
            term *= z / (a + k)
            total += term
            k += 1
        return 1.0 - front / a * total
    # Q(a, z) = front * 1/(z+1-a- 1(1-a)/(z+3-a- 2(2-a)/(z+5-a- ...))),
    # evaluated by the modified Lentz method
    b = z + 1.0 - a
    c = 1.0 / 1e-300
    d = 1.0 / b
    h = d
    k = 1
    while True:
        an = -k * (k - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = b + an / c
        if abs(c) < 1e-300:
            c = 1e-300
        delta = d * c
        h *= delta
        k += 1
        if abs(delta - 1.0) <= 1e-15:
            return front * h


def _poisson_weights(j: int, lam):
    """Pois(j; lam), elementwise in lam.  For j >= 1 it is formed as
    exp(-stirling_error(j) - bd0) / sqrt(2 pi j) with bd0 = j (d - log1p d)
    and d = lam/j - 1 (Loader 2000): j log lam, lam and lgamma(j + 1) are
    each far larger than their sum, which this form never rounds."""
    if j == 0:
        return np.exp(-lam)
    out = lam * (1.0 / j) - 1.0
    with np.errstate(divide="ignore"):  # lam = 0
        out -= np.log1p(out)
    out *= -j
    out -= _stirling_error(j) + 0.5 * math.log(2.0 * math.pi * j)
    # a weight below e^-700 adds nothing, and exp is slow on the subnormal
    # results below e^-708
    np.maximum(out, -700.0, out=out)
    return np.exp(out, out=out)


# Pois(j; lam) <= exp(-(sqrt(lam) - sqrt(j))^2), below 1e-30 for lam outside
# (sqrt(j) -+ _WINDOW)^2: the weights skipped there add less than 1e-17 to
# any power unless the sum runs past 1e13 terms
_WINDOW = math.sqrt(30.0 * math.log(10.0))


def t_power(ncp, df, alphas):
    """P(|T'| > c) for the two-sided t-test at each level in alphas, where
    T' is noncentral t with df degrees of freedom and noncentrality ncp
    (elementwise) and c = t_critical(alpha, df).  Returns an array of shape
    (len(alphas), len(ncp)).

    |T'|^2 is noncentral F(1, df) with lambda = ncp^2/2, so

        P(|T'| <= c) = sum_j Pois(j; lambda) I_j,  I_j = I_x(j + 1/2, df/2),

    with x = c^2/(c^2 + df) (Lenth 1989, AS 243).  The I_j are shared by
    every ncp: I_0 = 1 - P(|T| > c) and I_{j+1} = I_j - g_j, summed with
    compensation, where g_0 = x^(1/2) (1-x)^(df/2) / (B(1/2, df/2)/2) and
    g_{j+1} = g_j x (j + 1/2 + df/2)/(j + 3/2).  The sum stops once every
    I_j is below 1e-17 or j has passed every lambda's window.  Term j
    weighs only the lambdas within _WINDOW of it on the square-root scale,
    a contiguous run once lambda is sorted, so each term costs as many
    genes as have their Poisson mass there.  No weight is carried from
    j = 0, where exp(-lambda) underflows above lambda = 745.
    """
    lam = 0.5 * np.square(np.asarray(ncp, dtype=float))
    order = np.argsort(lam)
    lam = lam[order]
    crit = np.array([t_critical(alpha, df) for alpha in alphas])
    c2 = crit ** 2
    x = c2 / (c2 + df)
    level = 1.0 - t_two_sided(crit, df)
    lost = np.zeros_like(level)
    step = np.exp(0.5 * np.log(x) + 0.5 * df * np.log(df / (c2 + df))
                  - _log_beta(0.5, 0.5 * df) + math.log(2.0))
    shortfall = np.zeros((len(alphas), lam.size))
    j = 0
    while True:
        root = math.sqrt(j)
        lo = np.searchsorted(lam, max(root - _WINDOW, 0.0) ** 2)
        hi = np.searchsorted(lam, (root + _WINDOW) ** 2, side="right")
        if lo == lam.size:
            break
        shortfall[:, lo:hi] += level[:, None] * _poisson_weights(j, lam[lo:hi])
        # Kahan: level -= step, with the rounding carried in lost
        diff = -step - lost
        new = level + diff
        lost = (new - level) - diff
        level = new
        ratio = x * ((j + 0.5 + 0.5 * df) / (j + 1.5))
        step *= ratio
        j += 1
        # I_j is the sum of g_k over k >= j, whose ratios fall towards x
        # from above (df >= 2) or rise towards it from below (df < 2): the
        # bound below, not the rounding left in level, ends the sequence
        r = np.maximum(ratio, x)
        level[(level < _TINY) | ((r < 1.0) & (step < _TINY * (1.0 - r)))] = 0.0
        if not level.any():
            break
    power = np.empty_like(shortfall)
    power[:, order] = 1.0 - shortfall
    return power
