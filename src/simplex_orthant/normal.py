"""Special functions of the standard normal distribution, on math and numpy alone.

The quadrature rests on three functions: log Phi (`log_ndtr`), the scaled
complementary error function erfcx(t) = exp(t^2) erfc(t) (`erfcx`), and the
inverse of log Phi (`ndtri_exp`).  Each has an array form (`*_array`) on
numpy, behind every public function below and the two tables `orthant`
caches, the Steck lattice and the density rule's nodes; an element's value
never depends on the rest of its array.  Scalar forms on `math` serve
Steck's per-call peak alone: `pdf_cdf_ratio` (phi/Phi) for its Newton
search, and `log_ndtr` and what it calls for the peak's value and span.

* erfcx(t) is exp(t^2) erfc(t) below t = 10, with t^2 split exactly into two
  doubles (Dekker's product): exp(fl(t^2)) alone loses about t^2 ulp.  From
  t = 10 on it is the asymptotic series
  t sqrt(pi) erfcx(t) = sum_k (-1)^k (2k-1)!! / (2 t^2)^k
  to 14 terms, whose first omitted term is below 1.3e-18 there.
* Phi(-a) for a >= 0 is erfc(t)/2 at t = fl(a/sqrt 2), times
  1 - 2t(a/sqrt 2 - t): the first-order factor exp(t^2 - a^2/2) for t's
  rounding error, which Dekker's product and the low half of 1/sqrt 2 give
  exactly.  erfc(fl(a/sqrt 2)) alone would be up to about a^2 ulp off.
* log Phi(x) is log1p(-Phi(-x)) for x > 0, and the log of Phi(x) as above
  down to x = -10 sqrt 2; below, where erfc nears underflow, it is
  log(erfcx(-x/sqrt 2)/2) - x^2/2 with x^2 split as above.  No branch
  subtracts large terms.
* phi/Phi(x) is exp(-x^2/2) / (sqrt(pi/2) erfc(-x/sqrt 2)) for x > 0, where
  erfc's value lies in (1, 2), and 1/(sqrt(pi/2) erfcx(-x/sqrt 2)) below.
* ndtri_exp(y) takes Newton steps on log Phi, from 0 where y > -2 and from
  the asymptote -sqrt(u - log(2 pi u)), u = -2y, below.  log Phi is concave,
  so after the first step they approach the root from below.  Above log(1/2)
  it is -ndtri_exp(log(-expm1(y))).

The public functions take floats or arrays (a float gives a float, an array
an array of its shape; one float costs numpy's per-call overhead, about
0.5 ms for a quantile) and are pure, so they are safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI

_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)  # Phi(q)/phi(q) = sqrt(pi/2) erfcx(-q/sqrt 2)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi
_LOG_HALF = math.log(0.5)
_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two halves of 26 bits
_SERIES_FROM = 10.0
# (-1)^k (2k-1)!! for k = 13 down to 0, Horner's order
_SERIES = tuple(float((-1) ** k * math.prod(range(1, 2 * k, 2))) for k in reversed(range(14)))
NEWTON_STEPS = 50


def _square(x: float) -> tuple[float, float]:
    """(hi, lo) with hi + lo = x^2 exactly (Dekker's product); lo = 0 past |x| = 1e150."""
    hi = x * x
    if not abs(x) < 1e150:
        return hi, 0.0
    c = _SPLIT * x
    head = c - (c - x)
    tail = x - head
    return hi, ((head * head - hi) + 2.0 * head * tail) + tail * tail


# Dekker's halves of _SQRT_HALF, and the low half: 1/sqrt(2) - _SQRT_HALF to
# within 1e-33, one Newton step on c^2 = 1/2 from c = _SQRT_HALF
_SQRT_HALF_HEAD = _SPLIT * _SQRT_HALF - (_SPLIT * _SQRT_HALF - _SQRT_HALF)
_SQRT_HALF_TAIL = _SQRT_HALF - _SQRT_HALF_HEAD
_SQRT_HALF_LO = ((0.5 - _square(_SQRT_HALF)[0]) - _square(_SQRT_HALF)[1]) / (2.0 * _SQRT_HALF)


def erfcx(t: float) -> float:
    """exp(t^2) erfc(t) for a float t; below t = -26.6 math.exp raises OverflowError."""
    if t < _SERIES_FROM:
        hi, lo = _square(t)
        scaled = math.exp(hi) * math.erfc(t)
        return scaled + scaled * lo
    u = 0.5 / (t * t)
    acc = 0.0
    for c in _SERIES:
        acc = acc * u + c
    return acc * _INV_SQRT_PI / t


def _lower_tail(a: float) -> float:
    """Phi(-a) for a float a >= 0."""
    t = a * _SQRT_HALF
    half = 0.5 * math.erfc(t)
    if not half:
        return half
    c = _SPLIT * a
    head = c - (c - a)
    tail = a - head
    # a/sqrt(2) - t: the rounding error of a * _SQRT_HALF, then a times the low half
    gap = (((head * _SQRT_HALF_HEAD - t) + head * _SQRT_HALF_TAIL + tail * _SQRT_HALF_HEAD)
           + tail * _SQRT_HALF_TAIL + a * _SQRT_HALF_LO)
    return half - half * (2.0 * t * gap)


def log_ndtr(x: float) -> float:
    """log Phi(x) for a float x, to a few ulp in both tails."""
    if x > 0.0:
        return math.log1p(-_lower_tail(x))
    t = -x * _SQRT_HALF
    if t < _SERIES_FROM:
        return math.log(_lower_tail(-x))
    if t == math.inf:
        return -t
    hi, lo = _square(x)
    return (math.log(0.5 * erfcx(t)) - 0.5 * lo) - 0.5 * hi


def pdf_cdf_ratio(x: float) -> float:
    """phi(x)/Phi(x) for a float x; above 0, exp(-x^2/2) carries fl(x^2)'s rounding."""
    if x > 0.0:
        return math.exp(-0.5 * x * x) / (_SQRT_HALF_PI * math.erfc(-x * _SQRT_HALF))
    return 1.0 / (_SQRT_HALF_PI * erfcx(-x * _SQRT_HALF))


def _split_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each |x| < 1e300 into halves of 26 bits."""
    c = _SPLIT * x
    head = c - (c - x)
    return head, x - head


def _square_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_square on a float array of |x| < 1e150."""
    head, tail = _split_array(x)
    hi = x * x
    return hi, ((head * head - hi) + 2.0 * head * tail) + tail * tail


_erfc_ufunc = np.frompyfunc(math.erfc, 1, 1)


def erfcx_array(t: np.ndarray) -> np.ndarray:
    """erfcx on a float array of t >= 0, element by element."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    near = t < _SERIES_FROM
    a = t[near]
    hi, lo = _square_array(a)
    scaled = np.exp(hi) * _erfc_ufunc(a).astype(float)
    out[near] = scaled + scaled * lo
    far = t[~near]
    u = 0.5 / (far * far)
    acc = np.zeros_like(far)
    for c in _SERIES:
        acc = acc * u + c
    out[~near] = acc * _INV_SQRT_PI / far
    return out


def _lower_tail_array(a: np.ndarray) -> np.ndarray:
    """_lower_tail on a float array of a >= 0, inf included."""
    a = np.minimum(a, 40.0)  # Phi(-a) is 0 before a = 40, so the clip moves no value; inf -> 0
    t = a * _SQRT_HALF
    half = 0.5 * _erfc_ufunc(t).astype(float)
    head, tail = _split_array(a)
    gap = (((head * _SQRT_HALF_HEAD - t) + head * _SQRT_HALF_TAIL + tail * _SQRT_HALF_HEAD)
           + tail * _SQRT_HALF_TAIL + a * _SQRT_HALF_LO)
    return half - half * (2.0 * t * gap)


def log_ndtr_array(x: np.ndarray) -> np.ndarray:
    """log_ndtr on a float array, element by element, inf included."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    right = x > 0.0
    out[right] = np.log1p(-_lower_tail_array(x[right]))
    t = -x * _SQRT_HALF
    near = ~right & (t < _SERIES_FROM)
    out[near] = np.log(_lower_tail_array(-x[near]))
    far = x < -1e150  # -x^2/2 to the last bit, as log_ndtr gives it, and -inf at -inf
    with np.errstate(over="ignore"):  # x^2 overflows to inf past |x| = 1.3e154
        out[far] = -0.5 * (x[far] * x[far])
    deep = ~(right | near | far)
    hi, lo = _square_array(x[deep])
    out[deep] = (np.log(0.5 * erfcx_array(t[deep])) - 0.5 * lo) - 0.5 * hi
    return out


def ndtri_exp_array(y: np.ndarray) -> np.ndarray:
    """ndtri_exp on a 1-d float array of finite y < 0, each element to its own convergence."""
    y = np.asarray(y, dtype=float)
    upper = y > _LOG_HALF
    target = np.where(upper, np.log(-np.expm1(y)), y)
    q = np.zeros_like(target)
    deep = target <= -2.0
    u = -2.0 * target[deep]
    q[deep] = -np.sqrt(u - np.log(_TWO_PI * u))
    active = np.arange(q.size)
    for _ in range(NEWTON_STEPS):
        last = q[active]
        step = ((log_ndtr_array(last) - target[active]) * _SQRT_HALF_PI
                * erfcx_array(-last * _SQRT_HALF))
        q[active] = last - step
        active = active[~(np.abs(step) <= 1e-15 * np.maximum(1.0, -last))]
        if not active.size:
            return np.where(upper, -q, q)
    raise ArithmeticError(f"ndtri_exp did not converge in {NEWTON_STEPS} Newton steps "
                          f"at y={y.flat[active[0]]!r}")


def _ndtri_array(p: np.ndarray) -> np.ndarray:
    """Phi^{-1}(p) on a 1-d float array of 0 < p < 1."""
    lower = p <= 0.5
    q = ndtri_exp_array(np.where(lower, np.log(p), np.log1p(-p)))
    return np.where(lower, q, -q)


def _shaped(kernel, x):
    """kernel on x as a flat float array: a float for a float, else an array of x's shape."""
    x = np.asarray(x, dtype=float)
    out = kernel(x.ravel()).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def std_normal_pdf(x):
    """Density of N(0,1): (2*pi)^(-1/2) exp(-x^2/2)."""
    with np.errstate(over="ignore"):  # x^2 overflows past |x| = 1.3e154, where phi is 0
        return _shaped(lambda x: INV_SQRT_2PI * np.exp(-0.5 * x * x), x)


def std_normal_cdf(x):
    """P(Z <= x) for Z ~ N(0,1)."""
    def cdf(x):
        tail = _lower_tail_array(np.abs(x))
        return np.where(x > 0.0, 1.0 - tail, tail)
    return _shaped(cdf, x)


def log_std_normal_cdf(x):
    """log P(Z <= x), accurate in the deep left tail where the cdf underflows."""
    return _shaped(log_ndtr_array, x)


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0,1).

    Raises ValueError outside the open interval; the boundary values have no
    finite preimage.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 < p) & (p < 1.0)):
        raise ValueError("quantile requires 0 < p < 1")
    return _shaped(_ndtri_array, p)


def std_normal_quantile_from_log(log_p):
    """Inverse of log_std_normal_cdf for log-probabilities in (-inf, 0).

    Keeping the probability in log form preserves relative accuracy in both
    tails, so this round-trips with log_std_normal_cdf to ~1e-15 across
    |x| <= 6 where the plain float representation of p near 1 cannot.
    """
    log_p = np.asarray(log_p, dtype=float)
    if not np.all(np.isfinite(log_p) & (log_p < 0.0)):
        raise ValueError("quantile requires a finite log-probability < 0")
    return _shaped(ndtri_exp_array, log_p)


def gordon_upper_mills(x):
    """Gordon's tail bound phi(x)/x, strictly above 1 - Phi(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("gordon_upper_mills requires x > 0")
    return _shaped(lambda x: std_normal_pdf(x) / x, x)


def birnbaum_lower_mills(x):
    """Birnbaum's tail bound 2*phi(x)/(sqrt(4+x^2)+x), strictly below 1 - Phi(x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("birnbaum_lower_mills requires x >= 0")
    with np.errstate(over="ignore"):  # 0 / inf past x = 1.3e154
        return _shaped(lambda x: 2.0 * std_normal_pdf(x) / (np.sqrt(4.0 + x * x) + x), x)


def pdf_of_quantile(u):
    """phi(Phi^{-1}(u)) on (0,1), extended by continuity to 0 at the endpoints.

    This is the concave "Gaussian isoperimetric" profile; it dominates
    min(u, 1-u) * sqrt(2/pi).
    """
    u = np.asarray(u, dtype=float)
    if not np.all((0.0 <= u) & (u <= 1.0)):
        raise ValueError("pdf_of_quantile requires u in [0, 1]")

    def profile(u):
        inner = (0.0 < u) & (u < 1.0)  # the endpoints' quantiles are infinite
        return np.where(inner, std_normal_pdf(_ndtri_array(np.where(inner, u, 0.5))), 0.0)
    return _shaped(profile, u)
