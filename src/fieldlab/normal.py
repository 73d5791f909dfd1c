"""The standard normal distribution function Phi and its inverse.

ndtr and ndtri are vectorized ports of Moshier's Cephes ndtr, erf, erfc and
ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
1989), the algorithms that scipy.special compiles, with their published
coefficient tables.  Each result equals scipy.special's bit for bit: the
port runs the same IEEE double operations in the same order.  Every
polynomial is evaluated by Horner's rule in separate float64 multiplies and
adds, and every exp and log goes through math, the C library that compiled
code calls, and only over the elements of its branch: numpy's SIMD exp and
log differ from the C library in the last bit of some arguments.

NaN in gives NaN out.  A call costs about 0.1 ms however few its values,
so callers transform a batch at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(2^1024): exp(-z^2) underflows past it
_EXP_M2 = 1.3533528323661269189e-1  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# erfc(x) = exp(-x^2) P(x)/Q(x) on 1 <= x < 8, R(x)/S(x) from 8 on
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675687e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2)/U(x^2) on |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: y + y y^2 P0(y^2)/Q0(y^2) about 1/2 on exp(-2) < y < 1 - exp(-2);
# below, with x = sqrt(-2 log y), x - log(x)/x minus z P(z)/Q(z) at z = 1/x:
# P1/Q1 while x < 8, P2/Q2 from 8 on
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes polevl: sum of coef[i] x^(N - i) by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes p1evl: polevl with a leading coefficient 1 left out of coef."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.exp or math.log) of each element, from the C library."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def _erf_poly(x: np.ndarray) -> np.ndarray:
    """Cephes erf on |x| <= 1, where it is x T(x^2)/U(x^2)."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_pos(a: np.ndarray) -> np.ndarray:
    """Cephes erfc on a >= 1/sqrt(2): 1 - erf(a) below 1, 0 once exp(-a^2)
    underflows."""
    y = np.zeros(a.shape)
    near = a < 1.0
    y[near] = 1.0 - _erf_poly(a[near])
    with np.errstate(over="ignore"):  # a^2 = inf is past the cut as well
        far = ~near & (-a * a >= -_MAXLOG)
    x = a[far]
    z = _libm(math.exp, -x * x)
    mid = x < 8.0
    p = np.where(mid, _polevl(x, _P), _polevl(x, _R))
    q = np.where(mid, _p1evl(x, _Q), _p1evl(x, _S))
    y[far] = z * p / q
    return y


def ndtr(a):
    """Phi(a), the standard normal distribution function (Cephes ndtr)."""
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.shape, np.nan)
    near = z < _SQRT1_2
    y[near] = 0.5 + 0.5 * _erf_poly(x[near])
    far = z >= _SQRT1_2
    tail = 0.5 * _erfc_pos(z[far])
    y[far] = np.where(x[far] > 0, 1.0 - tail, tail)
    return y[()]


def ndtri(y0):
    """Phi^-1(y0), the standard normal quantile (Cephes ndtri): -inf at 0,
    inf at 1, NaN outside [0, 1]."""
    y0 = np.asarray(y0, dtype=np.float64)
    x = np.full(y0.shape, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    inside = (y0 > 0.0) & (y0 < 1.0)
    y = y0[inside]
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty(y.shape)

    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI

    tail = ~centre
    t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = t - _libm(math.log, t) / t
    z = 1.0 / t
    small = t < 8.0
    x1 = np.where(small, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    t = x0 - x1
    out[tail] = np.where(upper[tail], t, -t)
    x[inside] = out
    return x[()]
