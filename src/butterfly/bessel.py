"""Bessel functions J_m, Y_m and the first-kind Hankel function H1_m.

Orders 0 and 1 come from Cephes-style rational approximations; higher
orders of H1 = J + iY come from the three-term recurrence run upward.
Below the turning point (x > m) J and Y are both oscillatory and the
recurrence is stable for H1 (Gautschi, SIAM Rev. 9, 1967), which is the
regime of the Hankel-sum operator (x >= n, orders < n); order sweeps
refuse any x at or below their largest order.  Everything is vectorized
over a batch of arguments, and each value depends on its (x, m) alone.
"""

from __future__ import annotations

import numpy as np

_TWO_OVER_PI = 2.0 / np.pi
_PIO4 = np.pi / 4.0
_THPIO4 = 3.0 * np.pi / 4.0
_SQ2OPI = np.sqrt(2.0 / np.pi)

_J0_RP = [-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15]
_J0_RQ = [4.99563147152651017219e2, 1.73785401676374683123e5,
          4.84409658339962045305e7, 1.11855537045356834862e10,
          2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18]
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1

_PP = [7.96936729297347051624e-4, 8.28352392107440799803e-2,
       1.23953371646414299388e0, 5.44725003058768775090e0,
       8.74716500199817011941e0, 5.30324038235394892183e0,
       9.99999999999999997821e-1]
_PQ = [9.24408810558863637013e-4, 8.56288474354474431428e-2,
       1.25352743901058953537e0, 5.47097740330417105182e0,
       8.76190883237069594232e0, 5.30605288235394617618e0,
       1.00000000000000000218e0]
_QP = [-1.13663838898469149931e-2, -1.28252718670509318512e0,
       -1.95539544257735972385e1, -9.32060152123768231369e1,
       -1.77681167980488050595e2, -1.47077505154951170175e2,
       -5.14105326766599330220e1, -6.05014350600728481186e0]
_QQ = [6.43178256118178023184e1, 8.56430025976980587198e2,
       3.88240183605401609683e3, 7.24046774195652478189e3,
       5.93072701187316984827e3, 2.06209331660327847417e3,
       2.42005740240291393179e2]

_Y0_YP = [1.55924367855235737965e4, -1.46639295903971606143e7,
          5.43526477051876500413e9, -9.82136065717911466409e11,
          8.75906394395366999549e13, -3.46628303384729719441e15,
          4.42733268572569800351e16, -1.84950800436986690637e16]
_Y0_YQ = [1.04128353664259848412e3, 6.26107330137134956842e5,
          2.68919633393814121987e8, 8.64002487103935000337e10,
          2.02979612750105546709e13, 3.17157752842975028269e15,
          2.50596256172653059228e17]

_J1_RP = [-8.99971225705559398224e8, 4.52228297998194034323e11,
          -7.27494245221818276015e13, 3.68295732863852883286e15]
_J1_RQ = [6.20836478118054335476e2, 2.56987256757748830383e5,
          8.35146791431949253037e7, 2.21511595479792499675e10,
          4.74914122079991414898e12, 7.84369607876235854894e14,
          8.95222336184627338078e16, 5.32278620332680085395e18]
_Z1 = 1.46819706421238932572e1
_Z2 = 4.92184563216946036703e1

_PP1 = [7.62125616208173112003e-4, 7.31397056940917570436e-2,
        1.12719608129684925192e0, 5.11207951146807644818e0,
        8.42404590141772420927e0, 5.21451598682361504063e0,
        1.00000000000000000254e0]
_PQ1 = [5.71323128072548699714e-4, 6.88455908754495404082e-2,
        1.10514232634061696926e0, 5.07386386128601488557e0,
        8.39985554327604159757e0, 5.20982848682361821619e0,
        9.99999999999999997461e-1]
_QP1 = [5.10862594750176621635e-2, 4.98213872951233449420e0,
        7.58238284132545283818e1, 3.66779609360150777800e2,
        7.10856304998926107277e2, 5.97489612400613639965e2,
        2.11688757100572135698e2, 2.52070205858023719784e1]
_QQ1 = [7.42373277035675149943e1, 1.05644886038262816351e3,
        4.98641058337653607651e3, 9.56231892404756170795e3,
        7.99704160447350683650e3, 2.82619278517639096600e3,
        3.36093607810698293419e2]

_Y1_YP = [1.26320474790178026440e9, -6.47355876379160291031e11,
          1.14509511541823727583e14, -8.12770255501325109621e15,
          2.02439475713594898196e17, -7.78877196265950026825e17]
_Y1_YQ = [5.94301592346128195359e2, 2.35564092943068577943e5,
          7.34811944459721705660e7, 1.87601316108706159478e10,
          3.88231277496238566008e12, 6.20557727146953693363e14,
          6.87141087355300489866e16, 3.97270608116560655612e18]


def _polevl(x, coef):
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x, coef):
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _asymptotic(x, pp, pq, qp, qq, phase):
    w = 5.0 / x
    z = w * w
    p = _polevl(z, pp) / _polevl(z, pq)
    q = _polevl(z, qp) / _p1evl(z, qq)
    xn = x - phase
    return p, q, xn, _SQ2OPI / np.sqrt(x)


def bessel_j0(x):
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x <= 5.0
    if small.any():
        z = x[small] * x[small]
        tiny = x[small] < 1e-5
        val = (z - _DR1) * (z - _DR2) * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
        out[small] = np.where(tiny, 1.0 - z / 4.0, val)
    if (~small).any():
        p, q, xn, amp = _asymptotic(x[~small], _PP, _PQ, _QP, _QQ, _PIO4)
        out[~small] = amp * (p * np.cos(xn) - (5.0 / x[~small]) * q * np.sin(xn))
    return out


def bessel_y0(x):
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("y0 requires x > 0")
    out = np.empty_like(x)
    small = x <= 5.0
    if small.any():
        xs = x[small]
        z = xs * xs
        out[small] = (_polevl(z, _Y0_YP) / _p1evl(z, _Y0_YQ)
                      + _TWO_OVER_PI * np.log(xs) * bessel_j0(xs))
    if (~small).any():
        p, q, xn, amp = _asymptotic(x[~small], _PP, _PQ, _QP, _QQ, _PIO4)
        out[~small] = amp * (p * np.sin(xn) + (5.0 / x[~small]) * q * np.cos(xn))
    return out


def bessel_j1(x):
    x = np.asarray(x, dtype=float)
    sign = np.sign(x)
    x = np.abs(x)
    out = np.empty_like(x)
    small = x <= 5.0
    if small.any():
        z = x[small] * x[small]
        out[small] = (x[small] * (z - _Z1) * (z - _Z2)
                      * _polevl(z, _J1_RP) / _p1evl(z, _J1_RQ))
    if (~small).any():
        p, q, xn, amp = _asymptotic(x[~small], _PP1, _PQ1, _QP1, _QQ1, _THPIO4)
        out[~small] = amp * (p * np.cos(xn) - (5.0 / x[~small]) * q * np.sin(xn))
    return sign * out


def bessel_y1(x):
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("y1 requires x > 0")
    out = np.empty_like(x)
    small = x <= 5.0
    if small.any():
        xs = x[small]
        z = xs * xs
        out[small] = (xs * _polevl(z, _Y1_YP) / _p1evl(z, _Y1_YQ)
                      + _TWO_OVER_PI * (bessel_j1(xs) * np.log(xs) - 1.0 / xs))
    if (~small).any():
        p, q, xn, amp = _asymptotic(x[~small], _PP1, _PQ1, _QP1, _QQ1, _THPIO4)
        out[~small] = amp * (p * np.sin(xn) + (5.0 / x[~small]) * q * np.cos(xn))
    return out


def bessel_jy_sweep(x, max_order: int):
    """All orders 0..max_order of J and Y at each point of ``x``: the real
    and imaginary parts of :func:`hankel1_orders`."""
    h = hankel1_orders(x, np.arange(max_order + 1))
    return h.real, h.imag


def hankel1_orders(x, orders) -> np.ndarray:
    """H1_m(x) for each m in ``orders`` (any order, repeats allowed), shape
    (len(x), len(orders)).

    Runs h[m+1] = (2m/x) h[m] - h[m-1] upward from the order-0/1 seeds to
    the largest requested order, holding two orders besides the output, so
    a call takes the memory of its output.  The recurrence is stable only
    below the turning point: every x must exceed every order.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    orders = np.atleast_1d(np.asarray(orders, dtype=np.intp))
    top = int(orders.max(initial=0))
    if orders.min(initial=0) < 0 or (x <= top).any():
        raise ValueError(f"upward recurrence to order {top} requires "
                         f"orders >= 0 and x > {top}")
    out = np.empty((x.shape[0], orders.shape[0]), dtype=np.complex128)
    slots = [[] for _ in range(top + 1)]  # output columns of each order
    for k, m in enumerate(orders.tolist()):
        slots[m].append(k)
    h = bessel_j0(x) + 1j * bessel_y0(x)  # h holds order m, after m + 1
    after = bessel_j1(x) + 1j * bessel_y1(x)
    # the real coefficient is held complex so a step is two plain ufunc calls
    coef, step = np.zeros_like(h), np.empty_like(h)
    for m in range(top + 1):
        for k in slots[m]:
            out[:, k] = h
        np.divide(2.0 * (m + 1), x, out=coef.real)
        np.multiply(coef, after, out=step)
        np.subtract(step, h, out=step)
        h, after, step = after, step, h
    return out
