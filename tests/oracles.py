"""Independent numerical oracles used to validate the library's closed forms.

Everything here is implemented from scratch on top of numpy, deliberately
avoiding the code paths under test: matrix exponentials via a separately
written scaling-and-squaring Taylor sum (in floating point, and in 50-digit
``decimal`` arithmetic) and via numpy's eigendecomposition, integrals via
adaptive Simpson quadrature, and derivatives via central differences.
"""

from __future__ import annotations

import decimal

import numpy as np


def expm_taylor(matrix: np.ndarray, tol: float = 1e-16, max_terms: int = 120) -> np.ndarray:
    """exp(matrix) by scaling-and-squaring with a straight Taylor sum.

    Scales by powers of two until the Frobenius norm is below 1/4, sums the
    series to relative tolerance ``tol``, then squares back up.
    """
    a = np.asarray(matrix, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = 0
    while norm > 0.25:
        norm /= 2.0
        squarings += 1
    scaled = a / (2.0**squarings)
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, max_terms):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term) <= tol * np.linalg.norm(result):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def expm_decimal(matrix, digits: int = 50, time=1) -> list[list[decimal.Decimal]]:
    """exp(matrix * time) of a real square matrix at ``digits`` significant digits.

    The float entries are converted exactly and multiplied by ``time`` (a
    number or a ``Decimal``, also converted exactly), scaled by a power of
    two until the infinity norm is at most 1/2, summed as a Taylor series
    until a term falls below 10^-(digits+5) of the sum, and squared back up.
    Every step runs in ``decimal`` arithmetic, so the result has no float
    round-off.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        scale = decimal.Decimal(time)
        a = [[decimal.Decimal(float(x)) * scale for x in row] for row in np.asarray(matrix, dtype=float)]
        dim = len(a)
        norm = max(sum(abs(x) for x in row) for row in a)
        squarings = 0
        while norm > decimal.Decimal("0.5"):
            norm /= 2
            squarings += 1
        scale = decimal.Decimal(2) ** squarings
        a = [[x / scale for x in row] for row in a]

        def matmul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]

        result = [[decimal.Decimal(int(i == j)) for j in range(dim)] for i in range(dim)]
        term = [row[:] for row in result]
        tiny = decimal.Decimal(10) ** -(digits + 5)
        k = 0
        while True:
            k += 1
            term = [[x / k for x in row] for row in matmul(term, a)]
            result = [[r + t for r, t in zip(rrow, trow)] for rrow, trow in zip(result, term)]
            if max(abs(x) for row in term for x in row) <= tiny:
                break
        for _ in range(squarings):
            result = matmul(result, result)
        return [[+x for x in row] for row in result]


def expm_eig(matrix: np.ndarray) -> np.ndarray:
    """exp(matrix) through numpy's dense eigendecomposition.

    Accurate only for well-conditioned eigenbases; use ``expm_taylor`` near
    degeneracies.
    """
    values, vectors = np.linalg.eig(np.asarray(matrix, dtype=complex))
    return vectors @ np.diag(np.exp(values)) @ np.linalg.inv(vectors)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 40) -> float:
    """Integral of f over [a, b] by recursive adaptive Simpson quadrature."""

    def _simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def _recurse(x0, x2, f0, f1, f2, whole, tol_here, depth):
        x1 = 0.5 * (x0 + x2)
        left_mid = 0.5 * (x0 + x1)
        right_mid = 0.5 * (x1 + x2)
        f_lm = f(left_mid)
        f_rm = f(right_mid)
        left = _simpson(x0, x1, f0, f_lm, f1)
        right = _simpson(x1, x2, f1, f_rm, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol_here:
            return left + right + (left + right - whole) / 15.0
        return _recurse(x0, x1, f0, f_lm, f1, left, tol_here / 2.0, depth + 1) + _recurse(
            x1, x2, f1, f_rm, f2, right, tol_here / 2.0, depth + 1
        )

    a = float(a)
    b = float(b)
    f_a, f_m, f_b = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(a, b, f_a, f_m, f_b)
    return _recurse(a, b, f_a, f_m, f_b, whole, float(tol), 0)


def central_difference(f, x: float, h: float) -> float:
    """Symmetric difference quotient (f(x+h) - f(x-h)) / (2h)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def inverse_log_survival_derivatives(matrix, t: float, h: float, digits: int = 50) -> tuple[float, float]:
    """dt/dy and d2t/dy2 of the inverse of y(t) = log P0(t), P0 = |exp(-M t) e_1|^2.

    y is evaluated at t - h, t and t + h in ``digits``-digit decimal
    arithmetic (``expm_decimal``, the times exact), and its derivatives come
    from central differences, y' = (y(t+h) - y(t-h))/(2h) and
    y'' = (y(t+h) - 2 y(t) + y(t-h))/h^2, with errors of order h^2 and no
    float round-off.  Returns (1/y', -y''/y'^3).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        t_dec, h_dec = decimal.Decimal(float(t)), decimal.Decimal(float(h))
        logs = []
        for time in (t_dec - h_dec, t_dec, t_dec + h_dec):
            column = [row[1] for row in expm_decimal(-np.asarray(matrix, dtype=float), digits, time)]
            logs.append(sum(x * x for x in column).ln())
        slope = (logs[2] - logs[0]) / (2 * h_dec)
        curve = (logs[2] - 2 * logs[1] + logs[0]) / (h_dec * h_dec)
        return float(1 / slope), float(-curve / slope**3)
