"""Independent numerical oracles used to validate the library's closed forms.

Everything here is implemented from scratch on top of numpy, deliberately
avoiding the code paths under test: matrix exponentials via a separately
written scaling-and-squaring Taylor sum (in floating point, and in 50-digit
``decimal`` arithmetic), integrals via adaptive Simpson quadrature,
derivatives via central differences, and the emission budget from a Lindblad
master equation built from the Hamiltonian and the jump operators rather
than from the no-click generator.
"""

from __future__ import annotations

import decimal
from typing import NamedTuple

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


# Levels of the Lindblad model: the photon |100>, atom a |010>, atom b
# |001>, and the ground state |000> three times over, labelled by the channel
# that reached it (mirrors, atom a, atom b).
_PHOTON, _ATOM_A, _ATOM_B, _VIA_CAVITY, _VIA_A, _VIA_B = range(6)


def _liouvillian_parts() -> tuple[np.ndarray, ...]:
    """(C_a, C_b, D_cav, D_atoms): L = -i (g_a C_a + g_b C_b) + 2 kappa D_cav + 2 gamma D_atoms.

    On column-stacked vec(rho), where vec(A rho B) = kron(B^T, A) vec(rho):
    C_k is the commutator with the Jaynes-Cummings hop |photon><k| + h.c.,
    and D is the dissipator of a jump operator sqrt(r) |ground><excited|
    over its rate r (every operator here is real).
    """
    ket, eye = np.eye(6), np.eye(6)

    def commutator(level):
        hop = np.outer(ket[_PHOTON], ket[level]) + np.outer(ket[level], ket[_PHOTON])
        return np.kron(eye, hop) - np.kron(hop.T, eye)

    def dissipator(ground, excited):
        jump, number = np.outer(ket[ground], ket[excited]), np.outer(ket[excited], ket[excited])
        return np.kron(jump, jump) - 0.5 * (np.kron(eye, number) + np.kron(number, eye))

    atoms = dissipator(_VIA_A, _ATOM_A) + dissipator(_VIA_B, _ATOM_B)
    return commutator(_ATOM_A), commutator(_ATOM_B), dissipator(_VIA_CAVITY, _PHOTON), atoms


class LindbladBudget(NamedTuple):
    """Populations of the Lindblad model at one time, from rho(0) = |010><010|.

    ``p0`` is the excited population, ``p_cav``, ``p_a`` and ``p_b`` those of
    the three ground levels, and ``atoms`` the real 2x2 block of rho on
    (|010>, |001>), whose largest imaginary part is ``imaginary``.
    """

    p0: float
    p_cav: float
    p_a: float
    p_b: float
    atoms: np.ndarray
    imaginary: float


def lindblad_budget(g_a: float, g_b: float, kappa: float, gamma: float, t: float, digits: int | None = None):
    """The emission budget at time t from the 36x36 Liouvillian of the 6-level model.

    Without ``digits``, scipy's dense ``expm`` of L t.  With ``digits``, mpmath's
    ``expm`` at that precision, on the entries of vec(rho) that L reaches
    from rho(0): the excited 3x3 block and the three ground populations.
    They span an invariant subspace of L, so the restriction is exact, and
    it keeps the mpmath exponential at 12x12.
    """
    parts = _liouvillian_parts()
    coefficients = (-1j * g_a, -1j * g_b, 2.0 * kappa, 2.0 * gamma)
    start = _ATOM_A + 6 * _ATOM_A
    if digits is None:
        import scipy.linalg

        liouvillian = sum(c * part for c, part in zip(coefficients, parts))
        vec = scipy.linalg.expm(liouvillian * t)[:, start]
    else:
        import mpmath

        pattern = sum(np.abs(part) for part in parts) > 0.0
        reached, frontier = {start}, [start]
        while frontier:
            column = frontier.pop()
            for row in np.flatnonzero(pattern[:, column]).tolist():
                if row not in reached:
                    reached.add(row)
                    frontier.append(row)
        index = sorted(reached)
        with mpmath.workdps(digits):
            exact = (mpmath.mpc(0, -g_a), mpmath.mpc(0, -g_b), 2 * mpmath.mpf(kappa), 2 * mpmath.mpf(gamma))
            block = mpmath.matrix(len(index))
            for i, row in enumerate(index):
                for j, column in enumerate(index):
                    block[i, j] = mpmath.mpf(t) * mpmath.fsum(
                        c * mpmath.mpf(float(part[row, column])) for c, part in zip(exact, parts)
                    )
            column = mpmath.expm(block)[:, index.index(start)]
            vec = np.zeros(36, dtype=complex)
            vec[index] = [complex(value) for value in column]
    rho = vec.reshape(6, 6, order="F")
    population = rho.diagonal().real
    atoms = rho[_ATOM_A : _ATOM_B + 1, _ATOM_A : _ATOM_B + 1]
    return LindbladBudget(
        float(population[:3].sum()),
        *map(float, population[3:]),
        atoms.real.copy(),
        float(np.abs(atoms.imag).max()),
    )
