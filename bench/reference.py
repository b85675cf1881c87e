"""Independent high-precision references and property checks.

Nothing here calls ``darkstate_sim``.  Every reference is rebuilt from the
model definition (the 3x3 no-click generator M, the dark-pair mixture and the
repump rule) in mpmath at ``DPS`` significant digits:

* ``exp(-M t)`` from mpmath's own eigendecomposition of M when its
  eigenvector basis is well conditioned, and from ``mpmath.expm`` (Taylor
  series with scaling and squaring) otherwise, e.g. at the critical point
  S = 0 where M is defective;
* ``P0(t) = |exp(-M t) e_010|^2``;
* ``P_cav(t) = integral of 2 kappa |c_100|^2``: analytically over the
  eigendecomposition, or by Van Loan's block exponential on the bright
  block when M is (nearly) defective;
* ``E(lam) = S(rho || sigma*)`` from the 4x4 two-atom density matrices;
* the repump-and-wait update.

Errors are relative with an absolute floor, ``|x - ref| / max(|ref|, floor)``,
so that a tail which underflows in double precision (P0 ~ 1e-218 when
g_b = 0) is judged against the floor instead of against its own size.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp

DPS = 40

# Relative tolerance of every closed-form output: the accuracy target for
# P0 over the whole physical domain.
REL_TOL = 1e-11
# exp(-M t) as a matrix, norm-wise: at the critical point the program's
# scaling-and-squaring series accumulates up to 2.6e-11 over the MC horizon
# (kappa t = 3e4), so this check allows one digit more than REL_TOL.
MATRIX_TOL = 1e-10
# Absolute floors.  P0 and the no-click weight are squares of amplitudes, so
# the amplitude floor is the square root of theirs.  P_cav, P_spon and the
# repump click probability (1 - lam) p are complements of order-one numbers,
# and E(lam) ~ lam^2 / (4 ln 2) is a difference of two O(lam) logarithms, in
# double precision; below 1e-3 they are judged by absolute error (1e-14).
FLOOR_PROB = 1e-30
FLOOR_AMP = 1e-15
FLOOR_BUDGET = 1e-3
# CSV tables carry 12 significant digits.
CSV_TOL = 1e-11

mp.dps = DPS


def rel_err(value, ref, floor: float) -> float:
    """|value - ref| / max(|ref|, floor) as a float."""
    ref = mpmath.mpf(ref)
    return float(abs(mpmath.mpf(float(value)) - ref) / max(abs(ref), mpmath.mpf(floor)))


def vec_err(values, refs, floor: float) -> float:
    """Norm-wise error: max |value - ref| / max(max |ref|, floor)."""
    diff = max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(values, refs))
    scale = max(max(abs(r) for r in refs), mpmath.mpf(floor))
    return float(diff / scale)


class Exact:
    """exp(-M t), P0 and P_cav of one parameter set, at DPS digits."""

    def __init__(self, g_a: float, g_b: float, kappa: float, gamma: float):
        self.g_a, self.g_b = mpmath.mpf(g_a), mpmath.mpf(g_b)
        self.kappa, self.gamma = mpmath.mpf(kappa), mpmath.mpf(gamma)
        self.omega_sq = self.g_a**2 + self.g_b**2
        self.m = mpmath.matrix(
            [
                [self.kappa, self.g_a, self.g_b],
                [-self.g_a, self.gamma, 0],
                [-self.g_b, 0, self.gamma],
            ]
        )
        self.spectral = False
        try:
            values, vectors = mpmath.eig(self.m)
            inverse = mpmath.inverse(vectors)
        except ZeroDivisionError:
            return
        cond = mpmath.mnorm(vectors, 1) * mpmath.mnorm(inverse, 1)
        # Keep >= 25 correct digits after the basis change.
        if cond < mpmath.mpf(10) ** (DPS - 25):
            self.spectral = True
            self.values = values
            self.vectors = vectors
            self.inverse = inverse

    def matrix(self, t) -> mpmath.matrix:
        """U(t) = exp(-M t)."""
        t = mpmath.mpf(t)
        if not self.spectral:
            return mpmath.expm(-self.m * t)
        decay = mpmath.diag([mpmath.exp(-lam * t) for lam in self.values])
        u = self.vectors * decay * self.inverse
        return u.apply(mpmath.re)

    def state(self, t) -> list:
        """c(t) = U(t) |010>, the unnormalized no-click amplitudes."""
        t = mpmath.mpf(t)
        if not self.spectral:
            u = mpmath.expm(-self.m * t)
            return [u[i, 1] for i in range(3)]
        weights = [mpmath.exp(-lam * t) * self.inverse[k, 1] for k, lam in enumerate(self.values)]
        return [mpmath.re(mpmath.fsum(self.vectors[i, k] * weights[k] for k in range(3))) for i in range(3)]

    def p0(self, t):
        return mpmath.fsum(c**2 for c in self.state(t))

    def p_cav(self, t):
        """Integral over [0, t] of the cavity emission rate 2 kappa |c_100|^2."""
        t = mpmath.mpf(t)
        if self.spectral:
            alpha = [self.vectors[0, k] * self.inverse[k, 1] for k in range(3)]
            total = mpmath.mpf(0)
            for j in range(3):
                for k in range(3):
                    rate = self.values[j] + mpmath.conj(self.values[k])
                    total += alpha[j] * mpmath.conj(alpha[k]) * (-mpmath.expm1(-rate * t)) / rate
            return 2 * self.kappa * mpmath.re(total)
        # The dark vector (0, g_b, -g_a) is a left and right eigenvector of M,
        # so the cavity amplitude lives in the 2-D bright block spanned by
        # |100> and b = (0, g_a, g_b)/Omega, where c' = -[[k, W], [-W, g]] c.
        # The quadratic moments (c0^2, c0 cb, cb^2) obey a linear ODE; one
        # more row integrates c0^2 (Van Loan, IEEE TAC 23, 395 (1978)).
        k, g = self.kappa, self.gamma
        w = mpmath.sqrt(self.omega_sq)
        block = mpmath.matrix(
            [
                [-2 * k, -2 * w, 0, 0],
                [w, -(k + g), -w, 0],
                [0, 2 * w, -2 * g, 0],
                [1, 0, 0, 0],
            ]
        )
        start = mpmath.matrix([0, 0, self.g_a**2 / self.omega_sq, 0])
        return 2 * k * (mpmath.expm(block * t) * start)[3]

    def saturation(self):
        """kappa g_a^2 / ((kappa+gamma)(g_a^2+g_b^2+kappa gamma)), P_cav(inf)."""
        k, g = self.kappa, self.gamma
        return k * self.g_a**2 / ((k + g) * (self.omega_sq + k * g))

    def lam_asymptotic(self, t, eta):
        """Post-transient no-click weight (g_b^2/Omega^2) e^{-2 gamma t} / (1 - eta P_cav(inf))."""
        p0 = self.g_b**2 / self.omega_sq * mpmath.exp(-2 * self.gamma * mpmath.mpf(t))
        return p0 / (1 - mpmath.mpf(eta) * self.saturation())

    def lam(self, t, eta):
        """Exact no-click weight P0 / (1 - eta P_cav)."""
        return self.p0(t) / (1 - mpmath.mpf(eta) * self.p_cav(t))


def _two_atom_states(lam):
    """rho = lam |dark><dark| + (1-lam)|00><00| and the separable sigma*.

    Basis |00>, |01>, |10>, |11> with |11> the doubly excited pair; the dark
    pair is the antisymmetric (|01> - |10>)/sqrt(2).  The closest separable
    state (Vedral & Plenio, PRA 57, 1619 (1998)) is
    (1-lam/2)^2 |00><00| + lam(1-lam/2) |dark><dark| + (lam/2)^2 |11><11|.
    """
    lam = mpmath.mpf(lam)
    half = 1 - lam / 2
    rho = mpmath.zeros(4, 4)
    sigma = mpmath.zeros(4, 4)
    rho[0, 0] = 1 - lam
    sigma[0, 0] = half**2
    sigma[3, 3] = (lam / 2) ** 2
    for target, weight in ((rho, lam), (sigma, lam * half)):
        target[1, 1] += weight / 2
        target[2, 2] += weight / 2
        target[1, 2] -= weight / 2
        target[2, 1] -= weight / 2
    return rho, sigma


def _partial_transpose(state):
    out = mpmath.zeros(4, 4)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out[2 * a + d, 2 * c + b] = state[2 * a + b, 2 * c + d]
    return out


def entropy_of_entanglement(lam):
    """S(rho || sigma*) in bits, from eigendecompositions of the 4x4 states.

    Raises ValueError if sigma* is not a separable state (a negative
    eigenvalue of sigma or of its partial transpose).
    """
    rho, sigma = _two_atom_states(lam)
    s_vals, s_vecs = mpmath.eigsy(sigma)
    pt_vals, _ = mpmath.eigsy(_partial_transpose(sigma))
    tiny = mpmath.mpf(10) ** (5 - DPS)
    if min(s_vals) < -tiny or min(pt_vals) < -tiny:
        raise ValueError(f"sigma* is not a separable state at lam = {lam}")
    r_vals, r_vecs = mpmath.eigsy(rho)
    log_sigma = s_vecs * mpmath.diag([mpmath.log(max(v, tiny), 2) for v in s_vals]) * s_vecs.T
    total = mpmath.mpf(0)
    for i in range(4):
        p = r_vals[i]
        if p <= tiny:
            continue
        vec = r_vecs[:, i]
        total += p * (mpmath.log(p, 2) - (vec.T * log_sigma * vec)[0])
    return total


def repump_chain(lam0, p_detect, rounds):
    """[(click probability, lam)] for rounds 1..rounds of repump-and-wait.

    The ground fraction 1 - lam is re-excited and clicks with probability
    p_detect; no click updates lam -> lam / (lam + (1 - lam)(1 - p_detect)).
    """
    lam = mpmath.mpf(lam0)
    p = mpmath.mpf(p_detect)
    out = []
    for _ in range(rounds):
        click = (1 - lam) * p
        lam = lam / (lam + (1 - lam) * (1 - p))
        out.append((click, lam))
    return out


def budget_property_errors(p0, p_cav, p_spon, saturation, rounding: float = 0.0) -> list[str]:
    """Method properties of an emission budget on an ascending time grid.

    ``rounding`` is the relative rounding of the values (CSV output); it
    widens the sum and saturation checks.  Rounding is monotone, so the
    monotonicity check needs no slack for it.
    """
    problems = []
    n = len(p0)
    for i in range(n):
        total = p0[i] + p_cav[i] + p_spon[i]
        if abs(total - 1.0) > 1e-14 + 3.0 * rounding:
            problems.append(f"budget sums to {total!r} at index {i}")
        for name, value in (("P0", p0[i]), ("Pcav", p_cav[i]), ("Pspon", p_spon[i])):
            if not 0.0 <= value <= 1.0:
                problems.append(f"{name} = {value!r} outside [0, 1] at index {i}")
        if p_cav[i] > float(saturation) * (1.0 + 1e-12 + rounding):
            problems.append(f"Pcav = {p_cav[i]!r} above saturation {float(saturation)!r}")
        if i and p0[i] > p0[i - 1] * (1.0 + 1e-13):
            problems.append(f"P0 increases at index {i}: {p0[i - 1]!r} -> {p0[i]!r}")
    return problems


def binomial_test(successes: int, n: int, p_ref, z_max: float = 6.0) -> tuple[bool, float]:
    """Frequency test of successes/n against the reference probability.

    With enough expected counts (n p (1-p) >= 10) this is a z-test whose
    standard error sqrt(p (1-p) / n) comes from the reference p, not from
    the estimate, so an estimate of exactly 0 or 1 is judged fairly.  With
    fewer expected counts the normal approximation fails and the Chernoff
    bound exp(-n KL(p_hat || p)) must stay above the same two-sided level
    (~2e-9).  Returns (passed, z) with z = 0 when the z-test was not used.
    """
    p = float(p_ref)
    hat = successes / n
    # The reference carries ~1e-38 of rounding: treat that as exactly 0 or 1.
    if p < 1e-30:
        return successes == 0, 0.0
    if p > 1.0 - 1e-30:
        return successes == n, 0.0
    var = p * (1.0 - p) / n
    if n * p * (1.0 - p) >= 10.0:
        z = (hat - p) / math.sqrt(var)
        return abs(z) <= z_max, z
    kl = 0.0
    if hat > 0.0:
        kl += hat * math.log(hat / p)
    if hat < 1.0:
        kl += (1.0 - hat) * math.log((1.0 - hat) / (1.0 - p))
    return n * kl <= z_max**2 / 2.0, 0.0
