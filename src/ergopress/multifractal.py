"""Entropy spectra, Legendre duality and correlation entropies.

Everything here is driven by the scaled-pressure function

    T(q) = pressure(q * potential) - q * pressure(potential),

computed exactly through the transfer-matrix oracle.  Its derivative is
available in closed form, T'(q) = integral of the potential against the
equilibrium state of q*potential minus the pressure, so the spectrum
slope alpha(q) = -T'(q) never touches a finite difference.  The entropy
spectrum value at alpha(q) is T(q) + q*alpha(q), and for non-degenerate
potentials it is the Legendre transform of T, which is checked on the
grid in both directions.

Correlation entropies are computed twice: from the formula -T(q)/(q-1)
and directly from cylinder-measure sums of the equilibrium state (on a
shift space the dynamical balls of small radius are cylinders, so the
ball-measure integral is a plain power sum over admissible words).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shifts import Potential, ShiftSystem
from .transfer import (
    EquilibriumState,
    equilibrium_markov,
    topological_entropy,
    transfer_pressure,
)

CURVE_TOL = 1e-9
GRID_ATOL = 1e-12  # how far a q may sit from a grid point it names
DEGENERACY_FACTOR = 10.0  # flat spectrum: alpha-range <= this * 1e-3 steps
LIMIT_OFFSET = 1e-3  # q = 1 +/- this brackets the correlation limit at 1


@dataclass
class TQCurve:
    """Scaled-pressure function with its slope and spectrum values."""

    q_grid: np.ndarray
    t_values: np.ndarray
    alpha_values: np.ndarray
    spectrum_values: np.ndarray
    pressure: float
    entropy_top: float  # topological entropy, equals T(0)

    def __post_init__(self):
        q = self.q_grid
        if len(q) >= 3:
            # second differences scaled to the grid: np.diff(t, 2) on
            # equal steps, the divided difference times the step otherwise
            d2 = np.diff(np.diff(self.t_values) / np.diff(q)) \
                * (q[2:] - q[:-2]) / 2
            if d2.min() < -CURVE_TOL * max(1.0, np.abs(self.t_values).max()):
                raise RuntimeError("T is not convex on the grid")
        if np.diff(self.alpha_values).max(initial=-np.inf) > CURVE_TOL:
            raise RuntimeError("alpha(q) is not nonincreasing")

    def index_of(self, q0: float) -> int | None:
        """Grid index of the point closest to q0, if within GRID_ATOL."""
        i = int(np.abs(self.q_grid - q0).argmin())
        return i if abs(self.q_grid[i] - q0) <= GRID_ATOL else None

    def _at(self, values: np.ndarray, q0: float) -> float:
        i = self.index_of(q0)
        if i is None:
            raise KeyError(f"{q0} is not on the grid")
        return float(values[i])

    def t_at(self, q0: float) -> float:
        return self._at(self.t_values, q0)

    def alpha_at(self, q0: float) -> float:
        return self._at(self.alpha_values, q0)

    @property
    def alpha_range(self) -> float:
        return float(self.alpha_values.max() - self.alpha_values.min())


def t_curve(system: ShiftSystem, potential: Potential, q_grid) -> TQCurve:
    """Exact T, alpha and spectrum values on a grid of distinct exponents q."""
    q_grid = np.asarray(sorted(float(q) for q in q_grid))
    if (np.diff(q_grid) == 0).any():
        raise ValueError("q values must be distinct")
    base_pressure = transfer_pressure(system, potential)
    h_top = topological_entropy(system)
    t_vals = np.empty_like(q_grid)
    a_vals = np.empty_like(q_grid)
    for i, q in enumerate(q_grid):
        mu_q = equilibrium_markov(system, potential.scaled(q))
        t_vals[i] = mu_q.pressure - q * base_pressure
        a_vals[i] = base_pressure - mu_q.integrate(potential)
    spec = t_vals + q_grid * a_vals
    return TQCurve(q_grid, t_vals, a_vals, spec, base_pressure, h_top)


def spectrum(system: ShiftSystem, potential: Potential, q_grid) -> list[tuple]:
    """Entropy-spectrum points (alpha(q), spectrum value) along the grid."""
    curve = t_curve(system, potential, q_grid)
    return list(zip(curve.alpha_values.tolist(), curve.spectrum_values.tolist()))


@dataclass
class LegendreCheck:
    forward_defect: float
    reverse_defect: float
    skipped: bool = False

    @property
    def max_defect(self) -> float:
        return max(self.forward_defect, self.reverse_defect)


def legendre_check(curve: TQCurve) -> LegendreCheck:
    """Duality defect between the spectrum and T on the curve's grid.

    Forward: spectrum(alpha*) against the grid infimum of T(q) + q*alpha*.
    Reverse: T(q) against the grid supremum of spectrum - q*alpha.  A
    spectrum whose alpha-range is at most DEGENERACY_FACTOR thousandths
    of the grid step is degenerate (the potential is equivalent to a
    constant, so the equilibrium state is maximal-entropy) and the check
    is skipped with a flag.
    """
    q = curve.q_grid
    step = float(np.diff(q).min()) if len(q) > 1 else 1.0
    if curve.alpha_range <= DEGENERACY_FACTOR * step * 1e-3 or len(q) < 3:
        return LegendreCheck(math.nan, math.nan, skipped=True)
    alpha = curve.alpha_values
    t = curve.t_values
    spec = curve.spectrum_values
    forward = 0.0
    for astar, estar in zip(alpha, spec):
        inf_grid = float((t + q * astar).min())
        forward = max(forward, abs(inf_grid - estar))
    reverse = 0.0
    for qstar, tstar in zip(q, t):
        sup_grid = float((spec - qstar * alpha).max())
        reverse = max(reverse, abs(sup_grid - tstar))
    return LegendreCheck(forward, reverse)


@dataclass
class CorrelationEntropyCurve:
    q_grid: np.ndarray
    formula_values: np.ndarray
    direct_values: np.ndarray
    limit_at_one: float
    entropy: float  # of the equilibrium state, the limit's target

    def max_mismatch(self) -> float:
        return float(np.abs(self.formula_values - self.direct_values).max())


def _log_measure_power_sums(state: EquilibriumState, q: float,
                            n: int) -> tuple[float, float]:
    """log of the sums over admissible n-words and over admissible
    (n+1)-words of (cylinder measure)**q.

    Evaluated by an entrywise-power matrix product over the measure's
    block chain; identical to brute-force enumeration (cross-checked in
    the tests) but linear in n.  Log-space throughout.
    """
    d = state.state_depth
    if n < d:
        raise ValueError(f"need n >= {d} for this measure")
    pi, P = state.stationary, state.transitions
    with np.errstate(divide="ignore", invalid="ignore"):  # q * log(0)
        vec = np.where(pi > 0, q * np.log(pi), -np.inf)
        mat = np.where(P > 0, q * np.log(P), -np.inf)
    for _ in range(n - d):
        vec = np.logaddexp.reduce(vec[:, None] + mat, axis=0)
    nxt = np.logaddexp.reduce(vec[:, None] + mat, axis=0)
    return float(np.logaddexp.reduce(vec)), float(np.logaddexp.reduce(nxt))


def correlation_entropy(system: ShiftSystem, potential: Potential, q_grid,
                        n: int) -> CorrelationEntropyCurve:
    """Correlation entropies of the equilibrium state along a q-grid.

    The formula side is -T(q)/(q-1).  The direct side is
    -(log S(n+1) - log S(n))/(q-1) for the cylinder-measure power sums S:
    S(n) grows like a constant times exp(-(q-1) h_q n), and the
    difference drops the constant that (1/n) log S(n) would carry as an
    O(1/n) bias.  q = 1 is excluded from the grid; the limit there is
    estimated from the formula side at 1 +/- LIMIT_OFFSET and reported
    separately.
    """
    q_grid = np.asarray(sorted(float(q) for q in q_grid))
    if (q_grid == 1.0).any():
        raise ValueError("q = 1 is excluded from correlation grids")
    if n < 10:
        raise ValueError("n must be >= 10")
    state = equilibrium_markov(system, potential)
    base_pressure = state.pressure

    def t_of(q: float) -> float:
        return transfer_pressure(system, potential.scaled(q)) - q * base_pressure

    formula = np.array([-t_of(q) / (q - 1.0) for q in q_grid])
    direct = np.array([np.subtract(*_log_measure_power_sums(state, q, n))
                       / (q - 1.0) for q in q_grid])
    limit = 0.5 * (-t_of(1.0 + LIMIT_OFFSET) / LIMIT_OFFSET
                   + t_of(1.0 - LIMIT_OFFSET) / LIMIT_OFFSET)
    return CorrelationEntropyCurve(q_grid, formula, direct, limit,
                                   state.entropy)


def local_entropy_check(system: ShiftSystem, potential: Potential,
                        sample_count: int, n: int, tol: float | None = None,
                        seed: int = 0) -> float:
    """Fraction of sampled orbits whose empirical local entropy is close
    to the measure entropy.

    Samples words of length n from the equilibrium state's Markov chain
    and compares -(1/n) log(cylinder measure) against the entropy; for
    almost every orbit the two agree in the limit, and at finite n the
    deviation is of CLT size.  The default tolerance is 3*sigma/sqrt(n)
    (sigma the standard deviation of the per-step log transition weights
    under the stationary chain) plus the initial-distribution term
    max|log pi|/n; pass ``tol`` to fix it instead.
    """
    if sample_count < 1 or n < 1:
        raise ValueError("sample_count and n must be positive")
    state = equilibrium_markov(system, potential)
    if n < state.state_depth:
        raise ValueError(f"need n >= {state.state_depth} for this measure")
    if tol is None:
        P, pi = state.transitions, state.stationary
        logs = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
        mean = float((pi @ (P * logs).sum(axis=1)))
        second = float((pi @ (P * logs ** 2).sum(axis=1)))
        sigma = math.sqrt(max(second - mean ** 2, 0.0))
        boundary = float(np.abs(np.log(pi[pi > 0])).max())
        tol = 3.0 * sigma / math.sqrt(n) + boundary / n
    rng = np.random.default_rng(seed)
    _, logm = state.sample_words(n, sample_count, rng)
    empirical = -logm / n
    return float(np.mean(np.abs(empirical - state.entropy) <= tol))
