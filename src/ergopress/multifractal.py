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
and directly from the growth rate of cylinder-measure power sums of the
equilibrium state (on a shift space the dynamical balls of small radius
are cylinders, so the ball-measure integral is a plain power sum over
admissible words), the Perron root of the chain's entrywise q-th power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shifts import Potential, ShiftSystem
from .transfer import equilibrium_markov, equilibrium_states, power_iteration

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
    """Exact T, alpha and spectrum values on a grid of distinct exponents
    q, from one Perron solve: an ``equilibrium_states`` stack for the
    grid and q = 1, whose last member gives the pressure."""
    q_grid = np.asarray(sorted(float(q) for q in q_grid))
    if (np.diff(q_grid) == 0).any():
        raise ValueError("q values must be distinct")
    states = equilibrium_states(system, potential, np.append(q_grid, 1.0))
    base_pressure = states.pressure[-1]
    t_vals = states.pressure[:-1] - q_grid * base_pressure
    a_vals = base_pressure - states.potential_integral[:-1]
    spec = t_vals + q_grid * a_vals
    return TQCurve(q_grid, t_vals, a_vals, spec, base_pressure)


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
    alpha, t, spec = curve.alpha_values, curve.t_values, curve.spectrum_values
    forward = np.abs((t + q * alpha[:, None]).min(axis=1) - spec).max()
    reverse = np.abs((spec - q[:, None] * alpha).max(axis=1) - t).max()
    return LegendreCheck(float(forward), float(reverse))


@dataclass
class CorrelationEntropyCurve:
    q_grid: np.ndarray
    formula_values: np.ndarray
    direct_values: np.ndarray
    limit_at_one: float
    entropy: float  # of the equilibrium state, the limit's target

    def max_mismatch(self) -> float:
        return float(np.abs(self.formula_values - self.direct_values).max())


def correlation_entropy(system: ShiftSystem, potential: Potential,
                        q_grid) -> CorrelationEntropyCurve:
    """Correlation entropies of the equilibrium state along a q-grid.

    The formula side is -T(q)/(q-1).  The direct side is
    -log(rho_q)/(q-1) for the Perron root rho_q of the entrywise power
    [P_ij^q] of the equilibrium chain (zero off its support), the growth
    rate of the cylinder-measure power sums pi^q [P^q]^(n-d) 1; all rho_q
    come from one stacked, Collatz-Wielandt certified
    ``power_iteration``.  [P^q] is diagonally similar to the transfer
    matrix of q * potential over lambda^q, so the sides agree when the
    chain and the q-stack are both right.  q = 1 is excluded from the
    grid; the limit there is estimated from the formula side at
    1 +/- LIMIT_OFFSET.  One equilibrium solve: an ``equilibrium_states``
    stack over the grid, the two points around 1 and q = 1 itself, whose
    last member is the equilibrium state (its chain and entropy).
    """
    q_grid = np.asarray(sorted(float(q) for q in q_grid))
    if (q_grid == 1.0).any():
        raise ValueError("q = 1 is excluded from correlation grids")
    q_all = np.append(q_grid, [1.0 + LIMIT_OFFSET, 1.0 - LIMIT_OFFSET, 1.0])
    states = equilibrium_states(system, potential, q_all)
    t = states.pressure - q_all * states.pressure[-1]
    formula = -t[:-3] / (q_grid - 1.0)
    P = states.transitions[-1]
    with np.errstate(divide="ignore"):  # 0 ** q for q < 0, off the support
        powers = np.where(P > 0, P ** q_grid[:, None, None], 0.0)
    rho, _ = power_iteration(powers)
    direct = -np.log(rho) / (q_grid - 1.0)
    limit = 0.5 * (-t[-3] / LIMIT_OFFSET + t[-2] / LIMIT_OFFSET)
    return CorrelationEntropyCurve(q_grid, formula, direct, limit,
                                   states.entropy[-1])


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
