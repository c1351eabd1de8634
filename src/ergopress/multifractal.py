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
from dataclasses import dataclass, field

import numpy as np

from .shifts import Potential, ShiftSystem
from .transfer import (
    EquilibriumState,
    equilibrium_markov,
    topological_entropy,
    transfer_pressure,
)

CURVE_TOL = 1e-9


@dataclass
class TQCurve:
    """Scaled-pressure function with its slope and spectrum values."""

    q_grid: np.ndarray
    t_values: np.ndarray
    alpha_values: np.ndarray
    spectrum_values: np.ndarray
    pressure: float
    entropy_top: float  # topological entropy, equals T(0)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        q = self.q_grid
        i0 = self.index_of(0.0)
        if i0 is not None and abs(self.t_values[i0] - self.entropy_top) > CURVE_TOL:
            raise RuntimeError("T(0) does not equal the topological entropy")
        i1 = self.index_of(1.0)
        if i1 is not None and abs(self.t_values[i1]) > CURVE_TOL:
            raise RuntimeError("T(1) does not vanish")
        if len(q) >= 3:
            d2 = np.diff(self.t_values, 2)
            if d2.min() < -CURVE_TOL * max(1.0, np.abs(self.t_values).max()):
                raise RuntimeError("T is not convex on the grid")
        if np.diff(self.alpha_values).max(initial=-np.inf) > CURVE_TOL:
            raise RuntimeError("alpha(q) is not nonincreasing")

    def index_of(self, q0: float, atol: float = 1e-12) -> int | None:
        """Grid index of the point closest to q0, if within atol."""
        i = int(np.abs(self.q_grid - q0).argmin())
        return i if abs(self.q_grid[i] - q0) <= atol else None

    def t_at(self, q0: float) -> float:
        i = self.index_of(q0)
        if i is None:
            raise KeyError(f"{q0} is not on the grid")
        return float(self.t_values[i])

    def alpha_at(self, q0: float) -> float:
        i = self.index_of(q0)
        if i is None:
            raise KeyError(f"{q0} is not on the grid")
        return float(self.alpha_values[i])

    @property
    def alpha_range(self) -> float:
        return float(self.alpha_values.max() - self.alpha_values.min())


def t_curve(system: ShiftSystem, potential: Potential, q_grid) -> TQCurve:
    """Exact T, alpha and spectrum values on a grid of exponents q."""
    q_grid = np.asarray(sorted(float(q) for q in q_grid))
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
    reason: str = ""

    @property
    def max_defect(self) -> float:
        return max(self.forward_defect, self.reverse_defect)


def legendre_check(curve: TQCurve, degeneracy_factor: float = 10.0) -> LegendreCheck:
    """Duality defect between the spectrum and T on the curve's grid.

    Forward: spectrum(alpha*) against the grid infimum of T(q) + q*alpha*.
    Reverse: T(q) against the grid supremum of spectrum - q*alpha.  A
    spectrum whose alpha-range is below ``degeneracy_factor`` grid steps
    is degenerate (the equilibrium state is maximal-entropy) and the
    check is skipped with a flag.
    """
    q = curve.q_grid
    step = float(np.diff(q).min()) if len(q) > 1 else 1.0
    if curve.alpha_range <= degeneracy_factor * step * 1e-3 or len(q) < 3:
        return LegendreCheck(math.nan, math.nan, skipped=True,
                             reason="degenerate spectrum: potential is "
                                    "equivalent to a constant")
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
    n_used: int
    limit_at_one: float

    def max_mismatch(self) -> float:
        return float(np.abs(self.formula_values - self.direct_values).max())


def _log_measure_power_sum(state: EquilibriumState, q: float, n: int) -> float:
    """log of the sum over admissible n-words of (cylinder measure)**q.

    Evaluated by an entrywise-power matrix product over the measure's
    block chain; identical to brute-force enumeration (cross-checked in
    the tests) but linear in n.  Log-space throughout.
    """
    d = state.state_depth
    if n < d:
        raise ValueError(f"need n >= {d} for this measure")
    with np.errstate(divide="ignore"):
        logpi = np.where(state.stationary > 0, np.log(state.stationary), -np.inf)
        logP = np.where(state.transitions > 0, np.log(state.transitions), -np.inf)
    vec = q * logpi
    mat = q * logP
    for _ in range(n - d):
        stacked = vec[:, None] + mat
        vec = np.logaddexp.reduce(stacked, axis=0)
    return float(np.logaddexp.reduce(vec))


def correlation_entropy(system: ShiftSystem, potential: Potential, q_grid,
                        n: int, limit_offset: float = 1e-3) -> CorrelationEntropyCurve:
    """Correlation entropies of the equilibrium state along a q-grid.

    The formula side is -T(q)/(q-1); the direct side is the normalized
    log of the cylinder-measure power sum at depth n.  q = 1 is excluded
    from the grid; the limit there is estimated from the formula side at
    1 +/- limit_offset and reported separately.
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
    direct = np.array([-_log_measure_power_sum(state, q, n) / (n * (q - 1.0))
                       for q in q_grid])
    limit = 0.5 * (-t_of(1.0 + limit_offset) / limit_offset
                   + t_of(1.0 - limit_offset) / limit_offset)
    return CorrelationEntropyCurve(q_grid, formula, direct, n, limit)


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
