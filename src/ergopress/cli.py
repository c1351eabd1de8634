"""Batch front end: config-driven experiments with machine-readable output.

A run is described by a JSON config, dispatched to the computation
modules, and reported as comma-separated tables plus a structured JSON
summary.  Outputs are deterministic for a fixed config and seed: no
timestamps or timings go into the files (wall-clock is printed to stdout
only), so reruns are byte-identical.

Subcommands: pressure, capacity, spectrum, correlation, vp-check,
inverse-vp, gap-example, transfer-check, suite.  Exit code 0 iff every
check in the report passed, 1 if a check failed, 2 for a malformed config
and 3 when the computation raises one of the library's named errors,
overflows or runs out of memory (printed as ``MemoryError: <message>``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import compactify
from .coverpressure import (InconclusiveError, capacity_pressures,
                            critical_alpha, pressure_refined)
from .multifractal import correlation_entropy, legendre_check, t_curve
from .shifts import (Potential, ShiftSystem, SubsetSpec, block_codes_fit,
                     make_full_shift)
from .transfer import (
    ConvergenceError,
    IncreaseDepthError,
    NoUniquePerronError,
    equilibrium_markov,
    inverse_vp_probe,
    perturbed_chains,
    power_pressure_check,
    topological_entropy,
    transfer_pressure,
)

TASKS = ("pressure", "capacity", "spectrum", "correlation", "vp_check",
         "inverse_vp", "gap_example", "transfer_check", "property_suite")
# tasks that build a shift system and a potential from the config
SYMBOLIC_TASKS = ("pressure", "capacity", "spectrum", "correlation",
                  "vp_check", "inverse_vp")
# the keys some task reads, per config object; the top level stays open,
# so callers may keep their own parameters beside a config
KNOWN_KEYS = {
    "system": ("kind", "k", "adjacency"),
    "potential": ("kind", "depth", "table", "value"),
    "subset": ("kind", "adjacency", "words"),
    "budget": ("tol", "n_max", "depths", "n", "samples", "arc_count",
               "n_range", "q_grid"),
}


MAX_Q_POINTS = 2001  # ten times the default grid's 201 points
MAX_BLOCK_STATES = 2 ** 20  # block states of a cover's string calculus


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"config-error at '{path}': {message}")


def _require_known(spec: dict, path: str):
    for key in spec:
        _require(key in KNOWN_KEYS[path], f"{path}.{key}", "unknown key; "
                 f"known: {', '.join(KNOWN_KEYS[path])}")


@dataclass
class ExperimentConfig:
    task: str
    system_spec: dict
    potential_spec: dict
    subset_spec: dict | None
    budget: dict
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "", "config must be a JSON object")
        task = raw.get("task")
        _require(task in TASKS, "task", f"must be one of {TASKS}")
        system = raw.get("system", {"kind": "full_shift", "k": 2})
        _require(isinstance(system, dict) and "kind" in system, "system",
                 "must be an object with a 'kind'")
        _require_known(system, "system")
        kind = system["kind"]
        _require(kind in ("full_shift", "sft", "line_doubling"),
                 "system.kind", "must be full_shift | sft | line_doubling")
        _require(kind != "line_doubling" or task not in SYMBOLIC_TASKS,
                 "system.kind", f"line_doubling has no symbolic system for "
                 f"task {task!r}")
        if kind == "full_shift":
            _require(_int_at_least(system.get("k"), 2),
                     "system.k", "must be an integer >= 2")
        if kind == "sft":
            adj = system.get("adjacency")
            _require(isinstance(adj, list) and adj and
                     all(isinstance(row, list) and len(row) == len(adj)
                         and all(a in (0, 1) for a in row) for row in adj),
                     "system.adjacency", "must be a square 0/1 matrix")
        potential = raw.get("potential", {"kind": "zero"})
        _require(isinstance(potential, dict), "potential", "must be an object")
        _require_known(potential, "potential")
        pkind = potential.get("kind", "table")
        _require(pkind in ("zero", "constant", "table"),
                 "potential.kind", "must be zero | constant | table")
        if pkind == "table":
            _require(_int_at_least(potential.get("depth"), 1),
                     "potential.depth", "must be an integer >= 1")
            _require(isinstance(potential.get("table"), dict),
                     "potential.table", "must map words to values")
        if pkind == "constant":
            _require(_finite(potential.get("value")), "potential.value",
                     "must be a finite number")
        depth = potential["depth"] if pkind == "table" else 1
        subset = raw.get("subset")
        if subset is not None:
            _require(isinstance(subset, dict) and subset.get("kind") in
                     ("whole", "sub_sft", "cylinders"),
                     "subset.kind", "must be whole | sub_sft | cylinders")
            _require_known(subset, "subset")
            _require(subset["kind"] != "sub_sft"
                     or isinstance(subset.get("adjacency"), list),
                     "subset.adjacency", "must be a square 0/1 matrix")
            _require(subset["kind"] != "cylinders"
                     or isinstance(subset.get("words"), list),
                     "subset.words", "must be a list of words")
        budget = raw.get("budget", {})
        _require(isinstance(budget, dict), "budget", "must be an object")
        _require_known(budget, "budget")
        if "tol" in budget:
            _require(_finite(budget["tol"]) and budget["tol"] > 0,
                     "budget.tol", "must be a positive number")
        if "n_max" in budget:
            _require(_int_at_least(budget["n_max"], 8),
                     "budget.n_max", "must be an integer >= 8")
        if "depths" in budget:
            d = budget["depths"]
            _require(isinstance(d, list) and d
                     and all(_int_at_least(t, depth) for t in d)
                     and d == sorted(d),
                     "budget.depths", "must be an increasing list of "
                     f"integers >= the potential depth {depth}")
            if kind != "line_doubling":
                # a depth-t cover runs on blocks of length max(t - 1, 1),
                # whose base-k codes must fit in int64
                k = system["k"] if kind == "full_shift" else len(adj)
                n = max(d[-1] - 1, 1)
                _require(block_codes_fit(k, n),
                         "budget.depths", f"must keep {k}**(depth - 1) below "
                         "2**63, the int64 range of the block codes")
                states = k ** n
                if kind == "sft":  # 1^T A^(n-1) 1, as ShiftSystem.word_count
                    A = np.array(adj, dtype=np.int64)
                    row = np.ones(k, dtype=np.int64)
                    for _ in range(n - 1):
                        row = row @ A  # at most k**n: int64 holds it
                    states = int(row.sum())
                _require(states <= MAX_BLOCK_STATES, "budget.depths",
                         f"must keep the deepest cover's block states, its "
                         f"{n}-blocks, at most {MAX_BLOCK_STATES}: {states}")
        if "n" in budget and task == "inverse_vp":
            # a block depth max(depth, 2) below n
            least_n = max(4, depth + 1)
            _require(_int_at_least(budget["n"], least_n), "budget.n",
                     f"must be an integer >= {least_n}")
        if "samples" in budget:
            _require(_int_at_least(budget["samples"], 1), "budget.samples",
                     "must be an integer >= 1")
        if "arc_count" in budget:
            a = budget["arc_count"]
            _require(_int_at_least(a, 8) and a % 2 == 0, "budget.arc_count",
                     "must be an even integer >= 8")
        if "n_range" in budget:
            nr = budget["n_range"]
            _require(isinstance(nr, list) and len(nr) == 2
                     and _int_at_least(nr[0], 2) and _int_at_least(nr[1], 2)
                     and nr[0] + 2 <= nr[1],
                     "budget.n_range", "must be [lo, hi] with 2 <= lo and "
                     "lo + 2 <= hi (a slope needs two Ns in the top half)")
        if "q_grid" in budget:
            q = budget["q_grid"]
            ok = (isinstance(q, list) and q and all(map(_finite, q))) or \
                 (isinstance(q, dict) and {"lo", "hi", "step"} <= set(q)
                  and all(_finite(q[key]) for key in ("lo", "hi", "step"))
                  and q["step"] > 0 and q["lo"] <= q["hi"])
            _require(ok, "budget.q_grid", "must be a list of numbers or "
                     "{lo, hi, step} with lo <= hi and step > 0")
            _require(_q_points(q) <= MAX_Q_POINTS, "budget.q_grid",
                     f"must have at most {MAX_Q_POINTS} points")
            grid = _q_grid(budget)
            _require(len(np.unique(grid)) == len(grid), "budget.q_grid",
                     "must not repeat a value")
            if task == "correlation":
                _require((np.abs(grid - 1.0) > 1e-5).all(), "budget.q_grid",
                         "must have |q - 1| > 1e-5 for correlation tasks")
        seed = raw.get("seed", 0)
        _require(_int_at_least(seed, 0), "seed", "must be an integer >= 0")
        return cls(task, system, potential, subset, budget, seed)

    # -- builders ----------------------------------------------------------

    def build_system(self) -> ShiftSystem | None:
        kind = self.system_spec["kind"]
        if kind == "full_shift":
            return make_full_shift(self.system_spec["k"])
        if kind == "sft":
            try:
                return ShiftSystem(self.system_spec["adjacency"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config-error at 'system.adjacency': {exc}")
        return None  # line_doubling has no symbolic system

    def build_potential(self, system: ShiftSystem) -> Potential:
        kind = self.potential_spec.get("kind", "table")
        if kind == "zero":
            return Potential.zero(system)
        if kind == "constant":
            return Potential.constant(system, float(self.potential_spec["value"]))
        try:
            spec = self.potential_spec["table"]
            if any(isinstance(v, bool) for v in spec.values()):
                raise TypeError("values must be numbers, not booleans")
            table = {tuple(int(c) for c in key.split(",")): float(v)
                     for key, v in spec.items()}
            return Potential(system, self.potential_spec["depth"], table)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config-error at 'potential.table': {exc}")

    def build_subset(self, system: ShiftSystem) -> SubsetSpec:
        if self.subset_spec is None:
            return SubsetSpec.whole(system)
        kind = self.subset_spec["kind"]
        if kind == "whole":
            return SubsetSpec.whole(system)
        key = "adjacency" if kind == "sub_sft" else "words"
        try:
            if kind == "sub_sft":
                return SubsetSpec.sub_sft(system, self.subset_spec[key])
            return SubsetSpec.cylinders(system, self.subset_spec[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config-error at 'subset.{key}': {exc}")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max  # exact for ints of any size


def _int_at_least(value, least: int) -> bool:
    return type(value) is int and value >= least  # refuses JSON's true


def _q_points(q) -> float:
    """Number of points of a valid q-grid spec (inf past the float range):
    a list's length, or the points up to the last step within hi, guarded
    against a quotient rounded just below a whole number of steps."""
    if isinstance(q, list):
        return len(q)
    with np.errstate(over="ignore"):
        return np.floor(np.float64(q["hi"] - q["lo"]) / q["step"] + 1e-9) + 1


def _q_grid(budget: dict) -> np.ndarray:
    q = budget.get("q_grid", {"lo": -5.0, "hi": 5.0, "step": 0.05})
    if isinstance(q, list):
        return np.asarray([float(x) for x in q])
    return np.round(q["lo"] + q["step"] * np.arange(int(_q_points(q))), 12)


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float
    oracle: str  # what the value was compared against, or "estimate-only"


@dataclass
class TaskResult:
    task: str
    values: dict
    checks: list
    tables: dict = field(default_factory=dict)  # name -> (header, rows)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class RunReport:
    config: ExperimentConfig
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# task handlers


def _task_pressure(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    subset = cfg.build_subset(system)
    tol = cfg.budget.get("tol", 1e-4)
    depths = cfg.budget.get("depths", [potential.depth])
    n_max = cfg.budget.get("n_max", 20)
    est = pressure_refined(subset, potential, depths, tol)
    checks = []
    values = {"pressure": est.value, "bracket": list(est.bracket),
              "n_range": list(est.n_range)}
    if subset.kind == SubsetSpec.WHOLE and system.irreducible:
        oracle = transfer_pressure(system, potential)
        values["oracle"] = oracle
        checks.append(Check("pressure vs transfer oracle",
                            abs(est.value - oracle) <= 2 * tol,
                            est.value, 2 * tol, f"transfer={oracle:.12g}"))
    else:
        lo_end, hi_end = est.bracket  # both -inf for an empty subset
        width = 0.0 if lo_end == hi_end else hi_end - lo_end
        checks.append(Check("pressure bracket width", width <= tol,
                            est.value, tol, "estimate-only"))
    lo, hi = capacity_pressures(subset, potential, depths[-1], n_max)
    # both -inf for an empty subset, as the bracket ends above
    margin = 0.0 if hi.value == est.value else hi.value - est.value
    checks.append(Check("chain P <= upper capacity + 2tol",
                        est.value <= hi.value + 2 * tol,
                        margin, 2 * tol, "internal chain"))
    return TaskResult("pressure", values, checks,
                      {"pressure_diagnostics": (("N", "log_lambda", "slope"),
                                                hi.diagnostics["rows"])})


def _task_capacity(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    subset = cfg.build_subset(system)
    tol = cfg.budget.get("tol", 1e-3)
    n_max = cfg.budget.get("n_max", 24)
    depth = cfg.budget.get("depths", [potential.depth])[-1]
    lo, hi = capacity_pressures(subset, potential, depth, n_max)
    values = {"cp_lower": lo.value, "cp_upper": hi.value,
              "n_range": list(hi.n_range)}
    checks = []
    if subset.kind == SubsetSpec.WHOLE and system.irreducible:
        oracle = transfer_pressure(system, potential)
        values["oracle"] = oracle
        checks.append(Check("upper capacity vs transfer oracle",
                            abs(hi.value - oracle) <= tol, hi.value, tol,
                            f"transfer={oracle:.12g}"))
    return TaskResult("capacity", values, checks,
                      {"capacity_diagnostics": (("N", "log_lambda", "slope"),
                                                hi.diagnostics["rows"])})


def _task_spectrum(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    curve = t_curve(system, potential, _q_grid(cfg.budget))
    rows = list(zip(curve.q_grid, curve.t_values, curve.alpha_values,
                    curve.spectrum_values))
    checks = []
    i0 = curve.index_of(0.0)
    if i0 is not None:  # its own solve, so that T(0) = entropy is a check
        t0, h_top = float(curve.t_values[i0]), topological_entropy(system)
        checks.append(Check("T(0) equals topological entropy",
                            abs(t0 - h_top) <= 1e-9, t0, 1e-9,
                            f"entropy={h_top:.12g}"))
    chk = legendre_check(curve)
    if chk.skipped:
        values = {"legendre": "skipped (degenerate spectrum)"}
    else:
        values = {"legendre_forward": chk.forward_defect,
                  "legendre_reverse": chk.reverse_defect}
        checks.append(Check("Legendre duality defect", chk.max_defect <= 1e-4,
                            chk.max_defect, 1e-4, "grid transform"))
    return TaskResult("spectrum", values, checks,
                      {"spectrum": (("q", "T", "alpha", "E"), rows)})


def _task_correlation(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    tol = cfg.budget.get("tol", 1e-3)
    grid = _q_grid(cfg.budget) if "q_grid" in cfg.budget \
        else np.array([0.5, 2.0, 3.0])
    curve = correlation_entropy(system, potential, grid)
    rows = list(zip(curve.q_grid, curve.formula_values, curve.direct_values))
    checks = [
        Check("formula vs direct cylinder sums", curve.max_mismatch() <= tol,
              curve.max_mismatch(), tol, "cylinder sums"),
        Check("limit at q=1 equals measure entropy",
              abs(curve.limit_at_one - curve.entropy) <= tol,
              curve.limit_at_one, tol, f"entropy={curve.entropy:.12g}"),
    ]
    return TaskResult("correlation", {"limit_at_one": curve.limit_at_one},
                      checks,
                      {"correlation": (("q", "h_formula", "h_direct"), rows)})


def _task_vp_check(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    count = cfg.budget.get("samples", 200)
    rng = np.random.default_rng(cfg.seed)
    mu = equilibrium_markov(system, potential)
    # vp_residual without re-solving the pressure, over one stack of chains
    chains = perturbed_chains(mu, count, rng)
    worst = float(np.min(mu.pressure
                         - (chains.entropy + chains.integrate(potential))))
    at_eq = mu.pressure - (mu.entropy + mu.integrate(potential))
    checks = [
        Check("residual nonnegative over random invariant measures",
              worst >= -1e-9, worst, 1e-9, "variational inequality"),
    ]
    return TaskResult("vp_check", {"worst_residual": worst,
                                   "equilibrium_residual": at_eq}, checks)


def _task_inverse_vp(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    n = cfg.budget.get("n", 14)
    mu = equilibrium_markov(system, potential)
    value = inverse_vp_probe(system, potential, mu, n)
    target = mu.entropy + mu.integrate(potential)
    ceiling = mu.pressure
    slack = cfg.budget.get("tol", 3.0 / math.sqrt(n))
    checks = [
        Check("probe within the variational sandwich",
              target - slack <= value <= ceiling + slack,
              value, slack, f"[h+int, P] = [{target:.6g}, {ceiling:.6g}]"),
    ]
    return TaskResult("inverse_vp", {"probe": value, "target": target,
                                     "pressure": ceiling, "n": n}, checks)


def _task_gap_example(cfg: ExperimentConfig) -> TaskResult:
    cert = compactify.gap_example(
        arc_count=cfg.budget.get("arc_count", 64),
        n_range=tuple(cfg.budget.get("n_range", (16, 40))))
    checks = [
        Check("estimator reproduces the compactified pressure",
              abs(cert.estimator.value - cert.pressure_compactified) <= 1e-2,
              cert.estimator.value, 1e-2, f"pi={math.pi:.12g}"),
        Check("compactified entropy vanishes",
              abs(cert.entropy_estimate) <= 1e-2, cert.entropy_estimate,
              1e-2, "slope of log cell count"),
    ]
    values = {"gap": cert.gap,
              "pressure_compactified": cert.pressure_compactified,
              "sup_over_invariant_measures": cert.sup_over_invariant_measures,
              "estimator": cert.estimator.value,
              "entropy_estimate": cert.entropy_estimate,
              "line_inventory": [m.name for m in cert.line_inventory],
              "compactified_inventory": [m.name for m in
                                         cert.compactified_inventory]}
    return TaskResult("gap_example", values, checks)


def _task_transfer_check(cfg: ExperimentConfig) -> TaskResult:
    line_est, circle_est = compactify.circle_cover_pressure(
        compactify.LineDoublingModel(),
        arc_count=cfg.budget.get("arc_count", 64),
        n_range=tuple(cfg.budget.get("n_range", (16, 40))))
    combined = 2 * max(line_est.bracket[1] - line_est.bracket[0],
                       circle_est.bracket[1] - circle_est.bracket[0], 1e-3)
    values = {"line": line_est.value, "circle": circle_est.value}
    farther = max(values.values(), key=lambda v: abs(v - math.pi))
    checks = [
        Check("line and circle covers agree",
              abs(line_est.value - circle_est.value) <= combined,
              abs(line_est.value - circle_est.value), combined,
              "cover transfer"),
        Check("both estimates near pi", abs(farther - math.pi) <= 0.05,
              farther, 0.05, f"pi={math.pi:.12g}"),
    ]
    return TaskResult("transfer_check", values, checks)


def _task_property_suite(cfg: ExperimentConfig) -> TaskResult:
    """A fast bundle of the structural identities, one check per property."""
    system = make_full_shift(2)
    zero = Potential.zero(system)
    phi = Potential.depth_one(system, [0.0, math.log(2.0)])
    depth = 1  # the cover by cylinders of length 1
    whole = SubsetSpec.whole(system)
    tol = cfg.budget.get("tol", 1e-4)
    rng = np.random.default_rng(cfg.seed)

    def chain():
        est_p = critical_alpha(whole, phi, depth, tol)
        lo, _ = capacity_pressures(whole, phi, depth, 20)
        return Check("chain P <= lower capacity",
                     est_p.value <= lo.value + 2 * tol,
                     est_p.value, 2 * tol, "internal chain")

    def monotone():
        z1 = SubsetSpec.cylinders(system, [(0, 0)])
        z2 = SubsetSpec.cylinders(system, [(0,)])
        p1 = critical_alpha(z1, phi, depth, tol).value
        p2 = critical_alpha(z2, phi, depth, tol).value
        return Check("monotone under subset inclusion", p1 <= p2 + 2 * tol,
                     p2 - p1, 2 * tol, "nested cylinders")

    def union():
        z1 = SubsetSpec.cylinders(system, [(0, 0)])
        z2 = SubsetSpec.cylinders(system, [(1, 0)])
        z12 = SubsetSpec.cylinders(system, [(0, 0), (1, 0)])
        p = critical_alpha(z12, phi, depth, tol).value
        pm = max(critical_alpha(z1, phi, depth, tol).value,
                 critical_alpha(z2, phi, depth, tol).value)
        return Check("union pressure equals max of parts",
                     abs(p - pm) <= 2 * tol, abs(p - pm), 2 * tol,
                     "finite union")

    def lipschitz():
        vals = rng.normal(size=(4, 2))
        worst = 0.0
        for row in vals:
            pa = Potential.depth_one(system, row)
            pb = Potential.depth_one(system, row + rng.normal(scale=0.3, size=2))
            gap = abs(transfer_pressure(system, pa) - transfer_pressure(system, pb))
            bound = pa.sup_minus(pb)
            worst = max(worst, gap - bound)
        return Check("pressure is 1-Lipschitz in the potential",
                     worst <= 1e-9, worst, 1e-9, "transfer oracle")

    def power():
        lhs, rhs = power_pressure_check(system, phi, 2)
        return Check("pressure of the squared system", abs(lhs - rhs) <= 1e-9,
                     lhs - rhs, 1e-9, "power identity")

    def invariant_subset():
        sub = SubsetSpec.sub_sft(system, [[1, 1], [1, 0]])
        p = critical_alpha(sub, zero, depth, tol).value
        lo, hi = capacity_pressures(sub, zero, depth, 24)
        golden = math.log((1 + math.sqrt(5)) / 2)
        ok = abs(p - golden) <= 1e-3 and abs(hi.value - golden) <= 1e-3 \
            and abs(p - lo.value) <= 2 * tol
        return Check("invariant subset: three pressures coincide", ok,
                     p, 1e-3, f"golden={golden:.12g}")

    checks = [f() for f in (chain, monotone, union, lipschitz, power,
                            invariant_subset)]
    return TaskResult("property_suite",
                      {"properties": len(checks)}, checks)


_HANDLERS = {
    "pressure": _task_pressure,
    "capacity": _task_capacity,
    "spectrum": _task_spectrum,
    "correlation": _task_correlation,
    "vp_check": _task_vp_check,
    "inverse_vp": _task_inverse_vp,
    "gap_example": _task_gap_example,
    "transfer_check": _task_transfer_check,
    "property_suite": _task_property_suite,
}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch one experiment config and collect its report."""
    handler = _HANDLERS[config.task]
    start = time.perf_counter()
    result = handler(config)
    result.wall_clock = time.perf_counter() - start
    return RunReport(config, [result])


def emit_tables(report: RunReport, out_dir) -> list[Path]:
    """Write the report's tables as CSV plus a JSON summary.

    Float cells are written with 12 significant digits, other cells as
    ``str`` gives them.  File contents depend only on the config and seed
    (timings and other run-specific data stay out), so reruns are
    byte-identical.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"io-error: cannot create output dir {out}: {exc}")
    written = []
    summary = {"task": report.config.task, "passed": report.passed,
               "checks": [], "values": {}}
    for result in report.results:
        for name, (header, rows) in result.tables.items():
            path = out / f"{name}.csv"
            lines = [",".join(header)]
            lines += [",".join(f"{c:.12g}" if isinstance(c, float)
                               else str(c) for c in row) for row in rows]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
        summary["values"][result.task] = _jsonable(result.values)
        for c in result.checks:
            summary["checks"].append({
                "task": result.task, "name": c.name, "passed": bool(c.passed),
                "value": _jsonable(c.value), "tolerance": c.tolerance,
                "oracle": c.oracle,
            })
    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(path)
    return written


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergopress",
        description="Cover-based topological pressure experiments")
    parser.add_argument("task", choices=[t.replace("_", "-") for t in TASKS]
                        + ["suite"])
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config")
    parser.add_argument("--out", type=Path, default=Path("ergopress-out"))
    args = parser.parse_args(argv)

    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except OSError as exc:
            print(f"io-error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config-error: invalid JSON: {exc}", file=sys.stderr)
            return 2
    task = args.task.replace("-", "_")
    try:
        _require(isinstance(raw, dict), "", "config must be a JSON object")
        raw["task"] = "property_suite" if task == "suite" else task
        config = ExperimentConfig.from_dict(raw)
        report = run(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (NoUniquePerronError, ConvergenceError, InconclusiveError,
            IncreaseDepthError, OverflowError, MemoryError) as exc:
        # numpy's out-of-memory error is a subclass named MemoryError too
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    files = emit_tables(report, args.out)
    for result in report.results:
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {result.task}: {c.name} "
                  f"(value={_jsonable(c.value)!r:.40s}, tol={c.tolerance:g}, "
                  f"vs {c.oracle})")
        print(f"{result.task}: wall-clock {result.wall_clock:.2f}s")
    print("wrote:", ", ".join(str(f) for f in files))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
