"""Batch front end: config-driven experiments with machine-readable output.

A run is described by a JSON config (or assembled from flags), dispatched
to the computation modules, and reported as comma-separated tables plus a
structured JSON summary.  Outputs are deterministic for a fixed config
and seed: no timestamps or timings go into the files (wall-clock is
printed to stdout only), so reruns are byte-identical.

Subcommands: pressure, capacity, spectrum, correlation, vp-check,
inverse-vp, gap-example, transfer-check, suite.  Exit code 0 iff every
check in the report passed, 1 if a check failed, 2 for a malformed config
and 3 when the computation raises one of the library's named errors.
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
from .coverpressure import (Cover, InconclusiveError, capacity_pressures,
                            critical_alpha, pressure_refined)
from .multifractal import correlation_entropy, legendre_check, t_curve
from .shifts import Potential, ShiftSystem, SubsetSpec, make_full_shift
from .transfer import (
    ConvergenceError,
    IncreaseDepthError,
    NoUniquePerronError,
    equilibrium_markov,
    inverse_vp_probe,
    perturbed_chains,
    power_pressure_check,
    transfer_pressure,
)

TASKS = ("pressure", "capacity", "spectrum", "correlation", "vp_check",
         "inverse_vp", "gap_example", "transfer_check", "property_suite")
# tasks that build a shift system and a potential from the config
SYMBOLIC_TASKS = ("pressure", "capacity", "spectrum", "correlation",
                  "vp_check", "inverse_vp")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"config-error at '{path}': {message}")


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
        kind = system["kind"]
        _require(kind in ("full_shift", "sft", "line_doubling"),
                 "system.kind", "must be full_shift | sft | line_doubling")
        _require(kind != "line_doubling" or task not in SYMBOLIC_TASKS,
                 "system.kind", f"line_doubling has no symbolic system for "
                 f"task {task!r}")
        if kind == "full_shift":
            _require(isinstance(system.get("k"), int) and system["k"] >= 2,
                     "system.k", "must be an integer >= 2")
        if kind == "sft":
            adj = system.get("adjacency")
            _require(isinstance(adj, list) and adj and
                     all(isinstance(row, list) and len(row) == len(adj)
                         for row in adj),
                     "system.adjacency", "must be a square 0/1 matrix")
        potential = raw.get("potential", {"kind": "zero"})
        _require(isinstance(potential, dict), "potential", "must be an object")
        pkind = potential.get("kind", "table")
        _require(pkind in ("zero", "constant", "table", "named"),
                 "potential.kind", "must be zero | constant | table | named")
        if pkind == "table":
            _require(isinstance(potential.get("depth"), int)
                     and potential["depth"] >= 1,
                     "potential.depth", "must be an integer >= 1")
            _require(isinstance(potential.get("table"), dict),
                     "potential.table", "must map words to values")
        if pkind == "named":
            _require(potential.get("name") == "arccot",
                     "potential.name", "only 'arccot' is available")
        if pkind == "constant":
            _require(_finite(potential.get("value")), "potential.value",
                     "must be a finite number")
        depth = potential["depth"] if pkind == "table" else 1
        subset = raw.get("subset")
        if subset is not None:
            _require(isinstance(subset, dict) and subset.get("kind") in
                     ("whole", "sub_sft", "cylinders"),
                     "subset.kind", "must be whole | sub_sft | cylinders")
            _require(subset["kind"] != "sub_sft"
                     or isinstance(subset.get("adjacency"), list),
                     "subset.adjacency", "must be a square 0/1 matrix")
        budget = raw.get("budget", {})
        _require(isinstance(budget, dict), "budget", "must be an object")
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
                # whose base-k codes must fit in int64; k >= 2, so the
                # exponent can stop at 64 (no huge power for a huge t)
                k = system["k"] if kind == "full_shift" else len(adj)
                blocks = min(max(d[-1] - 1, 1), 64)
                _require(k ** blocks < 1 << 63, "budget.depths",
                         f"must keep {k}**(depth - 1) below 2**63, the "
                         "int64 range of the block codes")
        # inverse_vp needs a block depth max(depth, 2) below n
        least_n = {"correlation": 10, "inverse_vp": max(4, depth + 1)}
        if "n" in budget and task in least_n:
            _require(_int_at_least(budget["n"], least_n[task]), "budget.n",
                     f"must be an integer >= {least_n[task]}")
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
                     and nr[0] < nr[1],
                     "budget.n_range", "must be [lo, hi] with 2 <= lo < hi")
        if "q_grid" in budget:
            q = budget["q_grid"]
            ok = (isinstance(q, list) and q and all(map(_finite, q))) or \
                 (isinstance(q, dict) and {"lo", "hi", "step"} <= set(q)
                  and all(_finite(q[key]) for key in ("lo", "hi", "step"))
                  and q["step"] > 0 and q["lo"] <= q["hi"])
            _require(ok, "budget.q_grid", "must be a list of numbers or "
                     "{lo, hi, step} with lo <= hi and step > 0")
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
            except ValueError as exc:
                raise ConfigError(f"config-error at 'system.adjacency': {exc}")
        return None  # line_doubling has no symbolic system

    def build_potential(self, system: ShiftSystem) -> Potential:
        kind = self.potential_spec.get("kind", "table")
        if kind == "zero":
            return Potential.zero(system)
        if kind == "constant":
            return Potential.constant(system, float(self.potential_spec["value"]))
        if kind == "named":
            raise ConfigError("config-error at 'potential.kind': the named "
                              "potential only applies to the line model")
        try:
            table = {tuple(int(c) for c in key.split(",")): float(v)
                     for key, v in self.potential_spec["table"].items()}
            return Potential(system, self.potential_spec["depth"], table)
        except ValueError as exc:
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
            return SubsetSpec.cylinders(system, self.subset_spec.get(key))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config-error at 'subset.{key}': {exc}")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _int_at_least(value, least: int) -> bool:
    return isinstance(value, int) and value >= least


def _q_grid(budget: dict) -> np.ndarray:
    q = budget.get("q_grid", {"lo": -5.0, "hi": 5.0, "step": 0.05})
    if isinstance(q, list):
        return np.asarray([float(x) for x in q])
    n = int(round((q["hi"] - q["lo"]) / q["step"]))
    return np.round(q["lo"] + q["step"] * np.arange(n + 1), 12)


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
    est = pressure_refined(subset, potential, depths, n_max, tol)
    checks = []
    values = {"pressure": est.value, "bracket": list(est.bracket)}
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
    lo, hi = capacity_pressures(subset, potential, Cover(system, depths[-1]),
                                max(8, n_max))
    rows = [(n, f"{ll:.12g}", f"{s:.12g}") for n, ll, s in hi.diagnostics["rows"]]
    checks.append(Check("chain P <= upper capacity + 2tol",
                        est.value <= hi.value + 2 * tol,
                        hi.value - est.value, 2 * tol, "internal chain"))
    return TaskResult("pressure", values, checks,
                      {"pressure_diagnostics": (("N", "log_lambda", "slope"),
                                                rows)})


def _task_capacity(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    subset = cfg.build_subset(system)
    tol = cfg.budget.get("tol", 1e-3)
    n_max = cfg.budget.get("n_max", 24)
    depth = cfg.budget.get("depths", [potential.depth])[-1]
    lo, hi = capacity_pressures(subset, potential, Cover(system, depth), n_max)
    values = {"cp_lower": lo.value, "cp_upper": hi.value}
    checks = []
    if subset.kind == SubsetSpec.WHOLE and system.irreducible:
        oracle = transfer_pressure(system, potential)
        values["oracle"] = oracle
        checks.append(Check("upper capacity vs transfer oracle",
                            abs(hi.value - oracle) <= tol, hi.value, tol,
                            f"transfer={oracle:.12g}"))
    rows = [(n, f"{ll:.12g}", f"{s:.12g}") for n, ll, s in hi.diagnostics["rows"]]
    return TaskResult("capacity", values, checks,
                      {"capacity_diagnostics": (("N", "log_lambda", "slope"),
                                                rows)})


def _task_spectrum(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    curve = t_curve(system, potential, _q_grid(cfg.budget))
    rows = [(f"{q:.12g}", f"{t:.12g}", f"{a:.12g}", f"{e:.12g}")
            for q, t, a, e in zip(curve.q_grid, curve.t_values,
                                  curve.alpha_values, curve.spectrum_values)]
    checks = []
    i0 = curve.index_of(0.0)
    if i0 is not None:
        checks.append(Check("T(0) equals topological entropy",
                            abs(curve.t_values[i0] - curve.entropy_top) <= 1e-9,
                            float(curve.t_values[i0]), 1e-9,
                            f"entropy={curve.entropy_top:.12g}"))
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
    n = cfg.budget.get("n", 20)
    tol = cfg.budget.get("tol", 1e-3)
    grid = _q_grid(cfg.budget) if "q_grid" in cfg.budget \
        else np.array([0.5, 2.0, 3.0])
    curve = correlation_entropy(system, potential, grid, n)
    rows = [(f"{q:.12g}", f"{f:.12g}", f"{d:.12g}")
            for q, f, d in zip(curve.q_grid, curve.formula_values,
                               curve.direct_values)]
    checks = [
        Check("formula vs direct cylinder sums", curve.max_mismatch() <= tol,
              curve.max_mismatch(), tol, "cylinder sums"),
        Check("limit at q=1 equals measure entropy",
              abs(curve.limit_at_one - curve.entropy) <= tol,
              curve.limit_at_one, tol, f"entropy={curve.entropy:.12g}"),
    ]
    return TaskResult("correlation",
                      {"limit_at_one": curve.limit_at_one, "n": n},
                      checks,
                      {"correlation": (("q", "h_formula", "h_direct"), rows)})


def _task_vp_check(cfg: ExperimentConfig) -> TaskResult:
    system = cfg.build_system()
    potential = cfg.build_potential(system)
    count = cfg.budget.get("samples", 200)
    rng = np.random.default_rng(cfg.seed)
    mu = equilibrium_markov(system, potential)
    # vp_residual without re-solving the pressure, over one stack of chains
    pi, P, entropy = perturbed_chains(mu, count, rng)
    worst = float(np.min(mu.pressure - (entropy + mu.integrate(potential, (pi, P)))))
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
    model = compactify.LineDoublingModel()
    arc_count = cfg.budget.get("arc_count", 64)
    n_range = tuple(cfg.budget.get("n_range", (16, 40)))
    line_est, circle_est = compactify.compactification_transfer_check(
        model, arc_count=arc_count, n_range=n_range)
    combined = 2 * max(line_est.bracket[1] - line_est.bracket[0],
                       circle_est.bracket[1] - circle_est.bracket[0], 1e-3)
    checks = [
        Check("line and circle covers agree",
              abs(line_est.value - circle_est.value) <= combined,
              abs(line_est.value - circle_est.value), combined,
              "cover transfer"),
        Check("both estimates near pi",
              abs(line_est.value - math.pi) <= 0.05
              and abs(circle_est.value - math.pi) <= 0.05,
              circle_est.value, 0.05, f"pi={math.pi:.12g}"),
    ]
    return TaskResult("transfer_check",
                      {"line": line_est.value, "circle": circle_est.value},
                      checks)


def _task_property_suite(cfg: ExperimentConfig) -> TaskResult:
    """A fast bundle of the structural identities, one check per property."""
    system = make_full_shift(2)
    zero = Potential.zero(system)
    phi = Potential.depth_one(system, [0.0, math.log(2.0)])
    cover = Cover(system, 1)
    whole = SubsetSpec.whole(system)
    tol = cfg.budget.get("tol", 1e-4)
    rng = np.random.default_rng(cfg.seed)

    def chain():
        est_p = critical_alpha(whole, phi, cover, tol)
        lo, _ = capacity_pressures(whole, phi, cover, 20)
        return Check("chain P <= lower capacity",
                     est_p.value <= lo.value + 2 * tol,
                     est_p.value, 2 * tol, "internal chain")

    def monotone():
        z1 = SubsetSpec.cylinders(system, [(0, 0)])
        z2 = SubsetSpec.cylinders(system, [(0,)])
        p1 = critical_alpha(z1, phi, cover, tol).value
        p2 = critical_alpha(z2, phi, cover, tol).value
        return Check("monotone under subset inclusion", p1 <= p2 + 2 * tol,
                     p2 - p1, 2 * tol, "nested cylinders")

    def union():
        z1 = SubsetSpec.cylinders(system, [(0, 0)])
        z2 = SubsetSpec.cylinders(system, [(1, 0)])
        z12 = SubsetSpec.cylinders(system, [(0, 0), (1, 0)])
        p = critical_alpha(z12, phi, cover, tol).value
        pm = max(critical_alpha(z1, phi, cover, tol).value,
                 critical_alpha(z2, phi, cover, tol).value)
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
        p = critical_alpha(sub, zero, cover, tol).value
        lo, hi = capacity_pressures(sub, zero, cover, 24)
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

    File contents depend only on the config and seed (timings and other
    run-specific data stay out), so reruns are byte-identical.
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
            lines += [",".join(str(c) for c in row) for row in rows]
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
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
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
    raw["task"] = "property_suite" if task == "suite" else task
    if args.tol is not None:
        raw.setdefault("budget", {})["tol"] = args.tol
    if args.seed is not None:
        raw["seed"] = args.seed

    try:
        config = ExperimentConfig.from_dict(raw)
        report = run(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (NoUniquePerronError, ConvergenceError, InconclusiveError,
            IncreaseDepthError) as exc:
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
