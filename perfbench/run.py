"""Benchmark of the ergopress CLI on three seeded workloads.

    python3 perfbench/run.py --workload cover-random --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src`` directory; without it the benchmark exits with code 2
and prints no result.  Each run spawns fresh processes: a few that only
set up (to time start-up), then one that runs the workload's job list
pass after pass, one job at a time, through ``ergopress.cli.run`` and
``cli.emit_tables``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-module metrics of a
traced run with ``--trace 1``.  The lines before it give every metric
with its sample count, the failures by cause, the generated sizes and
the environment.  Gated times are scaled to the machine's speed as a
fixed reference loop measures it next to them (see ``REF_NOMINAL_S``);
the raw seconds are printed too.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

WORKLOADS = ("cover-random", "oracle-spectrum", "enum-scale")
SETUP_PROBES = 6          # set-up-only processes per run, plus the worker
# Time a run may take beyond --seconds: set-up probes, the worker's
# set-up and one pass that overruns the measuring time.
SLACK_S = 90.0
# Gated times are reported in seconds on a machine where one reference
# loop (worker.reference) takes this long: a time t measured next to a
# loop of r seconds is reported as t * REF_NOMINAL_S / r.
REF_NOMINAL_S = 6.0e-3

# Module whose self time should be largest in a traced pass.
EXPECTED_TOP = {
    "cover-random": ("coverpressure",),
    "oracle-spectrum": ("transfer",),
    "enum-scale": ("shifts", "transfer", "compactify"),
}

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("job_p50_s", "s"),
    ("ok_share", "ratio"), ("peak_rss_mb", "MB"),
)

# Exact counts and ratios per module, read from the traced pass.
_COUNTS = {
    "shifts": ("words_enumerated", "tuple_iter_calls", "potentials_built",
               "cylinder_words"),
    "coverpressure": ("bisection_steps", "weight_evals", "lambda_evals"),
    "transfer": ("matrices_built", "matrix_dim_max", "power_iterations",
                 "samples_drawn"),
    "multifractal": ("q_points",),
    "compactify": ("circle_calls",),
    "cli": ("bytes_written", "checks_failed", "jobs_raised"),
}
_RATIOS = {"coverpressure": ("weak_share",), "transfer": ("typical_share",)}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-module metric of a traced run, with its unit."""
    names = []
    for module in MODULES:
        names += [(f"{span}_s", "s") for span in SPAN_NAMES
                  if span.startswith(module + ".")]
        names += [(f"{module}.{c}", "bytes" if c == "bytes_written"
                   else "count") for c in _COUNTS[module]]
        names += [(f"{module}.{r}", "ratio") for r in _RATIOS.get(module, ())]
        names += [(f"{module}.raised", "count"), (f"{module}.self_s", "s")]
    return names + [("bench.unattributed_s", "s"),
                    ("bench.trace_overhead_share", "ratio")]


def percentile_tail(values: list[float]) -> tuple[str, float] | None:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for level in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - level) / 100.0 >= 10:
            ordered = sorted(values)
            k = min(n - 1, int(level / 100.0 * n))
            return f"p{level:g}", ordered[k]
    return None


def spawn(extra: list[str], env: dict, timeout: float) -> str:
    """Start a worker process, wait for it and return its last stdout line."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0),
           "--src", str(SRC), "--workdir", str(WORKDIR)] + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Times at the reference machine speed (see REF_NOMINAL_S)."""
    return [t * REF_NOMINAL_S / r for t, r in zip(times, refs)]


def end_to_end(raw: dict, setups: list[dict]) -> dict:
    """Gated value and its samples, plus the raw samples, per metric."""
    attempted, failed = raw["attempted"], raw["failed"]
    setup_raw = [p["setup_s"] for p in setups]
    setup = scaled(setup_raw, [p["setup_ref_s"] for p in setups])
    passes = [scaled(p["job_s"], p["ref_s"]) for p in raw["passes"]]
    pass_s = [sum(p) for p in passes]
    pass_raw = [sum(p["job_s"]) for p in raw["passes"]]
    jobs = [t for p in passes for t in p]
    jobs_raw = [t for p in raw["passes"] for t in p["job_s"]]
    return {
        "setup_s": (statistics.median(setup), setup, setup_raw),
        "pass_s": (statistics.median(pass_s), pass_s, pass_raw),
        "job_p50_s": (statistics.median(jobs), jobs, jobs_raw),
        "ok_share": (1.0 - failed / attempted, None, None),
        "peak_rss_mb": (raw["peak_rss_mb"], None, None),
    }


def per_layer(raw: dict) -> dict:
    traced = raw["traced"]

    def speed(p):
        """Factor that scales the raw times of traced pass p."""
        return sum(scaled(p["job_s"], p["ref_s"])) / p["pass_s"]

    def med(fn):
        return statistics.median(fn(p) * speed(p) for p in traced)

    first = traced[0]
    counts = dict(first["counts"],
                  **{"cli.checks_failed": first["checks_failed"],
                     "cli.jobs_raised": sum(first["raised"].values())})
    values = {f"{span}_s": med(lambda p: p["self_s"][span])
              for span in SPAN_NAMES}
    for module in MODULES:
        for c in _COUNTS[module]:
            values[f"{module}.{c}"] = counts.get(f"{module}.{c}", 0)
        values[f"{module}.raised"] = first["raised"].get(module, 0)
        values[f"{module}.self_s"] = med(lambda p: sum(
            t for span, t in p["self_s"].items()
            if span.startswith(module + ".")))
    steps = counts.get("coverpressure.bisection_steps", 0)
    enumerated = counts.get("transfer.inverse_vp_enumerated", 0)
    values["coverpressure.weak_share"] = \
        counts.get("coverpressure.weak", 0) / steps if steps else 0.0
    values["transfer.typical_share"] = \
        counts.get("transfer.inverse_vp_kept", 0) / enumerated \
        if enumerated else 0.0
    values["bench.unattributed_s"] = med(
        lambda p: p["pass_s"] - p["top_level_s"])
    untraced = statistics.median(
        sum(scaled(p["job_s"], p["ref_s"])) for p in raw["passes"])
    values["bench.trace_overhead_share"] = \
        med(lambda p: p["pass_s"]) / untraced - 1.0
    return values


def report(args, raw: dict, setups: list[dict]) -> dict:
    """Print the human-readable lines; return the metrics of this mode."""
    print(f"workload {args.workload}, seed {args.seed}: {len(raw['jobs'])} "
          f"jobs, {len(raw['passes'])} untraced and {len(raw['traced'])} "
          f"traced passes, {raw['executions']} job executions")
    e2e = end_to_end(raw, setups)
    units = dict(END_TO_END)
    for name, (value, samples, samples_raw) in e2e.items():
        line = f"  {name:14s} {value:12.6g} {units[name]:5s}"
        if samples is not None:
            line += f" median of {len(samples)}"
            tail = percentile_tail(samples)
            line += f", {tail[0]} {tail[1]:.6g}" if tail else \
                ", no percentile with 10 samples beyond it"
            line += f"; raw median {statistics.median(samples_raw):.6g} s"
        print(line)
    refs = [r for p in raw["passes"] for r in p["ref_s"]]
    print(f"  {'reference loop':14s} {statistics.median(refs):12.6g} s     "
          f"median over the passes' jobs, nominal {REF_NOMINAL_S:g} s, "
          f"range {min(refs):.4g} to {max(refs):.4g}")
    print(f"  {'failed_share':14s} {raw['failed'] / raw['attempted']:12.6g} "
          f"ratio  {raw['failed']} of {raw['attempted']} jobs failed in "
          f"some execution; failed jobs by cause:")
    for cause, n in sorted(raw["causes"].items()):
        print(f"    {n:5d}  {cause}")
    if args.trace:
        values = per_layer(raw)
        for name, unit in per_layer_names():
            print(f"  {name:38s} {values[name]:14.6g} {unit}")
        modules = {m: values[f"{m}.self_s"] for m in MODULES}
        top = max(modules, key=modules.get)
        verdict = "as expected" if top in EXPECTED_TOP[args.workload] else \
            f"MISMATCH: expected one of {EXPECTED_TOP[args.workload]}"
        print(f"  largest self time: {top} ({modules[top]:.4g} s), {verdict}")
        counts = [p["counts"] for p in raw["traced"]]
        print(f"  counts repeat across traced passes: "
              f"{all(c == counts[0] for c in counts)}")
        problems = [m for p in raw["traced"] for m in p["span_problems"]]
        print(f"  spans nest inside the traced passes: {not problems}")
        for message in problems[:10]:
            print(f"    {message}")
        print(f"  spans written to {raw['trace_file']}")
        metrics = {n: (values[n], u) for n, u in per_layer_names()}
    else:
        metrics = {n: (e2e[n][0], u) for n, u in END_TO_END}
    for job in raw["jobs"]:
        print(f"  job {job['id']:26s} {json.dumps(job['sizes'])}")
    env = {"python": sys.version.split()[0], **raw["versions"],
           "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    print("  environment:", json.dumps(env))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ergopress" / "__init__.py").is_file():
        print(f"error: no ergopress package under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(SRC))
    # set-up is timed with bytecode caches, as an installed package has them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.monotonic()

    def remaining():
        return args.seconds + SLACK_S - (time.monotonic() - started)

    probe = ["--probe", "--workload", args.workload, "--seed", str(args.seed)]
    try:
        spawn(probe, env, remaining())  # fills the bytecode caches, untimed
        setups = [json.loads(spawn(probe, env, remaining()))
                  for _ in range(SETUP_PROBES)]
        raw = json.loads(spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, remaining()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(raw)

    metrics = report(args, raw, setups)
    correct = raw["mismatches"] == 0 and not any(
        p["span_problems"] for p in raw["traced"])
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
