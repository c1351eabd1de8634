"""One workload run in a fresh process: set up, run passes, report.

Started by ``run.py``, which has already set the BLAS thread variables
and put the checkout's ``src`` on ``PYTHONPATH``.  With ``--probe`` the
process only sets up (imports the library, generates the jobs) and
prints how long that took since ``--t0``.  Otherwise it runs the job
list pass after pass, one job at a time, until ``--seconds`` would be
exceeded (at least two passes), and prints one JSON line with the raw
measurements.

Every time is paired with the time of a fixed reference loop run close
to it: after set-up, and in a pass before the first job, after the last
and between jobs once ``REF_EVERY_S`` seconds have passed since the
previous loop.  A job's reference time is the mean of the two loops that
bracket it.  ``run.py`` divides by it to take the machine's speed
swings out of the gated timings.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from itertools import repeat
from pathlib import Path


REF_EVERY_S = 0.2   # longest stretch of jobs between reference loops
REF_SETUP_LOOPS = 3  # reference loops after set-up; the median is kept


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference() -> float:
    """Time one run of a fixed pure-Python loop (about 6 ms).

    The loop only touches small cached ints, so it allocates nothing and
    its time does not depend on the state of the heap.
    """
    start = time.perf_counter()
    s = 0
    for _ in repeat(None, 100_000):
        s = (s * 31 + 7) & 255
    return time.perf_counter() - start


def _setup(src: Path, workload: str, seed: int):
    """Import the library from ``src`` and generate the job list."""
    import ergopress
    from ergopress import cli

    if not Path(ergopress.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ergopress imported from {ergopress.__file__}, "
                          f"not from {src}")
    from workloads import generate
    return cli, generate(workload, seed)


def _origin_module(exc: BaseException) -> str:
    """Innermost ergopress module on the traceback of ``exc``."""
    origin = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        parts = Path(frame.f_code.co_filename).parts
        if len(parts) >= 2 and parts[-2] == "ergopress":
            origin = parts[-1].removesuffix(".py")
    return origin


class Runner:
    """Executes jobs and keeps the record of their outcomes.

    An operation is one job of the list, run once per pass.  It fails if
    any of its executions fails, so the counts depend only on the job
    list, never on how many passes fit into the measuring time.
    """

    def __init__(self, cli, jobs, out_root: Path):
        self.cli = cli
        self.jobs = jobs
        self.out_root = out_root
        self.reference: dict[str, object] = {}   # job id -> first output
        self.job_causes: dict[str, set[str]] = {j.id: set() for j in jobs}
        self.executions = 0
        self.mismatches = 0
        self.stats: dict = {}   # the last pass: checks failed, raises

    def _execute(self, job, out: Path):
        """Run one job; return its (check name, passed) pairs."""
        if job.task == "local_entropy":
            from ergopress import multifractal
            cfg = self.cli.ExperimentConfig.from_dict(
                dict(job.config, task="spectrum"))
            system = cfg.build_system()
            fraction = multifractal.local_entropy_check(
                system, cfg.build_potential(system),
                job.config["sample_count"], job.config["n"],
                seed=job.config["seed"])
            out.mkdir(parents=True)
            (out / "local_entropy.txt").write_text(f"{fraction!r}\n")
            return [("local entropy fraction >= 0.97", fraction >= 0.97)]
        cfg = self.cli.ExperimentConfig.from_dict(job.config)
        report = self.cli.run(cfg)
        self.cli.emit_tables(report, out)
        return [(c.name, bool(c.passed))
                for r in report.results for c in r.checks]

    def run_pass(self, index: int, tracer=None):
        """Run every job once; return (job times, their reference times).

        The reference loops are not part of any job time.
        """
        pass_dir = self.out_root / f"pass{index}"
        outcomes = []
        times, refs = [], []
        ref, segment = reference(), 0
        last_ref = time.perf_counter()
        for j, job in enumerate(self.jobs):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                ref, segment = self._close(refs, ref, j - segment), j
                last_ref = time.perf_counter()
            if tracer is not None:
                tracer.job = j
            t0 = time.perf_counter()
            try:
                checks, exc = self._execute(job, pass_dir / job.id), None
            except Exception as err:  # a job that raises is a counted failure
                checks, exc = [], err
            times.append(time.perf_counter() - t0)
            outcomes.append((checks, exc))
        self._close(refs, ref, len(self.jobs) - segment)
        self.stats = {"checks_failed": 0, "raised": {}}
        for job, (checks, exc) in zip(self.jobs, outcomes):
            self._account(job, checks, exc, pass_dir / job.id)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return times, refs

    @staticmethod
    def _close(refs: list[float], before: float, jobs: int) -> float:
        """End a stretch of ``jobs`` jobs: give each the mean of the
        reference loops before and after it, and return the new loop's time.
        """
        after = reference()
        refs += [(before + after) / 2.0] * jobs
        return after

    def _account(self, job, checks, exc, out: Path):
        causes = []
        if exc is not None:
            module = _origin_module(exc)
            raised = self.stats["raised"]
            raised[module] = raised.get(module, 0) + 1
            causes.append(f"raise:{job.task}:{module}:{type(exc).__name__}")
            output = f"raised {type(exc).__name__}: {exc}"
        else:
            output = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for name, passed in checks:
            if not passed:
                self.stats["checks_failed"] += 1
                causes.append(f"check:{job.task}:{name}")
        first = self.reference.setdefault(job.id, output)
        if output != first:
            self.mismatches += 1
            causes.append(f"mismatch:{job.task}:output differs from pass 0")
        self.executions += 1
        self.job_causes[job.id].update(causes)

    def outcome(self) -> dict:
        """Jobs attempted and failed, and the failed jobs per cause."""
        causes: dict[str, int] = {}
        for seen in self.job_causes.values():
            for cause in seen:
                causes[cause] = causes.get(cause, 0) + 1
        return {"attempted": len(self.job_causes),
                "failed": sum(1 for seen in self.job_causes.values() if seen),
                "executions": self.executions, "causes": causes}


def _versions() -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    cli, jobs = _setup(args.src, args.workload, args.seed)
    setup_s = _now() - args.t0
    setup = {"setup_s": setup_s, "setup_ref_s": statistics.median(
        reference() for _ in range(REF_SETUP_LOOPS))}
    if args.probe:
        print(json.dumps(setup))
        return 0

    import resource

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    out_root = Path(tempfile.mkdtemp(prefix="out-", dir=args.workdir))
    untraced, traced, span_log = [], [], []
    try:
        runner = Runner(cli, jobs, out_root)
        started = time.perf_counter()
        index = 0
        while True:
            # in a traced run, odd passes are traced and even ones are not
            trace_this = tracer is not None and index % 2 == 1
            if trace_this:
                tracer.reset()
                tracer.install()
            pass_start = time.perf_counter()
            try:
                times, refs = runner.run_pass(index, tracer if trace_this
                                              else None)
            finally:
                if trace_this:
                    tracer.uninstall()
            wall = time.perf_counter() - pass_start
            if trace_this:
                pass_s = sum(times)
                traced.append(dict(runner.stats, pass_s=pass_s, ref_s=refs,
                                   job_s=times,
                                   top_level_s=tracer.top_level_time(),
                                   self_s=tracer.self_times(),
                                   span_problems=tracer.problems(pass_s),
                                   counts=dict(tracer.counts)))
                span_log.append(tracer.spans)
            else:
                untraced.append({"job_s": times, "ref_s": refs})
            index += 1
            elapsed = time.perf_counter() - started
            if index >= 2 and elapsed + wall > args.seconds:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    trace_file = None
    if tracer is not None:
        trace_file = args.workdir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "jobs": [j.id for j in jobs], "passes": span_log}, fh)
    result = {
        **setup,
        "passes": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **runner.outcome(),
        "mismatches": runner.mismatches,
        "jobs": [{"id": j.id, "task": j.task, "sizes": j.sizes} for j in jobs],
        "traced": traced,
        "trace_file": str(trace_file) if trace_file else None,
        "versions": _versions(),
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
