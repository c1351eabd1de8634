"""The benchmark's tracer still finds and restores every name it wraps.

``perfbench/spans.py`` looks each wrapped function up by name in the
library's modules and classes, so renaming or deleting one of them
breaks ``perfbench/run.py --trace 1``; this test catches that early.
"""

import importlib.util
import math
import time
from pathlib import Path

import ergopress
from ergopress import cli, compactify, coverpressure, multifractal, shifts, transfer

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = (ergopress, shifts, coverpressure, transfer, multifractal,
           compactify, cli)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """Every module attribute, and every attribute of each traced class."""
    owners = list(MODULES)
    for mod, path, *_ in spans.SPANS:
        *cls_path, _ = path.split(".")
        if cls_path:
            owners.append(getattr(getattr(ergopress, mod), cls_path[0]))
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items()}


def _config(task, budget):
    return cli.ExperimentConfig.from_dict({
        "task": task,
        "system": {"kind": "sft", "adjacency": [[1, 1], [1, 0]]},
        "potential": {"kind": "table", "depth": 1,
                      "table": {"0": 0.0, "1": math.log(2)}},
        "budget": budget,
    })


def test_tracer_installs_records_and_uninstalls():
    spans = _load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for task, budget in (("pressure", {"n_max": 12, "tol": 1e-4}),
                             ("inverse_vp", {"n": 12})):
            cli.run(_config(task, budget))
        pass_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert tracer.problems(pass_s) == []
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "coverpressure.refined", "transfer.inverse_vp",
            "transfer.matrix", "shifts.potential"} <= names
    assert tracer.counts["shifts.potentials_built"] > 0
    after = _bindings(spans)
    assert all(after.get(key) is value for key, value in before.items())


def test_measure_spans_are_recorded():
    # one vp_check run and one local_entropy_check call reach the
    # sampling, measure and integration spans of the array measure layer
    spans = _load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        cli.run(_config("vp_check", {"samples": 20}))
        system = shifts.golden_mean_shift()
        multifractal.local_entropy_check(
            system, shifts.Potential.depth_one(system, [0.0, 1.0]), 50, 30)
        pass_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert tracer.problems(pass_s) == []
    names = {span[0] for span in tracer.spans}
    assert {"transfer.sample", "transfer.measure", "transfer.integrate",
            "multifractal.local_entropy"} <= names
    assert tracer.counts["transfer.samples_drawn"] == 50
    after = _bindings(spans)
    assert all(after.get(key) is value for key, value in before.items())
