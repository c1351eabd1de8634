import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ergopress import Potential, SubsetSpec
from ergopress.cli import (
    Check,
    ConfigError,
    ExperimentConfig,
    RunReport,
    TaskResult,
    _q_grid,
    emit_tables,
    main,
    run,
)


def make_config(task, **overrides):
    raw = {
        "task": task,
        "system": {"kind": "full_shift", "k": 2},
        "potential": {"kind": "table", "depth": 1,
                      "table": {"0": 0.0, "1": math.log(2)}},
        "budget": {"tol": 1e-4, "n_max": 16},
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfigValidation:
    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            ExperimentConfig.from_dict({"task": "prognosticate"})

    def test_non_square_matrix_names_field(self):
        with pytest.raises(ConfigError, match="system.adjacency"):
            ExperimentConfig.from_dict({
                "task": "pressure",
                "system": {"kind": "sft", "adjacency": [[1, 1], [1]]},
            })

    def test_bad_alphabet_size(self):
        with pytest.raises(ConfigError, match="system.k"):
            ExperimentConfig.from_dict({
                "task": "pressure", "system": {"kind": "full_shift", "k": 1}})

    @pytest.mark.parametrize("k, depth", [(2, 63), (3, 40)])
    def test_deepest_cover_within_int64_accepted(self, k, depth):
        # k**(depth - 1) < 2**63 <= k**depth, on the k-cycle, whose k
        # blocks of every length stay far below the block-state bound
        cycle = np.roll(np.eye(k, dtype=int), 1, axis=1).tolist()
        ExperimentConfig.from_dict({
            "task": "pressure", "system": {"kind": "sft", "adjacency": cycle},
            "budget": {"depths": [depth]}})
        with pytest.raises(ConfigError, match="int64"):
            ExperimentConfig.from_dict({
                "task": "pressure",
                "system": {"kind": "sft", "adjacency": cycle},
                "budget": {"depths": [depth + 1]}})

    @pytest.mark.parametrize("system, depth", [
        # 2**20 blocks of 20 symbols, then 2**21
        ({"kind": "full_shift", "k": 2}, 21),
        # 832,040 golden-mean blocks of 28 symbols, then 1,346,269
        ({"kind": "sft", "adjacency": [[1, 1], [1, 0]]}, 29),
    ])
    def test_block_states_bounded(self, system, depth):
        # the bound reads the config only: no block graph is built
        ExperimentConfig.from_dict({"task": "capacity", "system": system,
                                    "budget": {"depths": [depth]}})
        for depths in ([depth + 1], [1, 30]):
            with pytest.raises(ConfigError,
                               match=r"'budget.depths'.*at most 1048576"):
                ExperimentConfig.from_dict({"task": "capacity",
                                            "system": system,
                                            "budget": {"depths": depths}})

    def test_negative_tolerance(self):
        with pytest.raises(ConfigError, match="budget.tol"):
            make_config("pressure", budget={"tol": -1.0})

    @pytest.mark.parametrize("q_grid", [
        [0.0, 2.0, 2.0, 3.0],
        {"lo": 0.0, "hi": 1e-12, "step": 1e-13},  # rounds to repeats
    ])
    @pytest.mark.parametrize("task", ["spectrum", "correlation"])
    def test_repeated_q_rejected(self, task, q_grid):
        with pytest.raises(ConfigError, match="budget.q_grid"):
            make_config(task, budget={"q_grid": q_grid})

    def test_correlation_grid_excludes_one(self):
        with pytest.raises(ConfigError, match="q_grid"):
            make_config("correlation", budget={"q_grid": [0.5, 1.0, 2.0]})

    def test_correlation_grid_band_around_one(self):
        with pytest.raises(ConfigError, match=r"\|q - 1\| > 1e-5"):
            make_config("correlation", budget={"q_grid": [0.5, 1 + 5e-6]})
        cfg = make_config("correlation", budget={"q_grid": [0.5, 1 + 2e-5]})
        assert cfg.budget["q_grid"] == [0.5, 1 + 2e-5]

    def test_bad_potential_kind(self):
        with pytest.raises(ConfigError, match="potential.kind"):
            make_config("pressure", potential={"kind": "wavelet"})

    def test_top_level_keys_unchecked(self):
        # a direct-call job keeps its own parameters beside the config
        make_config("spectrum", sample_count=2000, n=200)

    @pytest.mark.parametrize("grid, expected", [
        ({"lo": 0.0, "hi": 1.0, "step": 0.35}, [0.0, 0.35, 0.7]),
        ({"lo": 0.0, "hi": 0.3, "step": 0.1}, [0.0, 0.1, 0.2, 0.3]),
        ({"lo": -1.0, "hi": -1.0, "step": 0.5}, [-1.0]),
    ])
    def test_q_grid_stops_at_hi(self, grid, expected):
        assert _q_grid({"q_grid": grid}).tolist() == expected

    def test_default_q_grid(self):
        grid = _q_grid({})
        assert len(grid) == 201 and grid[0] == -5.0 and grid[-1] == 5.0


class TestTasks:
    def test_pressure_task_passes(self):
        report = run(make_config("pressure"))
        assert report.passed
        result = report.results[0]
        assert result.values["pressure"] == pytest.approx(math.log(3),
                                                          abs=2e-4)
        assert "pressure_diagnostics" in result.tables

    def test_capacity_task(self):
        report = run(make_config(
            "capacity",
            system={"kind": "sft", "adjacency": [[1, 1], [1, 0]]},
            potential={"kind": "zero"},
            budget={"n_max": 30, "tol": 1e-3}))
        assert report.passed
        golden = math.log((1 + math.sqrt(5)) / 2)
        assert report.results[0].values["cp_upper"] == pytest.approx(golden,
                                                                     abs=1e-3)
        assert report.results[0].values["n_range"] == [15, 30]

    def test_transient_cylinder_root_answers(self):
        # the only class the cylinder [1] reaches, the fixed point 9, lies
        # past W_8: both tasks answer, the capacities as (-inf, +inf)
        adj = np.zeros((10, 10), dtype=int)
        adj[0, 0] = adj[0, 1] = adj[9, 9] = 1
        adj[np.arange(1, 9), np.arange(2, 10)] = 1
        overrides = dict(system={"kind": "sft", "adjacency": adj.tolist()},
                         potential={"kind": "zero"},
                         subset={"kind": "cylinders", "words": [[1]]},
                         budget={"n_max": 8})
        values = run(make_config("capacity", **overrides)).results[0].values
        assert (values["cp_lower"], values["cp_upper"]) == (-math.inf,
                                                            math.inf)
        report = run(make_config("pressure", **overrides))
        assert report.passed
        assert abs(report.results[0].values["pressure"]) <= 1e-4

    def test_spectrum_task(self):
        report = run(make_config("spectrum",
                                 budget={"q_grid": {"lo": -2.0, "hi": 2.0,
                                                    "step": 0.1}}))
        assert report.passed
        header, rows = report.results[0].tables["spectrum"]
        assert header == ("q", "T", "alpha", "E")
        assert len(rows) == 41

    @pytest.mark.parametrize("grid,solves", [([-1.0, 0.0, 1.0], 2),
                                             ([0.5, 1.0, 2.0], 1)])
    def test_spectrum_solves_entropy_only_for_its_check(self, perron_solves,
                                                        grid, solves):
        # the topological entropy is solved only when T(0) is on the grid
        report = run(make_config("spectrum", budget={"q_grid": grid}))
        assert report.passed
        names = [c.name for c in report.results[0].checks]
        assert ("T(0) equals topological entropy" in names) == (solves == 2)
        assert len(perron_solves) == solves

    def test_spectrum_on_unequal_steps(self):
        # T decreases, so where a step of 1 follows a step of 0.5 the plain
        # second difference is negative; the convexity test must not fire
        report = run(make_config(
            "spectrum", potential={"kind": "table", "depth": 1,
                                   "table": {"0": 0.0, "1": 0.7}},
            budget={"q_grid": [-1.0, 0.0, 0.5, 1.0, 2.0]}))
        assert report.passed
        assert len(report.results[0].tables["spectrum"][1]) == 5

    def test_pressure_task_one_bisection(self, monkeypatch):
        from ergopress import coverpressure

        calls = []
        original = coverpressure.critical_alpha

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(coverpressure, "critical_alpha", counting)
        report = run(make_config("pressure", budget={
            "tol": 1e-4, "n_max": 16, "depths": [1, 2, 3]}))
        assert calls == [3]
        system = make_config("pressure").build_system()
        direct = original(SubsetSpec.whole(system),
                          Potential.depth_one(system, [0.0, math.log(2)]),
                          3, 1e-4)
        values = report.results[0].values
        assert values["pressure"] == direct.value
        assert values["bracket"] == list(direct.bracket)

    def test_correlation_task(self):
        report = run(make_config("correlation"))
        assert report.passed
        header, _ = report.results[0].tables["correlation"]
        assert header == ("q", "h_formula", "h_direct")

    def test_correlation_solves_perron_once(self, perron_solves):
        # one stack for the three formula points, the two around q = 1
        # and q = 1 itself, whose member is the equilibrium state (the
        # check reads the entropy off the curve), and one stack of the
        # chain's entrywise powers for the direct side
        report = run(make_config("correlation"))
        assert report.passed
        assert len(perron_solves) == 2

    def test_vp_check_task(self):
        report = run(make_config("vp_check", budget={"samples": 25}))
        assert report.passed

    def test_vp_check_solves_pressure_once(self, perron_solves):
        report = run(make_config("vp_check", budget={"samples": 200}))
        assert report.passed
        assert len(perron_solves) <= 3

    def test_inverse_vp_task(self):
        report = run(make_config("inverse_vp", budget={"n": 12}))
        assert report.passed

    def test_inverse_vp_solves_pressure_once(self, perron_solves):
        report = run(make_config("inverse_vp", budget={"n": 12}))
        assert report.passed
        assert len(perron_solves) == 1

    def test_gap_example_task(self):
        report = run(make_config("gap_example",
                                 system={"kind": "line_doubling"}))
        assert report.passed
        assert report.results[0].values["gap"] == pytest.approx(math.pi / 2)

    def test_transfer_check_task(self):
        report = run(make_config("transfer_check",
                                 system={"kind": "line_doubling"}))
        assert report.passed

    def test_transfer_check_sweeps_the_orbits_once(self, monkeypatch):
        # both covers' estimates come from one pass over the orbits
        from ergopress import compactify

        orbit = compactify.LineDoublingModel.orbit
        calls = []

        def counted(self, theta, steps):
            calls.append(steps)
            return orbit(self, theta, steps)

        monkeypatch.setattr(compactify.LineDoublingModel, "orbit", counted)
        report = run(make_config("transfer_check",
                                 system={"kind": "line_doubling"}))
        assert report.passed
        assert len(calls) == 1

    def test_near_pi_check_reports_the_farther_estimate(self, monkeypatch):
        from ergopress import compactify

        estimate = compactify.circle_cover_pressure

        def line_off(*args, **kwargs):
            line_est, circle_est = estimate(*args, **kwargs)
            return (dataclasses.replace(line_est, value=line_est.value + 0.1),
                    circle_est)

        monkeypatch.setattr(compactify, "circle_cover_pressure", line_off)
        report = run(make_config("transfer_check",
                                 system={"kind": "line_doubling"}))
        result = report.results[0]
        check = next(c for c in result.checks
                     if c.name == "both estimates near pi")
        assert not check.passed
        assert check.value == result.values["line"]
        assert abs(result.values["line"] - math.pi) > 0.05

    def test_property_suite(self):
        report = run(make_config("property_suite", budget={"tol": 1e-4}))
        assert report.passed
        assert len(report.results[0].checks) == 6


class TestEmitTables:
    def test_files_and_finiteness(self, tmp_path):
        report = run(make_config("capacity"))
        files = emit_tables(report, tmp_path)
        names = {f.name for f in files}
        assert "capacity_diagnostics.csv" in names
        assert "summary.json" in names
        rows = (tmp_path / "capacity_diagnostics.csv").read_text().splitlines()
        assert rows[0] == "N,log_lambda,slope"
        ns = [int(line.split(",")[0]) for line in rows[1:]]
        assert ns == sorted(ns)
        for line in rows[1:]:
            for cell in line.split(",")[1:]:
                assert math.isfinite(float(cell))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_config("spectrum",
                          budget={"q_grid": {"lo": -1.0, "hi": 1.0,
                                             "step": 0.25}})
        emit_tables(run(cfg), tmp_path / "a")
        emit_tables(run(cfg), tmp_path / "b")
        for name in ("spectrum.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_empty_report_header_only(self, tmp_path):
        report = RunReport(make_config("capacity"), [
            TaskResult("capacity", {}, [],
                       {"capacity_diagnostics": (("N", "log_lambda", "slope"),
                                                 [])})])
        emit_tables(report, tmp_path)
        assert (tmp_path / "capacity_diagnostics.csv").read_text() == \
            "N,log_lambda,slope\n"

    def test_float_cells_take_twelve_digits(self, tmp_path):
        report = RunReport(make_config("capacity"), [
            TaskResult("capacity", {}, [],
                       {"cells": (("N", "x", "note"),
                                  [(3, 0.1 + 0.2, "a"), (4, -math.inf, 0.5)])})])
        emit_tables(report, tmp_path)
        assert (tmp_path / "cells.csv").read_text() == \
            "N,x,note\n3,0.3,a\n4,-inf,0.5\n"

    def test_summary_records_oracles(self, tmp_path):
        report = run(make_config("capacity"))
        emit_tables(report, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] is True
        for check in summary["checks"]:
            assert check["oracle"]

    def test_unwritable_path_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        report = run(make_config("capacity"))
        with pytest.raises(OSError, match="io-error"):
            emit_tables(report, blocker / "out")

    def test_depth_two_table_keys(self):
        report = run(make_config(
            "pressure",
            system={"kind": "sft", "adjacency": [[1, 1], [1, 0]]},
            potential={"kind": "table", "depth": 2,
                       "table": {"0,0": 0.1, "0,1": 0.2, "1,0": 0.3}},
            budget={"tol": 1e-4, "n_max": 14, "depths": [2]}))
        assert report.passed


class TestMainEntry:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "zero"},
            "budget": {"n_max": 12},
        }))
        code = main(["capacity", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_readme_example_config(self, tmp_path, capsys):
        # every key the README's example shows must still be accepted
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"Example config:\s*```json\n(.*?)```", readme,
                          re.DOTALL)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(block.group(1))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "sft", "adjacency": [[1, 1], [1]]}}))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "system.adjacency" in capsys.readouterr().err

    @pytest.mark.parametrize("task, overrides, field", [
        ("pressure", {"system": {"kind": "line_doubling"}}, "system.kind"),
        ("capacity", {"system": {"kind": "sft",
                                 "adjacency": [[1, 1], [0, 0]]}},
         "system.adjacency"),
        ("pressure", {"potential": {"kind": "table", "depth": 1,
                                    "table": {"0": 0.5}}},
         "potential.table"),
        ("pressure", {"budget": {"n_max": 3}}, "budget.n_max"),
        ("pressure", {"potential": {"kind": "table", "depth": 2, "table": {
            "0,0": 0.0, "0,1": 0.5, "1,0": 0.25, "1,1": 1.0}},
            "budget": {"n_max": 12, "depths": [1]}}, "budget.depths"),
        ("pressure", {"budget": {"n_max": 12, "depths": [3, 2]}},
         "budget.depths"),
        ("pressure", {"budget": {"n_max": 12, "tol": "x"}}, "budget.tol"),
        ("inverse-vp", {"budget": {"n": 3}}, "budget.n"),
        ("inverse-vp", {"budget": {"n": 2.5}}, "budget.n"),
        ("gap-example", {"budget": {"arc_count": 7}}, "budget.arc_count"),
        ("transfer-check", {"budget": {"n_range": [40, 16]}},
         "budget.n_range"),
        ("vp-check", {"budget": {"samples": 0}}, "budget.samples"),
        ("spectrum", {"budget": {"q_grid": {"lo": -1.0, "hi": 1.0,
                                            "step": 0}}}, "budget.q_grid"),
        ("pressure", {"potential": {"kind": "constant"}}, "potential.value"),
        ("pressure", {"system": {"kind": "sft",
                                 "adjacency": [[1, 1], [1, 0]]},
                      "subset": {"kind": "sub_sft",
                                 "adjacency": [[1, 1], [1, 1]]}},
         "subset.adjacency"),
        ("pressure", {"system": {"kind": "sft",
                                 "adjacency": [[1, 1], [1, 0]]},
                      "subset": {"kind": "cylinders", "words": [[1, 1]]}},
         "subset.words"),
        ("vp-check", {"seed": -1}, "seed"),
        # (depth - 1)-block codes past int64
        ("pressure", {"budget": {"n_max": 12, "depths": [64]}},
         "budget.depths"),
        ("pressure", {"budget": {"n_max": 12, "depths": [10 ** 12]}},
         "budget.depths"),
        ("pressure", {"system": {"kind": "sft", "adjacency": [
            [1, 1, 0], [0, 1, 1], [1, 1, 1]]},
            "budget": {"n_max": 12, "depths": [1, 41]}}, "budget.depths"),
        # one N in the top half: the slope would be 0 / 0
        ("transfer-check", {"budget": {"n_range": [2, 3]}},
         "budget.n_range"),
        # entries of the wrong type
        ("pressure", {"system": {"kind": "sft",
                                 "adjacency": [[1, None], [1, 1]]}},
         "system.adjacency"),
        ("pressure", {"potential": {"kind": "table", "depth": 1,
                                    "table": {"0": None, "1": 0.5}}},
         "potential.table"),
        ("pressure", {"potential": {"kind": "table", "depth": 1,
                                    "table": {"0": [0.0], "1": 0.5}}},
         "potential.table"),
        # keys no task reads
        ("pressure", {"budget": {"nmax": 12}}, "budget.nmax"),
        ("pressure", {"system": {"kind": "full_shift", "k": 2, "size": 2}},
         "system.size"),
        ("pressure", {"potential": {"kind": "constant", "valu": 1.0}},
         "potential.valu"),
        ("pressure", {"subset": {"kind": "cylinders", "word": [[0]]}},
         "subset.word"),
        # fractional 0/1 entries, which a cast to int would truncate
        ("capacity", {"system": {"kind": "sft",
                                 "adjacency": [[1, 0.5], [1, 1]]}},
         "system.adjacency"),
        ("pressure", {"subset": {"kind": "sub_sft",
                                 "adjacency": [[1, 0.5], [1, 0.9]]}},
         "subset.adjacency"),
        # cylinders without their words
        ("pressure", {"subset": {"kind": "cylinders"}}, "subset.words"),
        # 10**301 grid points, counted before the grid is built
        ("spectrum", {"budget": {"q_grid": {"lo": -5, "hi": 5,
                                            "step": 1e-300}}},
         "budget.q_grid"),
        ("correlation", {"budget": {"q_grid": [2.0 + i / 1000
                                               for i in range(2002)]}},
         "budget.q_grid"),
        ("pressure", {"potential": {"kind": "named"}},
         "potential.kind"),
        # integers past the float range
        ("pressure", {"budget": {"n_max": 12, "tol": 10 ** 400}},
         "budget.tol"),
        ("pressure", {"potential": {"kind": "constant", "value": 10 ** 400}},
         "potential.value"),
        ("spectrum", {"budget": {"q_grid": [0.0, 10 ** 400]}},
         "budget.q_grid"),
        # cylinder symbols that a cast to int would truncate or parse
        ("pressure", {"subset": {"kind": "cylinders", "words": [[0.5, 1.9]]}},
         "subset.words"),
        ("pressure", {"subset": {"kind": "cylinders", "words": [["1", True]]}},
         "subset.words"),
        # JSON's Infinity, on which the cast overflows
        ("pressure", {"subset": {"kind": "cylinders",
                                 "words": [[float("inf")]]}}, "subset.words"),
        # an integer past the float range in a table value (listed last, so
        # that the cases above keep their ids)
        ("pressure", {"potential": {"kind": "table", "depth": 1,
                                    "table": {"0": 0, "1": 10 ** 400}}},
         "potential.table"),
        # JSON's true, which Python counts as the integer 1
        ("vp-check", {"budget": {"samples": True}}, "budget.samples"),
        ("pressure", {"potential": {"kind": "table", "depth": True,
                                    "table": {"0": 0.0, "1": 0.5}}},
         "potential.depth"),
        ("vp-check", {"seed": True}, "seed"),
        ("pressure", {"budget": {"n_max": 12, "depths": [True]}},
         "budget.depths"),
        ("pressure", {"potential": {"kind": "table", "depth": 1,
                                    "table": {"0": 0.0, "1": True}}},
         "potential.table"),
    ])
    def test_malformed_config_exits_two_naming_field(
            self, tmp_path, capsys, task, overrides, field):
        raw = {"system": {"kind": "full_shift", "k": 2},
               "potential": {"kind": "zero"}, "budget": {"n_max": 12}}
        raw.update(overrides)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = main([task, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_empty_sub_sft_passes_bracket_width(self, tmp_path, capsys):
        # the sub-SFT reduces to the empty set: the bracket is exact at
        # (-inf, -inf), so its width is 0 and not NaN; so is the margin of
        # the chain check, whose ends are both -inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "zero"},
            "subset": {"kind": "sub_sft", "adjacency": [[0, 1], [0, 0]]},
            "budget": {"n_max": 12, "tol": 1e-4},
        }))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "[PASS] pressure: pressure bracket width" in \
            capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        values = {c["name"]: c["value"] for c in summary["checks"]}
        assert values["chain P <= upper capacity + 2tol"] == 0.0
        assert not any(math.isnan(v) for v in values.values())

    def test_failing_t0_check_exits_one(self, tmp_path, capsys,
                                        monkeypatch):
        from ergopress import cli

        entropy = cli.topological_entropy
        monkeypatch.setattr(cli, "topological_entropy",
                            lambda system: entropy(system) + 1e-6)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "table", "depth": 1,
                          "table": {"0": 0.0, "1": 0.7}},
            "budget": {"q_grid": [-1.0, 0.0, 1.0, 2.0]},
        }))
        code = main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[FAIL] spectrum: T(0) equals topological entropy" in \
            capsys.readouterr().out

    def test_named_error_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "sft", "adjacency": [[1, 1], [0, 1]]},
            "potential": {"kind": "zero"},
            "budget": {"q_grid": [0.0, 1.0, 2.0]},
        }))
        code = main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("NoUniquePerronError: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        from ergopress import cli

        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setitem(cli._HANDLERS, "pressure", exhausted)
        code = main(["pressure", "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "MemoryError: Unable to allocate 7.28 TiB\n"
        assert not (tmp_path / "out").exists()

    def test_subnormal_tol_answers_without_overflow(self, tmp_path, capsys):
        # the bracket stops at its rounding floor, not at tol; on the full
        # 2-shift x = 1 is the Perron vector, so the bracket is symmetric
        # about log 2 and its midpoint meets the oracle bit for bit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": {"tol": 5e-324}}))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err and "OverflowError" not in err

    def test_deep_cylinder_words_move_the_window(self, tmp_path, capsys):
        # ten listed words of 22 symbols: the classes are seeded from the
        # entry words at least_n = 22, and the pressure is the full
        # shift's log(1 + e^0.7)
        rng = np.random.default_rng(1)
        words = [rng.integers(0, 2, 22).tolist() for _ in range(10)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "table", "depth": 1,
                          "table": {"0": 0.0, "1": 0.7}},
            "subset": {"kind": "cylinders", "words": words},
        }))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        values = summary["values"]["pressure"]
        assert values["n_range"] == [22, 22]
        # a cylinder union of an irreducible system meets the oracle
        assert [c["name"] for c in summary["checks"]][0] == \
            "pressure vs transfer oracle"
        assert abs(values["pressure"] - math.log(1.0 + math.exp(0.7))) \
            <= 2 * 1e-4

    def test_cover_route_past_float_range_answers(self, tmp_path, capsys):
        # e^800 leaves the float range, its log does not: the cover route
        # gives log(1 + e^800) = 800 on the sub-SFT that keeps every arc
        # (the whole space stops at the oracle's overflow, exit 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "table", "depth": 1,
                          "table": {"0": 0, "1": 800}},
            "subset": {"kind": "sub_sft", "adjacency": [[1, 1], [1, 1]]},
        }))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert abs(summary["values"]["pressure"]["pressure"] - 800.0) \
            <= 2 * 1e-4

    @pytest.mark.parametrize("task, system, table, budget", [
        # e^800 on the oracle's one matrix
        ("capacity", {"kind": "full_shift", "k": 2}, {"0": 0, "1": 800}, {}),
        # e^720 on the oracle's q-stack
        ("spectrum", {"kind": "sft", "adjacency": [[1, 1], [1, 0]]},
         {"0": 0, "1": 1}, {"q_grid": [1, 720]}),
    ])
    def test_oracle_overflow_exits_three(self, tmp_path, capsys, task,
                                         system, table, budget):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": system, "budget": budget,
            "potential": {"kind": "table", "depth": 1, "table": table},
        }))
        code = main([task, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("OverflowError: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, args, field", [
        ("[1, 2]", [], ""),
        ('{"budget": 5}', [], "budget"),
    ])
    def test_non_object_config_exits_two(self, tmp_path, capsys, text, args,
                                         field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error at '{field}': ")
        assert not (tmp_path / "out").exists()

    def test_exit_two_on_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_failed_check_exits_one(self):
        report = RunReport(make_config("capacity"), [
            TaskResult("capacity", {},
                       [Check("doomed", False, 1.0, 0.0, "test")])])
        assert not report.passed
