import json
import math

import pytest

from ergopress import Cover, Potential, SubsetSpec
from ergopress.cli import (
    Check,
    ConfigError,
    ExperimentConfig,
    RunReport,
    TaskResult,
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
        # k**(depth - 1) < 2**63 <= k**depth
        ExperimentConfig.from_dict({
            "task": "pressure", "system": {"kind": "full_shift", "k": k},
            "budget": {"depths": [depth]}})
        with pytest.raises(ConfigError, match="budget.depths"):
            ExperimentConfig.from_dict({
                "task": "pressure", "system": {"kind": "full_shift", "k": k},
                "budget": {"depths": [depth + 1]}})

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

    def test_spectrum_task(self):
        report = run(make_config("spectrum",
                                 budget={"q_grid": {"lo": -2.0, "hi": 2.0,
                                                    "step": 0.1}}))
        assert report.passed
        header, rows = report.results[0].tables["spectrum"]
        assert header == ("q", "T", "alpha", "E")
        assert len(rows) == 41

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
            calls.append(args[2].depth)
            return original(*args, **kwargs)

        monkeypatch.setattr(coverpressure, "critical_alpha", counting)
        report = run(make_config("pressure", budget={
            "tol": 1e-4, "n_max": 16, "depths": [1, 2, 3]}))
        assert calls == [3]
        system = make_config("pressure").build_system()
        direct = original(SubsetSpec.whole(system),
                          Potential.depth_one(system, [0.0, math.log(2)]),
                          Cover(system, 3), 1e-4, n_range=(8, 16))
        values = report.results[0].values
        assert values["pressure"] == direct.value
        assert values["bracket"] == list(direct.bracket)

    def test_correlation_task(self):
        report = run(make_config("correlation", budget={"n": 14}))
        assert report.passed
        header, _ = report.results[0].tables["correlation"]
        assert header == ("q", "h_formula", "h_direct")

    def test_correlation_solves_perron_twice(self, perron_solves):
        # the equilibrium state, then one stack for the three formula
        # points and the two around q = 1; the check reads the entropy
        # off the curve
        report = run(make_config("correlation", budget={"n": 14}))
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
                                 system={"kind": "line_doubling"},
                                 potential={"kind": "named", "name": "arccot"}))
        assert report.passed
        assert report.results[0].values["gap"] == pytest.approx(math.pi / 2)

    def test_transfer_check_task(self):
        report = run(make_config("transfer_check",
                                 system={"kind": "line_doubling"},
                                 potential={"kind": "named", "name": "arccot"}))
        assert report.passed

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
        ("correlation", {"budget": {"n": 2.5}}, "budget.n"),
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
        # (-inf, -inf), so its width is 0 and not NaN
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

    def test_failing_t0_check_exits_one(self, tmp_path, capsys,
                                        monkeypatch):
        from ergopress import multifractal

        entropy = multifractal.topological_entropy
        monkeypatch.setattr(multifractal, "topological_entropy",
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

    def test_cover_overflow_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"kind": "full_shift", "k": 2},
            "potential": {"kind": "table", "depth": 1,
                          "table": {"0": 0, "1": 800}},
        }))
        code = main(["pressure", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("InconclusiveError: ") and "alpha" in err
        assert "Traceback" not in err
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
