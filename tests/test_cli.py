import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from peplift import cli, config
from peplift.cli import main
from peplift.schedules import SILVER_RATIO


def one_short_error_line(capsys) -> str:
    """The usage error's one stderr line, which must stay under 300 bytes."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err.encode()) < 300
    return err


# a value whose repr would make an error line of about a megabyte
BIG = "x" * 10**6


@pytest.fixture()
def lasso_spec_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "lasso", "dim": 8, "rows": 16, "seed": 4, "tau": 0.1}))
    return str(path)


class TestCertify:
    def test_pass_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["certify", "--algo", "ogm", "--metric", "func", "--n", "16", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["residuals"]["quad"] < 1e-9 * doc["scale"]

    def test_incompatible_pair_is_usage_error(self):
        assert main(["certify", "--algo", "silver", "--metric", "grad", "--k", "2"]) == 2

    def test_zero_size_is_usage_error(self):
        assert main(["certify", "--algo", "ogm", "--metric", "func", "--n", "0"]) == 2

    def test_missing_size_flag_is_usage_error(self):
        assert main(["certify", "--algo", "silver", "--metric", "func", "--n", "3"]) == 2

    def test_tolerance_override(self, monkeypatch):
        monkeypatch.setattr(config, "REL_TOL", 1e-30)  # stricter than rounding noise
        assert main(["certify", "--algo", "silver", "--metric", "func", "--k", "4"]) == 1
        monkeypatch.setattr(config, "REL_TOL", 1e-6)
        assert main(["certify", "--algo", "silver", "--metric", "func", "--k", "4"]) == 0

    def test_tolerance_ignores_environment(self, monkeypatch):
        # the identity tolerance is fixed: no variable can tighten or loosen a verdict
        monkeypatch.setenv("PEPLIFT_TOL", "1e-30")
        assert main(["certify", "--algo", "silver", "--metric", "func", "--k", "4"]) == 0

    def test_json_report_states_the_fixed_tolerance(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PEPLIFT_TOL", "1e-6")
        out = tmp_path / "certify.json"
        assert main(["certify", "--algo", "ogm", "--metric", "func", "--n", "16", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["tol"] == config.REL_TOL == 1e-9


class TestLift:
    def test_silver_paper_xi(self, tmp_path):
        out = tmp_path / "lift.json"
        assert main(["lift", "--algo", "silver", "--metric", "func", "--k", "4",
                     "--xi", "paper", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        rho = SILVER_RATIO
        assert doc["rate"] == pytest.approx(rho / (math.sqrt(2) * (4 * rho**4 - 2)), rel=1e-12)
        assert doc["paper_rate"] == pytest.approx(doc["rate"], rel=1e-12)
        assert doc["laplacian_ok"] and doc["pass"]

    def test_pseudo_xi_reports_diagnostic(self, tmp_path):
        out = tmp_path / "lift.json"
        # PSD-feasible at the minimal xi, so the command succeeds even though
        # the report marks the Laplacian route as unavailable
        assert main(["lift", "--algo", "ogm", "--metric", "func", "--n", "6",
                     "--xi", "pseudo", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0 < doc["xi"] <= doc["xi_paper"] + 1e-12
        assert doc["laplacian_ok"] is False

    def test_verdict_reads_the_identity_tolerance(self, monkeypatch, tmp_path):
        # a lift report has no tol key, so its pass flag must come from config.REL_TOL alone
        out = tmp_path / "lift.json"
        argv = ["lift", "--algo", "silver", "--metric", "func", "--k", "4", "--xi", "paper", "--json", str(out)]
        monkeypatch.setattr(config, "REL_TOL", 1e-30)  # stricter than rounding noise
        assert main(argv) == 1
        assert json.loads(out.read_text())["pass"] is False
        monkeypatch.setattr(config, "REL_TOL", 1e-9)
        monkeypatch.setenv("PEPLIFT_TOL", "1e-30")
        assert main(argv) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_negative_xi_is_usage_error(self):
        assert main(["lift", "--algo", "silver", "--metric", "func", "--k", "2", "--xi", "-1"]) == 2

    def test_grad_pseudo_is_usage_error(self):
        assert main(["lift", "--algo", "gsw", "--metric", "grad", "--k", "2", "--xi", "pseudo"]) == 2

    @pytest.mark.parametrize("algo,metric,xi", [
        ("silver", "func", "inf"), ("silver", "func", "nan"), ("gsw", "grad", "inf"), ("gsw", "grad", "nan"),
    ])
    def test_non_finite_xi_is_usage_error(self, capsys, algo, metric, xi):
        assert main(["lift", "--algo", algo, "--metric", metric, "--k", "2", "--xi", xi]) == 2
        assert "xi must" in capsys.readouterr().err

    def test_long_xi_is_one_short_error_line(self, capsys):
        assert main(["lift", "--algo", "silver", "--metric", "func", "--k", "2", "--xi", BIG]) == 2
        one_short_error_line(capsys)

    @pytest.mark.parametrize("algo,metric,size_flag,size", [
        ("ogm", "func", "--n", "1024"),
        ("ogmg", "grad", "--n", "1024"),
        ("silver", "func", "--k", "10"),
        ("gsw", "grad", "--k", "10"),
    ])
    def test_largest_claimed_sizes(self, tmp_path, algo, metric, size_flag, size):
        out = tmp_path / "lift.json"
        assert main(["lift", "--algo", algo, "--metric", metric, size_flag, size, "--json", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_non_finite_report_value_is_null_and_exits_one(self, tmp_path):
        out = tmp_path / "lift.json"
        with pytest.warns(RuntimeWarning, match="overflow"):  # the slack's xi/2 doubles past float range
            code = main(["lift", "--algo", "ogm", "--metric", "func", "--n", "2", "--xi", "1e308", "--json", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["residuals"]["quad"] is None
        assert doc["pass"] is False

    def test_gsw_paper_rate(self, tmp_path):
        out = tmp_path / "lift.json"
        assert main(["lift", "--algo", "gsw", "--metric", "grad", "--k", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rate"] == pytest.approx(doc["paper_rate"], rel=1e-12)


class TestRun:
    def test_pogm_equals_generic_composite(self, lasso_spec_file, tmp_path):
        # the CLI only exposes the efficient form; cross-check its trace
        # against the in-process reference runner
        out = tmp_path / "trace.json"
        assert main(["run", "--algo", "pogm", "--problem", lasso_spec_file,
                     "--n", "6", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())

        from peplift.methods import run_composite, trace_summary
        from peplift.problems import initial_point, make_problem, spec_from_json
        from peplift.schedules import ogm_stepsize_matrix

        spec = spec_from_json(lasso_spec_file)
        problem = make_problem(spec)
        reference = trace_summary(run_composite(ogm_stepsize_matrix(6), problem, initial_point(spec)), problem)
        np.testing.assert_allclose(doc["obj"], reference["obj"], rtol=1e-8)

    def test_smooth_problem_reduces_to_plain_method(self, tmp_path):
        spec_path = tmp_path / "smooth.json"
        spec_path.write_text(json.dumps({"kind": "smooth_quadratic", "dim": 5, "rows": 9, "seed": 2}))
        out = tmp_path / "trace.json"
        assert main(["run", "--algo", "pogm", "--problem", str(spec_path), "--n", "5", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())

        from peplift.methods import trace_summary
        from peplift.problems import initial_point, make_problem, spec_from_json
        from peplift.schedules import ogm_stepsize_matrix
        from reference_forms import run_unconstrained_plain

        spec = spec_from_json(spec_path)
        problem = make_problem(spec)
        reference = trace_summary(run_unconstrained_plain(ogm_stepsize_matrix(5), problem, initial_point(spec)), problem)
        np.testing.assert_allclose(doc["obj"], reference["obj"], rtol=1e-10)

    def test_json_writes_overflowed_trace_entries_as_null(self, tmp_path):
        # a step of 1e30/L overflows the iterates; the reference optimum stays finite
        spec_path = tmp_path / "problem.json"
        spec_path.write_text(json.dumps({"kind": "lasso", "dim": 3, "rows": 5, "seed": 1, "tau": 0.1}))
        out = tmp_path / "trace.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--algo", "proxgd-const", "--alpha", "1e30", "--problem", str(spec_path),
                         "--n", "6", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["grad_plus_subgrad_sq"][-1] is None and doc["dist_to_opt"][-1] is None
        assert all(value is None or math.isfinite(value)
                   for name in ("obj", "grad_plus_subgrad_sq", "obj_gap", "dist_to_opt") for value in doc[name])

    def test_non_finite_reference_optimum_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "huge.json"
        spec_path.write_text(json.dumps({"kind": "lasso", "dim": 2, "tau": 0.1, "a": [[1, 0], [0, 1], [1, 1]],
                                         "b": [1e200, -1e200, 1e200]}))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--algo", "pogm", "--problem", str(spec_path), "--n", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "reference optimum" in err[0]

    def test_cache_dir_flag_is_usage_error(self, lasso_spec_file, tmp_path, capsys):
        # the reference optimum is solved on every run; no flag reads or writes a cache
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "pogm", "--problem", lasso_spec_file, "--n", "2", "--cache-dir", str(tmp_path / "cache")])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_fista_baseline_and_csv(self, lasso_spec_file, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["run", "--algo", "fista", "--problem", lasso_spec_file,
                     "--n", "30", "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 32  # header + 31 iterates

    def test_silver_rejects_bad_length(self, lasso_spec_file, monkeypatch):
        from peplift import problems

        def no_solve(*args, **kwargs):
            pytest.fail("make_problem ran for an invalid --n")

        # the length is checked before the problem's reference solve
        monkeypatch.setattr(problems, "make_problem", no_solve)
        assert main(["run", "--algo", "proxgd-silver", "--problem", lasso_spec_file, "--n", "5"]) == 2

    def test_silver_accepts_power_length(self, lasso_spec_file):
        assert main(["run", "--algo", "proxgd-silver", "--problem", lasso_spec_file, "--n", "7"]) == 0

    def test_const_runner(self, lasso_spec_file):
        assert main(["run", "--algo", "proxgd-const", "--problem", lasso_spec_file,
                     "--n", "4", "--alpha", "1.0"]) == 0

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_const_runner_rejects_alpha_before_the_reference_solve(self, lasso_spec_file, monkeypatch,
                                                                    capsys, alpha):
        from peplift import problems

        def no_solve(*args, **kwargs):
            pytest.fail("make_problem ran for an invalid --alpha")

        monkeypatch.setattr(problems, "make_problem", no_solve)
        assert main(["run", "--algo", "proxgd-const", "--problem", lasso_spec_file,
                     "--n", "4", "--alpha", alpha]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_missing_problem_file(self):
        assert main(["run", "--algo", "pogm", "--problem", "/nonexistent.json", "--n", "2"]) == 2

    @pytest.mark.parametrize("text", [
        "[]",
        '"lasso"',
        '{"dim": 3}',
        '{"kind": "lasso"}',
        '{"kind": "lasso", "dim": "a"}',
        '{"kind": "lasso", "dim": true}',
        '{"kind": "lasso", "dim": 3, "rows": -1}',
        '{"kind": "lasso", "dim": 3, "rows": 2.0}',
        '{"kind": "lasso", "dim": 3, "seed": 1.5}',
        '{"kind": "lasso", "dim": 3, "seed": -1}',
        '{"kind": "lasso", "dim": 3, "tau": "x"}',
        '{"kind": "lasso", "dim": 3, "tau": true}',
        '{"kind": "lasso", "dim": 3, "tau": NaN}',
        pytest.param('{"kind": "lasso", "dim": 3, "tau": 1' + "0" * 400 + '}', id="tau-beyond-float-range"),
        '{"kind": "boxqp", "dim": 3, "hi": Infinity}',
        '{"kind": "smooth_huber", "dim": 3, "delta": "1"}',
        '{"kind": "smooth_huber", "dim": 3, "rows": 5, "delta": 0}',
        '{"kind": "smooth_huber", "dim": 3, "rows": 5, "delta": -1}',
        '{"kind": "lasso", "dim": 2, "a": [[1, 2, 3]]}',
        '{"kind": "lasso", "dim": 2, "a": [1, 2]}',
        '{"kind": "lasso", "dim": 2, "a": [[1, 2], [3]]}',
        '{"kind": "lasso", "dim": 2, "a": [["x", 2]]}',
        '{"kind": "lasso", "dim": 2, "a": [[1, NaN]]}',
        '{"kind": "lasso", "dim": 2, "a": [[1, -Infinity]]}',
        '{"kind": "lasso", "dim": 2, "a": [[1, 2]], "b": [1, 2]}',
        '{"kind": "lasso", "dim": 2, "a": [[1, 2]], "b": [[1]]}',
        '{"kind": "lasso", "dim": 2, "a": [[1, 2]], "b": [NaN]}',
        '{"kind": "lasso", "dim": 2, "b": [1]}',
        '{"kind": "lasso", "dim": 2, "a_csv": "a.csv"}',
        '{"kind": "lasso", "dim": 2, "a": [[1, 2]], "b_csv": "b.csv"}',
        # the JSON decoder recurses once per level and gives up far short of 5000
        pytest.param('{"kind": "lasso", "dim": 2, "a": ' + "[" * 5000 + "]" * 5000 + "}", id="a-nested-5000-deep"),
        # each message echoes the field short, whatever its length
        *(pytest.param(json.dumps(spec), id=f"{name}-1MB") for name, spec in (
            ("kind", {"kind": BIG, "dim": 2}),
            ("dim", {"kind": "lasso", "dim": BIG}),
            ("rows", {"kind": "lasso", "dim": 2, "rows": BIG}),
            ("seed", {"kind": "lasso", "dim": 2, "seed": BIG}),
            ("tau", {"kind": "lasso", "dim": 2, "tau": BIG}),
            ("field-name", {"kind": "lasso", "dim": 2, BIG: 1}),
        )),
    ])
    def test_malformed_problem_spec_is_usage_error(self, tmp_path, capsys, monkeypatch, text):
        from peplift import problems

        def no_solve(*args, **kwargs):
            pytest.fail("make_problem ran for a malformed spec")

        monkeypatch.setattr(problems, "make_problem", no_solve)
        path = tmp_path / "problem.json"
        path.write_text(text)
        assert main(["run", "--algo", "pogm", "--problem", str(path), "--n", "2"]) == 2
        one_short_error_line(capsys)


class TestSweep:
    def test_small_grid(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [
            {"algo": "silver", "metric": "func", "k": 2},
            {"algo": "gsw", "metric": "grad", "k": 2},
            {"algo": "ogm", "metric": "func", "n": 4, "instances": 2},
            {"algo": "ogmg", "metric": "grad", "n": 4},
        ]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        rollup = (out / "rollup.csv").read_text().strip().splitlines()
        assert len(rollup) == 5
        assert rollup[0].startswith("algorithm,metric,size")
        cell = json.loads((out / "ogm_func_4.json").read_text())
        assert cell["pass"] is True
        assert cell["observed_worst_ratio"] <= 1.0

    def test_repeated_family_and_size_get_their_own_reports(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [{"algo": "silver", "k": 2}, {"algo": "silver", "k": 2, "xi": 0.5}]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["rollup.csv", "silver_func_2.json", "silver_func_2_2.json"]
        assert json.loads((out / "silver_func_2.json").read_text())["xi"] == pytest.approx(1.0 / math.sqrt(2.0))
        assert json.loads((out / "silver_func_2_2.json").read_text())["xi"] == 0.5
        assert len((out / "rollup.csv").read_text().strip().splitlines()) == 3

    def test_non_finite_cell_writes_every_report_and_exits_one(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [
            {"algo": "ogm", "n": 2}, {"algo": "ogm", "n": 3, "xi": 1e308}, {"algo": "gsw", "k": 2},
        ]}))
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["gsw_grad_2.json", "ogm_func_2.json", "ogm_func_3.json", "rollup.csv"]
        doc = json.loads((out / "ogm_func_3.json").read_text())
        assert doc["residual_composite"] is None and doc["residuals"]["quad"] is None
        assert doc["pass"] is False
        rollup = (out / "rollup.csv").read_text().splitlines()
        fields = dict(zip(rollup[0].split(","), rollup[2].split(",")))
        assert fields["residual_composite"] == "" and fields["pass"] == "false"
        assert [line.split(",")[-1] for line in rollup[1:]] == ["true", "false", "true"]

    def test_overflow_under_warnings_as_errors_ends_the_sweep_with_no_report(self, tmp_path, capsys):
        # as under python -W error::RuntimeWarning: the overflowing cell raises,
        # so no cell's report is written and the sweep exits 1 with one error line
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [
            {"algo": "ogm", "n": 2}, {"algo": "ogm", "n": 3, "xi": 1e308}, {"algo": "gsw", "k": 2},
        ]}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "overflow" in err[0]
        assert list(out.iterdir()) == []

    def test_instances_are_built_once_per_sweep(self, tmp_path, monkeypatch):
        from peplift import problems

        built = []
        make_problem = problems.make_problem
        monkeypatch.setattr(problems, "make_problem", lambda spec: built.append(spec.seed) or make_problem(spec))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [
            {"algo": "silver", "k": 2, "instances": 2},
            {"algo": "gsw", "k": 2, "instances": 3},
            {"algo": "ogm", "n": 3, "instances": 1},
        ]}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert built == [101, 102, 103]

    def test_empty_config_is_noop_success(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": []}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0

    def test_unknown_algo_lists_valid_names(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [{"algo": "nesterov", "n": 3}]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "silver" in err and "ogmg" in err

    def test_cell_xi_gets_the_lift_range_check(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [{"algo": "gsw", "k": 2, "xi": 1.0}]}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "[0, 1)" in capsys.readouterr().err

    def test_cell_xi_beyond_float_range_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": [{"algo": "ogm", "metric": "func", "n": 2, "xi": 10**400}]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "xi must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cells", [
        [{"algo": "silver", "metric": "func", "k": 2}, {"algo": "silver", "metric": "func", "k": 2, "xi": -1}],
        [{"algo": "ogm", "n": 2}, {"algo": "ogm", "n": 3, "xi": 0}],
        [{"algo": "gsw", "k": 2}, {"algo": "gsw", "k": 2, "xi": "pseudo"}],
        [{"algo": "ogmg", "n": 2}, {"algo": "ogmg", "n": 3, "xi": -0.5}],
    ], ids=["silver-negative", "ogm-zero", "gsw-pseudo", "ogmg-negative"])
    def test_out_of_range_xi_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch, cells):
        def refuse(*args):
            raise AssertionError("a cell ran before the config was checked")

        monkeypatch.setattr(cli, "_sweep_cell", refuse)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"cells": cells}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: xi must")

    def test_deeply_nested_config_is_one_error_line(self, tmp_path, capsys):
        # written as text: json.dumps recurses once per level too
        path = tmp_path / "sweep.json"
        path.write_text('{"cells": [' + '{"algo": ' * 3000 + '"silver"' + "}" * 3000 + "]}")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sweep config is nested too deeply to decode\n"
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        [{"algo": "silver", "k": 2}],
        {"cells": {"algo": "silver", "k": 2}},
        {"cells": [{"algo": "silver", "k": 2}, "silver"]},
        {"cells": [{"algo": "silver", "k": 2}, {"algo": "silver"}]},
        {"cells": [{"algo": "silver", "k": 2}, {"algo": "silver", "k": 2.7}]},
        {"cells": [{"algo": "silver", "k": 2}, {"algo": "silver", "k": True}]},
        {"cells": [{"algo": "silver", "k": 2}, {"algo": "silver", "k": 2, "xi": [1]}]},
        {"cells": [{"algo": "silver", "k": 2}, {"algo": "silver", "k": 2, "instances": 1.5}]},
        {"cells": [{"algo": "silver", "k": 2}, {"algo": ["silver"], "k": 2}]},
        # each message echoes the cell or field short, whatever its length
        *({"cells": [{"algo": "silver", "k": 2}, cell]} for cell in (
            BIG,
            list(range(10**5)),
            {"algo": BIG, "k": 2},
            {"algo": "silver", "metric": BIG, "k": 2},
            {"algo": "silver", "k": BIG},
            {"algo": "ogm", "n": BIG},
            {"algo": "silver", "k": 2, "xi": BIG},
            {"algo": "silver", "k": 2, "instances": BIG},
        )),
    ], ids=["list", "cells-object", "cell-string", "missing-k", "float-k", "bool-k", "list-xi",
            "float-instances", "list-algo", "cell-string-1MB", "cell-list-1MB", "algo-1MB", "metric-1MB",
            "k-1MB", "n-1MB", "xi-1MB", "instances-1MB"])
    def test_malformed_config_rejected_before_any_cell_runs(self, tmp_path, capsys, config):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        one_short_error_line(capsys)
        assert not out.exists()


class TestTooLargeToAllocate:
    """A size whose arrays numpy refuses to allocate (TiB-scale, refused
    before any of it is allocated) is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--algo", "ogm", "--metric", "func", "--n", "1000000"],
        ["lift", "--algo", "ogmg", "--metric", "grad", "--n", "1000000"],
    ], ids=["certify-ogm", "lift-ogmg"])
    def test_cell(self, capsys, argv):
        assert main(argv) == 2
        assert "Unable to allocate" in one_short_error_line(capsys)

    def test_run_problem(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"kind": "lasso", "dim": 10**6}))
        assert main(["run", "--algo", "pogm", "--problem", str(path), "--n", "2"]) == 2
        assert "Unable to allocate" in one_short_error_line(capsys)

    def test_memory_error_without_a_message_is_named(self, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_certify", out_of_memory)
        assert main(["certify", "--algo", "ogm", "--metric", "func", "--n", "2"]) == 2
        assert one_short_error_line(capsys) == "error: MemoryError\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "peplift", "certify", "--algo", "ogmg", "--metric", "grad", "--n", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_overflow_under_warnings_as_errors_is_one_error_line(self):
        # the slack's xi/2 doubles past float range in the composite identity;
        # as an error it still exits 1, the cell's FAIL without -W
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "peplift", "lift", "--algo", "ogm",
             "--metric", "func", "--n", "2", "--xi", "1e308"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]

    def test_usage_error_exit_code_from_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "peplift", "certify", "--algo", "bogus", "--metric", "func", "--n", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
