"""Command line contract: subcommands, artifacts, exit codes, determinism."""

import csv
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from annulus_flux import AmickProfile, amick_flow, build_grid, write_velocity_csv
from annulus_flux import cli
from annulus_flux.cli import main

BASE_CONFIG = {
    "grid": {"n_r": 32, "n_theta": 16, "r_inner": 1.0, "r_outer": 2.0},
    "nu": 1.0,
    "boundary": {"preset": "couette", "omega1": 1.0, "omega2": 0.0},
    "solver": {"method": "newton", "tol": 1e-10, "max_iter": 50, "lambda": 1.0},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    """BASE_CONFIG with ``overrides`` merged into its sections.

    A ``boundary`` override replaces the block: each preset reads its own keys.
    """
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict) and key != "boundary":
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def assert_phases(out, keys):
    phases = json.loads((out / "run_meta.json").read_text())["phases"]
    assert sorted(phases) == sorted(keys)
    assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())


class TestSolve:
    def test_couette_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] is True
        assert report["diagnostics"]["bernoulli_deviation"] < 1e-8
        assert (tmp_path / "out" / "fields.csv").exists()
        assert (tmp_path / "out" / "pressure.csv").exists()
        assert_phases(tmp_path / "out", ["solve_s", "write_s"])

    def test_nonconvergence_exit_code_keeps_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "boundary": {"preset": "spiral", "flux": 6.283185307179586,
                         "amplitude": 1.0, "nu": 1.0},
            "solver": {"max_iter": 1, "tol": 1e-14},
        })
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["converged"] is False
        assert len(report["residual_history"]) == 1

    def test_divergence_exit_two_keeps_report(self, tmp_path):
        # Picard at nu = 0.01 on Couette(5, 0) plus k = 2 normal data diverges
        cfg = write_config(tmp_path, {
            "grid": {"n_r": 24},
            "nu": 0.01,
            "boundary": {"preset": "fourier", "angular_outer": {"0": 10.0},
                         "normal_outer": {"2": 0.1}, "normal_inner": {"2": 0.05}},
            "solver": {"method": "picard"},
        })
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["converged"] is False
        assert len(report["steps"]) == report["iterations"] < 200
        assert {step["kind"] for step in report["steps"]} == {"picard"}

    def test_slow_divergence_exit_two_keeps_report(self, tmp_path):
        # Picard on the spiral at F = 16, nu = 0.1 grows geometrically: it
        # ran 200 steps to J = 1.4e88, its pressure overflowed, and the run
        # ended in a traceback (exit 1) with an empty output directory
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "grid": {"n_r": 32, "n_theta": 64}, "nu": 0.1,
            "boundary": {"preset": "spiral", "flux": 16.0, "amplitude": 1.0, "nu": 0.1},
            "solver": {"method": "picard"},
        }))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        report = json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)
        assert report["converged"] is False
        assert len(report["steps"]) == report["iterations"] < 200

    @pytest.mark.parametrize("overrides, prefix", [
        # a spiral viscosity of 0 divides by zero in the trace (ZeroDivisionError)
        ({"boundary": {"preset": "spiral", "flux": 1.0, "amplitude": 1.0, "nu": 0.0}},
         "boundary:"),
        # radii of 1e300 overflow the area of the annulus (OverflowError)
        ({"grid": {"r_inner": 1e300, "r_outer": 2e300}}, "grid:"),
        # coefficients of about 1.6e69 lie below DATA_BOUND and the solve
        # converges with J ~ 2e-9, but the Euler residual squares p/J^2, with
        # p ~ flux^2
        ({"grid": {"n_theta": 16, "n_r": 16},
          "boundary": {"preset": "spiral", "flux": 1e70, "amplitude": 1e-8, "nu": 1.0}},
         "solve:"),
        # lambda/nu ~ 2e199 overflows ||F||: report.json held Infinity (exit 2)
        ({"nu": 5e-200, "boundary": {"preset": "spiral", "flux": 5.0, "amplitude": 5.0,
                                     "nu": 5e-200},
          "solver": {"method": "picard", "max_iter": 1}}, "solve:"),
    ])
    def test_datum_that_overflows_rejected(self, tmp_path, capsys, overrides, prefix):
        # the first three ended in a traceback (exit 1)
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {prefix}")
        assert not (out / "report.json").exists()

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {')
        assert main(["solve", "--config", str(bad)]) == 3
        assert "line" in capsys.readouterr().err

    def test_invalid_values(self, tmp_path):
        cfg = write_config(tmp_path, {"nu": -1.0})
        assert main(["solve", "--config", str(cfg)]) == 3
        cfg = write_config(tmp_path, {"grid": {"n_theta": 63}})
        assert main(["solve", "--config", str(cfg)]) == 3
        cfg = write_config(tmp_path, {"boundary": {"preset": "martian"}})
        assert main(["solve", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "n_r", 16.7), ("grid", "n_theta", 8.9), ("solver", "max_iter", 2.5),
        ("grid", "n_r", "8"), ("solver", "max_iter", True),
    ])
    def test_non_integer_size_rejected(self, tmp_path, capsys, section, key, value):
        # a size is used as given: never truncated, never parsed from a string
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {section: {key: value}})
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        (None, "viscosity"),
        ("grid", "n_thetta"),
        ("boundary", "omega_1"),
        ("solver", "lamda"),
        ("solver", "damping"),
        ("sweep", "value"),
        ("output", "dir"),
        ("output", "formats"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key):
        # a misspelled key used to fall back to its default: the boundary
        # block below solved the zero datum and exited 0 with J = 0
        overrides = {"sweep": {"parameter": "lambda", "values": [0.5, 1.0]}}
        if section is None:
            overrides[key] = 0.5
        elif section == "boundary":
            overrides["boundary"] = {"preset": "couette", key: 3.0}
        else:
            overrides[section] = dict(overrides.get(section, {}), **{key: 1})
        out = tmp_path / "o"
        cfg = write_config(tmp_path, overrides)
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["r_inner", "r_outer"])
    def test_non_finite_radius_rejected(self, tmp_path, capsys, key):
        # json reads NaN, which passed build_grid: a NaN r_outer was caught
        # only by the boundary data bound, a NaN r_inner ended in a traceback
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"grid": {key: float("nan")}})
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "grid:" in err and key in err
        assert not out.exists()

    def test_malformed_harmonic_table_rejected(self, tmp_path, capsys):
        # a list where a table of harmonics belongs used to end in a
        # traceback with exit 1, the verification-failure code
        cfg = write_config(tmp_path, {"boundary": {"preset": "fourier",
                                                   "normal_outer": [0.1, 0.2]}})
        assert main(["solve", "--config", str(cfg), "--quiet"]) == 3
        assert "boundary" in capsys.readouterr().err

    @pytest.mark.parametrize("nu", [0.03, 0.001])
    def test_overflowing_boundary_data_rejected(self, tmp_path, capsys, nu):
        # the spiral's swirl grows as r^(1 + c/nu): about 1e102 on the outer
        # circle at nu = 0.03, past the float range at nu = 0.001.  The
        # least-squares pressure squares momentum terms of size |u|^2, so no
        # finite report exists; the config is refused instead of a traceback
        cfg = write_config(tmp_path, {
            "nu": nu,
            "boundary": {"preset": "spiral", "flux": -64.0, "amplitude": 1.0, "nu": nu},
        })
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "boundary" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_spiral_exponent_collision_rejected(self, tmp_path, capsys):
        # at c/nu = -2 the swirl A/r + B r^(1 + c/nu) cancels to zero, so the
        # datum would silently lose its swirl and report J = 0
        cfg = write_config(tmp_path, {
            "boundary": {"preset": "spiral", "flux": 4.0 * np.pi, "amplitude": 1.0, "nu": 1.0},
        })
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "collision" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {"n_r": 16, "n_theta": 8},
          "boundary": {"preset": "fourier", "normal_outer": {"4": 0.1}}},
         "trace harmonic 4 is not resolved by n_theta=8"),
        ({"boundary": {"preset": "couette", "omega1": 1.0, "r_inner": 1.5}},
         "trace and grid radii differ"),
    ])
    def test_datum_the_grid_cannot_carry_rejected(self, tmp_path, capsys, overrides, message):
        # both passed every config check and ended in a traceback inside
        # solve (exit 1), raised by the stream data of the datum
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert f"config error: boundary: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_viscosity_rejected(self, tmp_path, capsys):
        # nu = 1e300 is finite and positive, but the least-squares pressure
        # squares nu Lap(u): the solve ended in a traceback (exit 1)
        cfg = write_config(tmp_path, {"grid": {"n_r": 16, "n_theta": 16}, "nu": 1e300})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "solver: viscosity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"nu": float("inf")}, {"nu": float("nan")},
        {"solver": {"tol": float("inf")}}, {"solver": {"tol": float("nan")}},
    ])
    def test_non_finite_solver_settings_rejected(self, tmp_path, capsys, overrides):
        # an infinite viscosity died in a traceback (exit 1); a NaN tolerance
        # can never be met (exit 2)
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "solver" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_report_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet"])
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b"), "--quiet"])
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "fields.csv").read_bytes() == \
            (tmp_path / "b" / "fields.csv").read_bytes()


class TestSweep:
    def test_lambda_sweep_trace(self, tmp_path):
        cfg = write_config(tmp_path, {
            "boundary": {"preset": "spiral", "flux": 1.0, "amplitude": 1.0, "nu": 1.0},
            "sweep": {"parameter": "lambda", "values": [0.0, 0.5, 1.0]},
        })
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["parameter", "value", "J", "converged", "iterations"]
        first = rows[0]
        assert float(first["value"]) == 0.0
        assert float(first["J"]) < 1e-12  # the homotopy endpoint row
        assert all(row["converged"] == "1" for row in rows)
        assert_phases(out, ["sweep_s", "write_s"])

    def test_flux_sweep_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, {
            "boundary": {"preset": "spiral", "flux": 1.0, "amplitude": 1.0, "nu": 1.0},
            "sweep": {"parameter": "flux", "values": [0.0, 0.5, 1.0, 2.0, 5.0]},
        })
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--quiet"]) == 0

    def test_sweep_failure_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, {
            "boundary": {"preset": "spiral", "flux": 1.0, "amplitude": 1.0, "nu": 1.0},
            "solver": {"max_iter": 1, "tol": 1e-14, "method": "picard"},
            "sweep": {"parameter": "flux", "values": [0.5, 1.0]},
        })
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--quiet"]) == 2

    def test_sweep_requires_section(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 3

    @pytest.mark.parametrize("parameter, values", [
        ("flux", [1.0, 0.5, 2.0]),
        ("flux", [0.5, 0.5]),
        ("flux", [0.5, float("nan")]),
        ("flux", [0.5, float("inf")]),
        ("flux", [0.5, 1e200]),
        ("flux", [-1e200, 0.5]),
        ("lambda", [0.5, 1.5]),
        ("lambda", [-0.5, 0.5]),
    ])
    def test_bad_sweep_values_rejected(self, tmp_path, capsys, parameter, values):
        # bad values are a configuration error (exit 3), not a traceback
        # (exit 1, "verification failed") or an overflowing solve (exit 2)
        cfg = write_config(tmp_path, {
            "boundary": {"preset": "spiral", "flux": 1.0, "amplitude": 1.0, "nu": 1.0},
            "sweep": {"parameter": parameter, "values": values},
        })
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "sweep.values" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()


def test_readme_configuration_example_loads():
    # a key deleted from the config must not linger in the documented example
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config = cli.RunConfig.from_mapping(json.loads(block))
    assert config.out_dir == "out" and config.sweep_parameter == "flux"


def test_successive_calls_share_no_parsed_state(tmp_path, capsys):
    # one parser serves every call in a process: the options of one call
    # must not carry over to the next
    cfg = write_config(tmp_path, {
        "output": {"directory": str(tmp_path / "from_config")},
        "sweep": {"parameter": "lambda", "values": [0.5, 1.0]},
    })
    solve_out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfg), "--out", str(solve_out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert "lambda = +1.0000" in capsys.readouterr().out
    assert (tmp_path / "from_config" / "trace.csv").exists()
    assert not (solve_out / "trace.csv").exists()


def test_run_meta_records_blas_and_threads(tmp_path):
    # the BLAS build and thread settings go to run_meta.json, read once per
    # process; report.json carries none of them
    cfg = write_config(tmp_path, {"sweep": {"parameter": "lambda", "values": [0.5, 1.0]}})
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    for command in ("solve", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["blas"]["name"]
        assert meta["num_threads"] == threads
        assert meta["cpu_count"] == os.cpu_count()
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert not {"blas", "num_threads", "cpu_count"} & set(report)
    assert cli._platform.cache_info().misses == 1


class TestVerify:
    def test_default_grid_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_tiny_grid_fails_identities(self, capsys):
        assert main(["verify", "--n-r", "8", "--n-theta", "8"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_deterministic_output(self, capsys):
        main(["verify", "--n-r", "16", "--n-theta", "8"])
        first = capsys.readouterr().out
        main(["verify", "--n-r", "16", "--n-theta", "8"])
        second = capsys.readouterr().out
        assert first == second


class TestDiagnose:
    def test_amick_dump(self, tmp_path):
        grid = build_grid(32, 16, 1.0, 2.0)
        w, _ = amick_flow(grid, AmickProfile.sin_squared())
        dump = tmp_path / "amick.csv"
        write_velocity_csv(dump, w)
        out = tmp_path / "diag"
        code = main(["diagnose", str(dump), "--lambda", "1.0", "--nu", "0.0",
                     "--out", str(out), "--quiet"])
        assert code == 0
        record = json.loads((out / "diagnostics.json").read_text())
        assert record["max_principle_ok"] is False
        assert abs(record["identity37_lhs"] - record["identity37_rhs"]) < 1e-8
        assert record["euler_residual"] < 1e-9
        assert record["p1"] > record["p2"]

    def test_zero_field(self, tmp_path):
        grid = build_grid(16, 8, 1.0, 2.0)
        from annulus_flux import VelocityField

        dump = tmp_path / "zero.csv"
        write_velocity_csv(dump, VelocityField.zeros(grid))
        out = tmp_path / "diag0"
        assert main(["diagnose", str(dump), "--lambda", "1.0", "--nu", "0.0",
                     "--out", str(out), "--quiet"]) == 0
        record = json.loads((out / "diagnostics.json").read_text())
        numeric = [v for k, v in record.items() if k != "max_principle_ok"]
        assert np.max(np.abs(numeric)) < 1e-12
        # with nonzero viscosity the only nonzero entry is the identity-26
        # right-hand side, which is nu itself
        assert main(["diagnose", str(dump), "--lambda", "1.0", "--nu", "1.0",
                     "--out", str(out), "--quiet"]) == 0
        record = json.loads((out / "diagnostics.json").read_text())
        assert record["identity26_rhs"] == 1.0
        rest = [v for k, v in record.items()
                if k not in ("max_principle_ok", "identity26_rhs")]
        assert np.max(np.abs(rest)) < 1e-12

    def test_corrupt_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("r,theta,surprise\n1,0,2\n")
        assert main(["diagnose", str(bad), "--lambda", "1.0", "--nu", "1.0"]) == 3

    @pytest.mark.parametrize("reorder", ["swap_nodes", "inner_ring_first"])
    def test_rows_out_of_writer_order_rejected(self, tmp_path, capsys, reorder):
        # both used to read back without an error: the swap moved u_theta by
        # 0.36 here, and inner-ring-first rows were flipped
        grid = build_grid(16, 8, 1.0, 2.0)
        from annulus_flux import couette

        dump = tmp_path / "c.csv"
        write_velocity_csv(dump, couette(grid, 1.0, 0.0)[0])
        header, *rows = dump.read_text().splitlines()
        if reorder == "swap_nodes":  # theta index 3 of rings 2 and 5
            rows[2 * 8 + 3], rows[5 * 8 + 3] = rows[5 * 8 + 3], rows[2 * 8 + 3]
        else:
            rows = [row for i in reversed(range(16)) for row in rows[8 * i:8 * i + 8]]
        dump.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "diag"
        assert main(["diagnose", str(dump), "--lambda", "1.0", "--nu", "1.0",
                     "--out", str(out), "--quiet"]) == 3
        assert "writer order" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    def test_missing_file(self, tmp_path):
        assert main(["diagnose", str(tmp_path / "nope.csv"),
                     "--lambda", "1.0", "--nu", "1.0"]) == 3

    def test_bad_parameters(self, tmp_path):
        grid = build_grid(16, 8, 1.0, 2.0)
        from annulus_flux import VelocityField

        dump = tmp_path / "z.csv"
        write_velocity_csv(dump, VelocityField.zeros(grid))
        assert main(["diagnose", str(dump), "--lambda", "2.0", "--nu", "1.0"]) == 3

    @pytest.mark.parametrize("nu", ["inf", "nan"])
    def test_non_finite_viscosity_rejected(self, tmp_path, nu):
        # both died in a traceback (exit 1) in the pressure solve
        grid = build_grid(16, 8, 1.0, 2.0)
        from annulus_flux import couette

        dump = tmp_path / "c.csv"
        write_velocity_csv(dump, couette(grid, 1.0, 0.0)[0])
        out = tmp_path / "diag"
        assert main(["diagnose", str(dump), "--lambda", "1.0", "--nu", nu,
                     "--out", str(out), "--quiet"]) == 3
        assert not (out / "diagnostics.json").exists()

    def test_overflowing_momentum_rejected(self, tmp_path, capsys):
        # (u.grad)u of |u| ~ 1e200 overflows in the pressure solve, which
        # used to end the command in a traceback (exit 1)
        grid = build_grid(16, 16, 1.0, 2.0)
        from annulus_flux import couette

        dump = tmp_path / "big.csv"
        write_velocity_csv(dump, 1e200 * couette(grid, 1.0, 0.0)[0])
        out = tmp_path / "diag"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["diagnose", str(dump), "--lambda", "1", "--nu", "1",
                         "--out", str(out), "--quiet"])
        assert code == 3
        assert "cannot diagnose fields" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    def test_non_solenoidal_field_rejected(self, tmp_path, capsys):
        # no stream function exists, so there is no Bernoulli value to report
        grid = build_grid(16, 16, 1.0, 2.0)
        from annulus_flux import VelocityField

        dump = tmp_path / "bad.csv"
        write_velocity_csv(dump, VelocityField.from_arrays(
            grid, 0.1 * grid.rr * np.cos(grid.tt), np.zeros_like(grid.rr)))
        out = tmp_path / "diag"
        assert main(["diagnose", str(dump), "--lambda", "1", "--nu", "1",
                     "--out", str(out)]) == 3
        assert "divergence L2 = 4.342e-01" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()


class TestExploratory:
    def test_strong_inflow_permits_nonconvergence(self, tmp_path):
        # strong inflow at low viscosity: convergence is not asserted, only
        # that the outcome is reported cleanly with a residual history
        cfg = write_config(tmp_path, {
            "nu": 0.05,
            "boundary": {"preset": "pure_flux", "flux": -10.0},
            "solver": {"max_iter": 30, "tol": 1e-10, "method": "newton"},
        })
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--quiet"])
        assert code in (0, 2)
        report = json.loads((tmp_path / "x" / "report.json").read_text())
        assert len(report["residual_history"]) >= 1
        assert report["flux"] == pytest.approx(-10.0)
