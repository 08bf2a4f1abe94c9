"""Tests for the kpblab command-line front-end.

Covers config validation (exit 2), numerical failure (exit 3), output
layout (CSV + manifest + optional states), determinism of written bytes,
and the solve -> norms round trip.
"""

import csv
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kpblab import cli, illposedness, norms, semigroup, solver, spectral_core
from kpblab.cli import main


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def solve_cfg(**over):
    cfg = {
        "command": "solve",
        "nx": 32, "ny": 32, "Lx": math.pi, "Ly": math.pi,
        "T": 0.1, "M": 20, "tol": 1e-10, "max_iter": 25,
        "integrator": "picard",
        "phi_spec": {"type": "gaussian", "amplitude": 0.05,
                     "widths": [0.7, 0.7]},
    }
    cfg.update(over)
    return cfg


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "solve",\n  "nx": }\n', encoding="utf-8")
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(command="norms"))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'command'" in capsys.readouterr().err

    def test_missing_field_is_named(self, tmp_path, capsys):
        cfg = solve_cfg()
        del cfg["T"]
        path = write_cfg(tmp_path, "c.json", cfg)
        rc = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'T'" in capsys.readouterr().err

    def test_bad_phi_spec_type(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        solve_cfg(phi_spec={"type": "wavelet"}))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "phi_spec" in capsys.readouterr().err

    def test_mode_outside_band(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "modes", "modes": [[40, 0, 1.0, 0.0]]}))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "outside the grid band" in capsys.readouterr().err

    def test_illposed_preconditions(self, tmp_path, capsys):
        base = {"command": "illposed", "s": -0.7, "eps0": 0.01,
                "cells": 64, "samples": 10000, "N_list": [8, 10, 12, 14]}
        for field, value, hint in [
                ("N_list", [8, 10, 12], "at least 4"),
                ("N_list", [8, 8, 10, 12], "duplicate"),
                ("N_list", [4, 8, 10, 12], ">= 8"),
                ("cells", 32, ">= 64"),
                ("samples", 500, ">= 10000")]:
            cfg = dict(base)
            cfg[field] = value
            path = write_cfg(tmp_path, "c.json", cfg)
            rc = main(["illposed", "--config", path,
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            assert hint in capsys.readouterr().err

    def test_bad_threads(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg())
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--threads", "0"])
        assert rc == 2

    def test_failed_run_leaves_no_outputs(self, tmp_path):
        cfg = solve_cfg()
        del cfg["T"]
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("M", 4), ("T", 0.0), ("nx", 7), ("Lx", 0.0), ("max_iter", 0), ("tol", 0.0)])
    def test_library_precondition_is_config_error(self, tmp_path, capsys,
                                                  field, value):
        path = write_cfg(tmp_path, "c.json", solve_cfg(**{field: value}))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and re.search(rf"\b{field}\b", err)
        assert not out.exists()

    @pytest.mark.parametrize("over", [{"integrator": "picard"},
                                      {"integrator": "etd", "save_states": True}])
    def test_oversized_trajectory_is_config_error(self, tmp_path, capsys, over):
        path = write_cfg(tmp_path, "c.json", solve_cfg(
            nx=512, ny=512, M=10 ** 7, phi_spec={"type": "zero"}, **over))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert re.search(r"[\d,.]+ GiB of trajectory", err) and "physical memory" in err
        assert not out.exists()

    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", solve_cfg(intgrator="etd"))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert "'intgrator'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_params_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "free",
            "suite_size": 4, "seed": 0, "params": {"refien": 2}})
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out)]) == 2
        assert "'params.refien'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e999",
        # past the float range, and past int()'s 4300-digit limit
        pytest.param("1" + "0" * 400, id="400-digit-int"),
        pytest.param("1" + "0" * 5000, id="5001-digit-int")])
    def test_nonfinite_literal_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(solve_cfg()).replace("1e-10", literal),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and literal[:20] in err
        assert len(err) < 200  # a long literal is named by its head and length
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg", [
        ("solve", solve_cfg(phi_spec={"type": "gaussian", "amplitude": 1e999,
                                      "widths": [0.7, 0.7]})),
        ("solve", solve_cfg(phi_spec={"type": "gaussian", "amplitude": 0.05,
                                      "widths": [0.7, "1e400"]})),
        ("illposed", {"command": "illposed", "s": -0.7, "eps0": 1e999, "cells": 64,
                      "samples": 10000, "N_list": [8, 10, 12, 14]}),
        ("illposed", {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
                      "samples": 10000, "N_list": [8, 10, 12, 10 ** 400]}),
        ("illposed", {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
                      "samples": 10000, "N_list": [8, 10, 12, "inf"]}),
    ], ids=["amplitude", "width-string", "eps0", "N_list-int", "N_list-string"])
    def test_out_of_range_number_rejected(self, tmp_path, capsys, command, cfg):
        # json.dumps writes a float past the range as Infinity, so write 1e400
        text = json.dumps(cfg).replace("Infinity", "1e400")
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not a finite number" in err
        assert not out.exists()


class TestNumericalFailure:
    def test_nonconvergent_picard_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "gaussian", "amplitude": 5.0, "widths": [0.7, 0.7]},
            T=1.0, tol=1e-14, max_iter=2))
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_etd_blowup_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "gaussian", "amplitude": 500.0, "widths": [0.7, 0.7]},
            T=10.0, M=16, integrator="etd"))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("save_states", [False, True])
    def test_etd_blowup_names_first_nonfinite_step(self, tmp_path, capsys,
                                                   save_states):
        # amplitude 500 over T = 10 with M = 16 overflows at step 4 (t = 2.5)
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "gaussian", "amplitude": 500.0, "widths": [0.7, 0.7]},
            T=10.0, M=16, integrator="etd", save_states=save_states))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "etd solution is not finite at step 4 (t=2.5)" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_illposed_result_exits_3_and_writes_nothing(self, tmp_path,
                                                                   capsys):
        # eps0 = -10 gives t_N = N^7, and the second iterate overflows to NaN
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": -0.7, "eps0": -10.0,
            "cells": 64, "samples": 10000, "N_list": [8, 10, 12, 14]})
        out = tmp_path / "out"
        rc = main(["illposed", "--config", cfg, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "not finite" in err and "slope" in err
        assert not out.exists()

    def test_nonfinite_illposed_run_warns_nothing(self, tmp_path, capsys):
        # the overflow happens on the sweep's worker threads
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": -0.7, "eps0": -10.0,
            "cells": 64, "samples": 10000, "N_list": [8, 10, 12, 14]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["illposed", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err


    def test_overflowing_sobolev_weight_exits_3(self, tmp_path, capsys):
        # (1+xi^2)^200 passes the float range in the exact norm of phi_N
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": 200.0, "eps0": 0.01,
            "cells": 64, "samples": 10000, "N_list": [8, 10, 12, 14]})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["illposed", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_zero_datum_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(phi_spec={"type": "zero"}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "solve.csv")
        assert rows[0] == ["k", "t", "l2"]
        assert len(rows) == 1 + 21  # header + M+1 states
        assert all(float(r[2]) == 0.0 for r in rows[1:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert len(manifest["config_sha256"]) == 64
        assert "version" in manifest
        assert manifest["tolerances"]["min_quadrature_cells"] == 64
        assert manifest["results"]["converged"] is True

    def test_l2_column_nonincreasing(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        l2 = [float(r[2]) for r in read_csv(out / "solve.csv")[1:]]
        assert all(b <= a * (1 + 1e-8) for a, b in zip(l2, l2[1:]))

    def test_modes_datum_closed_form_l2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "modes", "modes": [[1, 0, 3.0, 0.0]]},
            T=0.05))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "solve.csv")
        cell = (2 * math.pi / 32) ** 2 / (32 * 32)
        expect = math.sqrt(2 * 3.0 ** 2 * cell)
        assert float(rows[1][2]) == pytest.approx(expect, rel=1e-12)

    def test_etd_integrator(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(integrator="etd"))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["integrator"] == "etd"
        assert "converged" not in manifest["results"]

    def test_etd_csv_same_with_and_without_states(self, tmp_path):
        outs = []
        for save_states in (False, True):
            cfg = write_cfg(tmp_path, f"c{save_states}.json", solve_cfg(
                integrator="etd", save_states=save_states))
            outs.append(tmp_path / f"out{save_states}")
            assert main(["solve", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert (outs[0] / "solve.csv").read_bytes() == (outs[1] / "solve.csv").read_bytes()
        assert not (outs[0] / "states.npz").exists()
        assert (outs[1] / "states.npz").exists()

    def test_etd_without_states_keeps_no_trajectory(self, tmp_path, alloc_peak):
        M, n = 128, 64
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            integrator="etd", nx=n, ny=n, M=M))
        rc, peak = alloc_peak(main, ["solve", "--config", cfg,
                                     "--out", str(tmp_path / "out")])
        assert rc == 0
        assert peak < (M + 1) * n * n * 16 / 4

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "solve.csv").read_bytes() == (out2 / "solve.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == \
            (out2 / "manifest.json").read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "solve.csv")
        # a generic double must round-trip exactly through the CSV text
        for row in rows[1:]:
            assert float("%.17g" % float(row[2])) == float(row[2])


class TestSolveNormsRoundTrip:
    def test_states_feed_norms(self, tmp_path):
        cfg = write_cfg(tmp_path, "solve.json", solve_cfg(save_states=True))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        states = out / "states.npz"
        assert states.exists()
        with np.load(states) as data:
            assert data["coeffs"].shape == (21, 32, 32)

        ncfg = write_cfg(tmp_path, "norms.json", {
            "command": "norms", "input_path": str(states),
            "b": 0.0, "s1": -0.3, "s2": 0.2})
        nout = tmp_path / "nout"
        assert main(["norms", "--config", ncfg, "--out", str(nout)]) == 0
        rows = read_csv(nout / "norms.csv")
        assert rows[0] == ["b", "s1", "s2", "sobolev_final", "spacetime",
                           "bourgain", "equivalence_gap"]
        # b = 0: the modulation weight is trivial, the two space-time norms
        # agree exactly, hence identical 17-digit strings
        assert rows[1][4] == rows[1][5]
        gap = float(rows[1][6])
        assert 1.0 / 3.0 <= gap <= 3.0

    def test_norms_missing_input(self, tmp_path, capsys):
        ncfg = write_cfg(tmp_path, "norms.json", {
            "command": "norms", "input_path": str(tmp_path / "none.npz"),
            "b": 0.0, "s1": 0.0, "s2": 0.0})
        rc = main(["norms", "--config", ncfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "input_path" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["text", "bad_grid", "broken_zip"])
    def test_norms_unreadable_input_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "input.npz"
        if content == "text":
            path.write_text("not an npz archive\n", encoding="utf-8")
        elif content == "bad_grid":
            np.savez(path, times=np.linspace(0.0, 1.0, 17),
                     coeffs=np.zeros((17, 7, 8), complex), nx=7, ny=8,
                     Lx=1.0, Ly=1.0, dealias_fraction=2.0 / 3.0)
        else:
            path.write_bytes(b"PK\x03\x04" + b"\x00" * 60)
        ncfg = write_cfg(tmp_path, "norms.json", {
            "command": "norms", "input_path": str(path),
            "b": 0.0, "s1": 0.0, "s2": 0.0})
        rc = main(["norms", "--config", ncfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "input_path" in err
        assert not (tmp_path / "o").exists()

    def test_norms_too_few_steps(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "solve.json",
                        solve_cfg(M=10, save_states=True))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        ncfg = write_cfg(tmp_path, "norms.json", {
            "command": "norms", "input_path": str(out / "states.npz"),
            "b": 0.0, "s1": 0.0, "s2": 0.0})
        rc = main(["norms", "--config", ncfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "16" in capsys.readouterr().err


class TestIllposed:
    def test_small_sweep_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": -0.7, "eps0": 0.01,
            "cells": 64, "samples": 10000, "seed": 0,
            "N_list": [12, 8, 14, 10]})  # deliberately unsorted
        out = tmp_path / "out"
        assert main(["illposed", "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 0
        rows = read_csv(out / "illposed.csv")
        assert rows[0] == ["N", "s", "eps0", "t_N", "norm_phi", "norm_u2",
                           "cells", "max_chi_ratio"]
        assert [float(r[0]) for r in rows[1:]] == [8.0, 10.0, 12.0, 14.0]
        for r in rows[1:]:
            N = float(r[0])
            assert float(r[3]) == pytest.approx(N ** (-3.01), rel=1e-12)
            assert float(r[7]) <= 100.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "slope" in manifest["results"]
        assert manifest["results"]["predicted_slope"] == pytest.approx(0.19)

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": -0.7, "eps0": 0.01,
            "cells": 64, "samples": 10000,
            "N_list": [8, 10, 12, 14]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["illposed", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["illposed", "--config", cfg, "--out", str(out2),
                     "--threads", "4"]) == 0
        assert (out1 / "illposed.csv").read_bytes() == \
            (out2 / "illposed.csv").read_bytes()


class TestVerify:
    def test_free_suite_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "free",
            "suite_size": 4, "seed": 11})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "verify.csv")
        assert rows[0] == ["estimate_id", "seed", "params", "ratio"]
        seeds = [int(r[1]) for r in rows[1:]]
        assert seeds == sorted(seeds)
        for r in rows[1:]:
            assert r[0] == "free"
            params = json.loads(r[2])  # params column is embedded JSON
            assert isinstance(params, dict)
            assert math.isfinite(float(r[3]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["violations"] == 0

    def test_boolean_refine_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "free",
            "suite_size": 4, "seed": 0, "params": {"refine": True}})
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "params.refine" in capsys.readouterr().err

    def test_unknown_estimate_id(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "sharp",
            "suite_size": 4, "seed": 0})
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "estimate_id" in capsys.readouterr().err


class TestManifestTolerances:
    def test_entries_are_the_library_constants(self):
        expected = {
            "hermitian_tol": spectral_core._HERMITIAN_TOL,
            "kp_admissibility_tol": spectral_core._KP_ADMISSIBLE_TOL,
            "semigroup_admissibility_tol": semigroup._ADMISSIBLE_TOL,
            "taper_alpha": norms._TAPER_FRACTION,
            "min_time_steps_for_norms": norms._MIN_STEPS,
            "min_quadrature_cells": illposedness._MIN_CELLS,
            "min_chi_samples": illposedness._MIN_CHI_SAMPLES,
            "etd_phi_series_cutoff": solver._PHI_SERIES_CUTOFF,
        }
        assert cli._TOLERANCES.keys() == expected.keys()
        for name, value in expected.items():
            assert cli._TOLERANCES[name] is value, name
        default = inspect.signature(spectral_core.is_kp_admissible).parameters["tol"].default
        assert default is spectral_core._KP_ADMISSIBLE_TOL


class TestEntryPoint:
    def test_help_runs(self):
        exe = shutil.which("kpblab")
        cmd = [exe, "--help"] if exe else [sys.executable, "-m", "kpblab.cli",
                                           "--help"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout
        assert "illposed" in proc.stdout

    def test_missing_subcommand_fails(self):
        proc = subprocess.run([sys.executable, "-m", "kpblab.cli"],
                              capture_output=True, text=True)
        assert proc.returncode != 0

    def test_import_leaves_slow_scipy_modules_unloaded(self):
        # scipy.integrate and scipy.signal cost most of the import time every
        # command pays; they are imported only where used.
        import kpblab
        src = os.path.dirname(os.path.dirname(os.path.abspath(kpblab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, kpblab.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.signal') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
