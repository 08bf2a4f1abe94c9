"""Tests for the kpblab command-line front-end.

Covers config validation (exit 2), numerical failure (exit 3), output
layout (CSV + manifest + optional states), determinism of written bytes,
and the solve -> norms round trip.
"""

import ast
import csv
import inspect
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

import kpblab
from kpblab import (cli, illposedness, modes, norms, semigroup, solver, spectral_core,
                    states, verify)
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


def norms_cfg(tmp_path, input_path, b=0.0, s1=0.0, s2=0.0):
    return write_cfg(tmp_path, "norms.json", {
        "command": "norms", "input_path": str(input_path), "b": b, "s1": s1, "s2": s2})


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def flip_last_band_byte(path):
    """Flip one bit of the last byte of band.npy in the zip file at
    ``path``: a CRC error."""
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("band.npy")
    name_len, extra_len = struct.unpack(
        "<HH", raw[info.header_offset + 26:info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size - 1] ^= 1
    path.write_bytes(bytes(raw))


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

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "free", "suite_size": 1, "seed": 0})
        out = tmp_path / "afile" / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write outputs to {out}: ")

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

    @pytest.mark.parametrize("entry, hint", [
        ([1.7, 2, 0.01, 0], "kx must be int, got float"),
        ([1, "2", 0.01, 0], "ky must be int, got str"),
        ([True, 0, 0.01, 0], "kx must be int, got bool"),
        ([1, 2.0, 0.01, 0], "ky must be int, got float")])
    def test_mode_index_not_an_integer(self, tmp_path, capsys, entry, hint):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "modes", "modes": [[1, 0, 0.01, 0], entry]}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"phi_spec modes entry {entry!r}: {hint}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, field", [
        ("solve", solve_cfg(phi_spec={"type": "gaussian", "amplitude": "0.05",
                                      "widths": [0.7, 0.7]}),
         "phi_spec amplitude is not a finite number, got str"),
        ("solve", solve_cfg(phi_spec={"type": "gaussian", "amplitude": 0.05,
                                      "widths": [0.7, True]}),
         "phi_spec widths[1] is not a finite number, got bool"),
        ("solve", solve_cfg(phi_spec={"type": "gaussian", "amplitude": 0.05,
                                      "widths": ["0.7", 0.7]}),
         "phi_spec widths[0] is not a finite number, got str"),
        ("solve", solve_cfg(phi_spec={"type": "modes", "modes": [[1, 0, "0.01", 0]]}),
         "phi_spec modes entry [1, 0, '0.01', 0]: re is not a finite number, got str"),
        ("solve", solve_cfg(phi_spec={"type": "modes", "modes": [[1, 0, 0.01, False]]}),
         "phi_spec modes entry [1, 0, 0.01, False]: im is not a finite number, got bool"),
        ("solve", solve_cfg(phi_spec={"type": "phi_N", "N": "8", "s": -0.7}),
         "phi_spec N is not a finite number, got str"),
        ("solve", solve_cfg(phi_spec={"type": "phi_N", "N": 8, "s": True}),
         "phi_spec s is not a finite number, got bool"),
        ("illposed", {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
                      "samples": 10000, "N_list": [8, 10, "12", 14]},
         "config field 'N_list' entry 2 is not a finite number, got str"),
        ("illposed", {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
                      "samples": 10000, "N_list": [8, 10, 12, True]},
         "config field 'N_list' entry 3 is not a finite number, got bool"),
    ], ids=["amplitude-string", "width-bool", "width-string", "re-string", "im-bool",
            "N-string", "s-bool", "N_list-string", "N_list-bool"])
    def test_number_given_as_string_or_bool_rejected(self, tmp_path, capsys,
                                                     command, cfg, field):
        # a JSON string or boolean is not read as the number it spells
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
         "samples": 10000, "N_list": [8, 10, 12, 14], "seed": -1},
        {"command": "verify", "estimate_id": "free", "suite_size": 4, "seed": -1}])
    def test_negative_seed_is_named(self, tmp_path, capsys, cfg):
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main([cfg["command"], "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not out.exists()

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
        ("M", 4), ("T", 0.0), ("nx", 7), ("Lx", 0.0), ("max_iter", 0), ("tol", 0.0),
        ("integrator", "rk4")])
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

    @pytest.mark.parametrize("phi_spec, key", [
        ({"type": "phi_N", "N": 8, "s": -0.7, "widths": [0.7, 0.7]}, "widths"),
        ({"type": "gaussian", "amplitude": 0.05, "widths": [0.7, 0.7], "s": 0.0}, "s"),
        ({"type": "modes", "modes": [[1, 1, 0.1, 0.0]], "amplitude": 1.0}, "amplitude"),
        ({"type": "zero", "N": 5, "typo": 1}, "typo")],
        ids=["phi_N", "gaussian", "modes", "zero"])
    def test_unknown_phi_spec_key(self, tmp_path, capsys, phi_spec, key):
        path = write_cfg(tmp_path, "c.json", solve_cfg(phi_spec=phi_spec))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert f"'phi_spec.{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_past_the_address_space_is_config_error(self, tmp_path, capsys):
        # 2**50 draws are 8 PiB, past any 47-bit address space, so the
        # allocation fails at once whatever the overcommit setting
        path = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
            "samples": 2 ** 50, "N_list": [8, 10, 12, 14]})
        out = tmp_path / "out"
        assert main(["illposed", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the run needs more memory than this machine has")
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

    @pytest.mark.parametrize("amplitude, T, reason", [(5.0, 1.0, "max_iter"),
                                                      (500.0, 10.0, "residual_grew"),
                                                      (1e150, 0.1, "non_finite")])
    def test_nonconvergent_picard_names_the_stop_reason(self, tmp_path, capsys,
                                                        amplitude, T, reason):
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(
            phi_spec={"type": "gaussian", "amplitude": amplitude, "widths": [0.7, 0.7]},
            T=T, M=16, tol=1e-14, max_iter=2))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert f"stopped after 2: {reason}," in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, over", [
        # _window_density's amplitude
        ("illposed", {"s": -300.0}),
        # t_N = N^(-3-eps0) in second_iterate_norm
        ("illposed", {"eps0": -200.0}),
        # the chi-bound samples' range
        ("illposed", {"N_list": [16, 32, 64, 1e300]}),
        # build_phi_N's amplitude
        ("solve", {"nx": 64, "ny": 64, "Ly": 400.0,
                   "phi_spec": {"type": "phi_N", "N": 8, "s": -400.0}})],
        ids=["window_density", "t_N", "chi_samples", "phi_N"])
    def test_overflow_exits_3_and_writes_nothing(self, tmp_path, capsys, command, over):
        base = solve_cfg() if command == "solve" else {
            "command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
            "samples": 10000, "N_list": [16, 32, 64, 128]}
        cfg = write_cfg(tmp_path, "c.json", {**base, **over})
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out), "--threads", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: a value overflowed the float range: ")
        assert os.listdir(tmp_path) == ["c.json"]


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
        with np.load(states) as data:  # |kx| <= 10, ky = 0 .. 10
            assert data["band"].shape == (21, 21, 11)

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
                     band=np.zeros((17, 5, 3), complex), nx=7, ny=8,
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

    @pytest.mark.parametrize("case", [
        "complex64", "float64", "big_endian", "fortran", "shape", "times",
        "truncated", "trailing", "corrupt", "no_coeffs", "nan_box", "nx_float",
        "nx_string", "ny_vector", "nonuniform", "late_start", "lx_string",
        "fraction_string", "ly_vector", "lx_bool", "complex_times"])
    def test_norms_input_contract(self, tmp_path, capsys, case):
        # norms streams C-order '<c16' band states of shape (len(times), rows,
        # cols), the grid's solver band, on a real, uniform time grid from 0,
        # a grid of integer scalars nx, ny, a finite box and real scalars Lx,
        # Ly and dealias_fraction, exactly what solve writes; anything else
        # is a config error
        times = np.linspace(0.0, 1.0, 17)
        band = np.zeros((17, 5, 3), complex)  # rows kx = 0, 1, 2, -2, -1; ky = 0 .. 2
        band[:, 1, 2] = 1.0  # the pair (1, 2), (-1, -2)
        rest = {"nx": 8, "ny": 8, "Lx": 1.0, "Ly": 1.0, "dealias_fraction": 2.0 / 3.0}
        path = tmp_path / "input.npz"
        np.savez(path, times=times, band=band, **rest)
        assert main(["norms", "--config", norms_cfg(tmp_path, path),
                     "--out", str(tmp_path / "ok")]) == 0
        arrays = {"times": times, "band": band, **rest}
        if case in ("complex64", "float64", "big_endian"):
            arrays["band"] = {"complex64": band.astype(np.complex64),
                              "float64": band.real.copy(),
                              "big_endian": band.astype(">c16")}[case]
        elif case == "fortran":
            arrays["band"] = np.asfortranarray(band)
        elif case == "shape":
            arrays["band"] = band[:, :, :2]
        elif case == "times":
            arrays["times"] = np.linspace(0.0, 1.0, 18)
        elif case == "no_coeffs":
            del arrays["band"]
        elif case == "nan_box":
            arrays["Lx"] = math.nan
        elif case in ("nx_float", "nx_string", "ny_vector", "lx_string",
                      "fraction_string", "ly_vector", "lx_bool"):
            arrays.update({"nx_float": {"nx": 8.7}, "nx_string": {"nx": "8"},
                           "ny_vector": {"ny": np.array([8])},
                           "lx_string": {"Lx": "1.0"},
                           "fraction_string": {"dealias_fraction": "0.5"},
                           "ly_vector": {"Ly": np.array([1.0])},
                           "lx_bool": {"Lx": True}}[case])
        elif case == "complex_times":  # a real part that alone would pass
            arrays["times"] = times + 1j * np.linspace(0.0, 5.0, 17)
        elif case in ("nonuniform", "late_start"):
            arrays["times"] = times.copy()
            if case == "nonuniform":
                arrays["times"][5] += 1e-3
            else:
                arrays["times"] += 0.5
        if case in ("truncated", "trailing"):
            data = io.BytesIO()
            np.lib.format.write_array(data, band)
            data = data.getvalue()
            data = data[:-16] if case == "truncated" else data + bytes(16)
            with zipfile.ZipFile(path, "w") as archive:
                for name, value in arrays.items():
                    array = io.BytesIO()
                    np.lib.format.write_array(array, np.asanyarray(value))
                    archive.writestr(name + ".npy",
                                     data if name == "band" else array.getvalue())
        else:
            np.savez(path, **arrays)
        if case == "corrupt":
            flip_last_band_byte(path)
        out = tmp_path / "o"
        rc = main(["norms", "--config", norms_cfg(tmp_path, path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "input_path" in err
        assert not out.exists()

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

    def test_short_trajectory_rejected_before_coeffs_are_read(self, tmp_path, capsys,
                                                               monkeypatch):
        # 11 samples are 10 time steps: refused from len(times) alone
        times = np.linspace(0.0, 1.0, 11)
        band = np.zeros((11, 5, 3), complex)
        band[:, 1, 2] = 1.0
        path = tmp_path / "input.npz"
        np.savez(path, times=times, band=band, nx=8, ny=8, Lx=1.0, Ly=1.0,
                 dealias_fraction=2.0 / 3.0)
        passes = []
        blocks = states._band_blocks
        monkeypatch.setattr(states, "_band_blocks",
                            lambda *args: passes.append(args) or blocks(*args))
        rc = main(["norms", "--config", norms_cfg(tmp_path, path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2 and passes == []
        err = capsys.readouterr().err
        assert "input_path" in err
        assert "time-dependent norms need at least 16 time steps, got 10" in err


class TestStreamedStates:
    """solve writes the band states of states.npz one state at a time and
    norms reads it in blocks of time rows: the files and numbers are those
    of np.savez and of the in-memory library, and neither side holds a full
    trajectory."""

    @staticmethod
    def library_phi(integrator):
        cfg = solve_cfg(integrator=integrator)
        grid = spectral_core.make_grid(cfg["nx"], cfg["ny"], cfg["Lx"], cfg["Ly"])
        return cfg, cli._build_phi(cfg["phi_spec"], grid)

    @classmethod
    def library_solve(cls, integrator):
        cfg, phi = cls.library_phi(integrator)
        if integrator == "picard":
            return solver.solve_picard(phi, cfg["T"], cfg["M"], tol=cfg["tol"],
                                       max_iter=cfg["max_iter"])[0]
        return solver.solve_etd(phi, cfg["T"], cfg["M"])

    @classmethod
    def library_band(cls, integrator):
        """(grid, times, the (len(times), rows, cols) band states) of the
        library's ``solve_states``."""
        cfg, phi = cls.library_phi(integrator)
        times, _, band_states = solver.solve_states(phi, cfg["T"], cfg["M"], integrator,
                                                    cfg["tol"], cfg["max_iter"])
        return phi.grid, times, np.array([band for _, band, _ in band_states])

    @staticmethod
    def expand(grid, times, band):
        """The trajectory whose full spectra ``band`` holds on the solver band."""
        rows, _ = solver._band(grid)
        return solver.Trajectory(grid=grid, times=times,
                                 coeffs=solver._full(band, rows, (grid.nx, grid.ny)))

    @staticmethod
    def savez(path, grid, times, band):
        np.savez(path, times=times, band=band, nx=grid.nx, ny=grid.ny, Lx=math.pi,
                 Ly=math.pi, dealias_fraction=grid.dealias_fraction)

    @staticmethod
    def band_row(grid, kx):
        """The index of the half-spectrum row kx in the solver band."""
        return int(np.flatnonzero(solver._band(grid)[0] == kx % grid.nx)[0])

    @pytest.mark.parametrize("integrator", ["picard", "etd"])
    def test_states_bytes_equal_np_savez(self, tmp_path, integrator):
        # the criterion-10 solve config, saving its states
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(integrator=integrator,
                                                      save_states=True))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        self.savez(tmp_path / "library.npz", *self.library_band(integrator))
        assert (out / "states.npz").read_bytes() == (tmp_path / "library.npz").read_bytes()
        traj = self.library_solve(integrator)
        l2 = np.array([float(row[2]) for row in read_csv(out / "solve.csv")[1:]])
        assert l2.tobytes() == solver.l2_history(traj).tobytes()

    # A band file's full spectra are exactly Hermitian (``_full``), so an
    # inexact pair cannot be stored in one; the gather of an inexact pair
    # is checked in tests/test_norms.py (test_inexact_pair_adds_one_column).
    @pytest.mark.parametrize("case", ["solver", "signed_zeros"])
    def test_norms_equal_library_bitwise(self, tmp_path, fft_columns, case):
        # sobolev_final comes from the last row of the mode form, expanded
        grid, times, band = self.library_band("picard")
        if case == "signed_zeros":
            # -0.0 on every band entry the form leaves out (expand writes
            # +0.0 there), and one occupied pair exactly 0 in the last row
            # only: (-3, 2), the band entry of the pair (3, -2), (-3, 2)
            unoccupied = ~np.any(band, axis=0)
            assert unoccupied.any()
            band[:, unoccupied] = complex(-0.0, -0.0)
            at = (self.band_row(grid, -3), 2)
            assert np.all(band[(slice(None, -1),) + at] != 0)
            band[(-1,) + at] = 0.0
        traj = self.expand(grid, times, band)
        self.savez(tmp_path / "states.npz", grid, times, band)
        out = tmp_path / "out"
        fft_columns.clear()
        assert main(["norms", "--config",
                     norms_cfg(tmp_path, tmp_path / "states.npz", 0.5, -0.3, 0.2),
                     "--out", str(out)]) == 0
        assert len(fft_columns) == 1  # one windowed transform for the three norms
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results == {
            "sobolev_final": norms.sobolev_norm(traj.state(traj.n_times - 1), -0.3, 0.2),
            "spacetime": norms.spacetime_norm(traj, 0.5, -0.3, 0.2),
            "bourgain": norms.bourgain_norm(traj, 0.5, -0.3, 0.2),
            "equivalence_gap": norms.equivalence_gap(traj, 0.5, -0.3, 0.2)}
        assert fft_columns[1:] == fft_columns[:1] * 3

    @pytest.mark.parametrize("case", ["no_coeffs", "not_a_zip", "crc"])
    def test_read_raises_value_error_on_malformed_file(self, tmp_path, case):
        # the library contract under test_norms_input_contract's exit 2
        arrays = {"times": np.linspace(0.0, 1.0, 17), "band": np.zeros((17, 5, 3), complex),
                  "nx": 8, "ny": 8, "Lx": 1.0, "Ly": 1.0, "dealias_fraction": 2.0 / 3.0}
        path = tmp_path / "states.npz"
        if case == "no_coeffs":
            del arrays["band"]
        np.savez(path, **arrays)
        if case == "not_a_zip":
            path.write_text("not an npz archive\n", encoding="utf-8")
        elif case == "crc":
            flip_last_band_byte(path)
        with pytest.raises(ValueError):
            blocks = states.read(path)[3]
            for _ in blocks():  # each pass checks the CRC
                pass

    def test_old_full_spectrum_layout_exits_2_naming_it(self, tmp_path, capsys):
        # the states.npz layout before the solver band: full spectra as coeffs
        traj = self.library_solve("picard")
        path = tmp_path / "states.npz"
        np.savez(path, times=traj.times, coeffs=traj.coeffs, nx=traj.grid.nx,
                 ny=traj.grid.ny, Lx=math.pi, Ly=math.pi,
                 dealias_fraction=traj.grid.dealias_fraction)
        out = tmp_path / "out"
        rc = main(["norms", "--config", norms_cfg(tmp_path, path, 0.5), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "input_path" in err
        assert "old full-spectrum layout" in err and "'coeffs'" in err and "'band'" in err
        assert not out.exists()

    def test_norms_of_a_nan_pair_exit_3(self, tmp_path, capsys):
        grid, times, band = self.library_band("picard")
        band[7, self.band_row(grid, -3), 2] = np.nan  # the pair (3, -2), (-3, 2)
        self.savez(tmp_path / "states.npz", grid, times, band)
        out = tmp_path / "out"
        rc = main(["norms", "--config", norms_cfg(tmp_path, tmp_path / "states.npz", 0.5),
                   "--out", str(out)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_norms_of_nan_states_read_the_band_once(self, tmp_path, capsys, monkeypatch):
        # a NaN entry is mapped like any other: one pass over band.npy
        grid, times, band = self.library_band("picard")
        band[7, self.band_row(grid, -3), 2] = np.nan
        self.savez(tmp_path / "states.npz", grid, times, band)
        passes = []
        blocks = states._band_blocks
        monkeypatch.setattr(states, "_band_blocks",
                            lambda *args: passes.append(args) or blocks(*args))
        rc = main(["norms", "--config", norms_cfg(tmp_path, tmp_path / "states.npz", 0.5),
                   "--out", str(tmp_path / "out")])
        assert rc == 3 and len(passes) == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_solve_and_norms_keep_no_full_trajectory(self, tmp_path, alloc_peak):
        M, n = 32, 64
        full = (M + 1) * n * n * 16
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(nx=n, ny=n, M=M, save_states=True))
        out = tmp_path / "out"
        rc, peak = alloc_peak(main, ["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0 and peak < full
        rc, peak = alloc_peak(main, ["norms", "--config",
                                     norms_cfg(tmp_path, out / "states.npz", 0.5, -0.3, 0.2),
                                     "--out", str(tmp_path / "nout")])
        assert rc == 0 and peak < full

    @pytest.mark.parametrize("case", ["picard_nonconvergent", "etd_blowup",
                                      "out_under_a_file"])
    def test_failed_run_leaves_no_temporary_file(self, tmp_path, case):
        blowup = {"type": "gaussian", "amplitude": 500.0, "widths": [0.7, 0.7]}
        overrides = {
            "picard_nonconvergent": dict(T=1.0, tol=1e-14, max_iter=2, phi_spec=dict(
                blowup, amplitude=5.0)),
            "etd_blowup": dict(T=10.0, M=16, integrator="etd", phi_spec=blowup),
            "out_under_a_file": {}}[case]
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(save_states=True, **overrides))
        if case == "out_under_a_file":  # fails after the states are written
            (tmp_path / "file").write_text("", encoding="utf-8")
            with pytest.raises(OSError):
                cli.run("solve", cfg, str(tmp_path / "file" / "out"))
        else:
            with np.errstate(all="ignore"):
                assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert sorted(os.listdir(tmp_path)) == ["c.json"] + ["file"] * (
            case == "out_under_a_file")

    @pytest.mark.parametrize("existing", [False, True])
    def test_states_are_renamed_into_out_dir(self, tmp_path, existing):
        out = tmp_path / "a" / "b"
        if existing:
            out.mkdir(parents=True)
        cfg = write_cfg(tmp_path, "c.json", solve_cfg(save_states=True))
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "solve.csv", "states.npz"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "a", "b", "c.json", "manifest.json", "solve.csv", "states.npz"]


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

    @pytest.mark.parametrize("over, message", [
        ({"suite_size": 0}, "suite_size must be >= 1, got 0"),
        ({"params": {"refine": 0}}, "refine must be >= 1, got 0")],
        ids=["suite_size", "refine"])
    def test_zero_size_or_refine_is_named(self, tmp_path, capsys, over, message):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "free", "suite_size": 4, "seed": 0,
            **over})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_unknown_estimate_id(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "verify", "estimate_id": "sharp",
            "suite_size": 4, "seed": 0})
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "estimate_id" in capsys.readouterr().err


class TestManifestParameters:
    # the entries a runner adds to its config fields; illposed's N_list is
    # replaced by its sorted floats
    DERIVED = {"solve": {"dealias_fraction"}, "illposed": set(), "verify": set(),
               "norms": {"n_times", "dt"}}

    def test_parameters_are_the_fields_and_derived_entries(self, tmp_path):
        # every optional field is omitted, and appears with its default
        solve = solve_cfg()
        del solve["integrator"]
        configs = {
            "solve": solve,
            "illposed": {"command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
                         "samples": 10000, "N_list": [14, 8, 12, 10]},
            "verify": {"command": "verify", "estimate_id": "free", "suite_size": 1,
                       "seed": 0},
            "norms": {"command": "norms", "input_path": str(tmp_path / "states.npz"),
                      "b": 0.0, "s1": 0.0, "s2": 0.0},
        }
        states = write_cfg(tmp_path, "states.json", solve_cfg(save_states=True))
        assert main(["solve", "--config", states, "--out", str(tmp_path)]) == 0
        parameters = {}
        for command, cfg in configs.items():
            path = write_cfg(tmp_path, f"{command}.json", cfg)
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) == 0
            parameters[command] = json.loads((out / "manifest.json").read_text())["parameters"]
            fields = {field[0] for field in cli._COMMANDS[command][2]}
            assert set(parameters[command]) == fields | self.DERIVED[command], command
        assert parameters["solve"]["integrator"] == "picard"
        assert parameters["solve"]["save_states"] is False
        assert parameters["illposed"]["seed"] == 0
        assert parameters["illposed"]["N_list"] == [8.0, 10.0, 12.0, 14.0]
        assert parameters["verify"]["params"] == {}


class TestManifestTolerances:
    def test_entries_are_the_library_constants(self):
        expected = {
            "hermitian_tol": spectral_core.HERMITIAN_TOL,
            "kp_admissibility_tol": spectral_core.KP_ADMISSIBLE_TOL,
            "semigroup_admissibility_tol": semigroup.ADMISSIBLE_TOL,
            "taper_alpha": norms.TAPER_FRACTION,
            "min_time_steps_for_norms": norms.MIN_STEPS,
            "min_quadrature_cells": illposedness.MIN_CELLS,
            "min_chi_samples": illposedness.MIN_CHI_SAMPLES,
            "etd_phi_series_cutoff": solver.PHI_SERIES_CUTOFF,
        }
        assert kpblab.TOLERANCES.keys() == expected.keys()
        for name, value in expected.items():
            assert kpblab.TOLERANCES[name] is value, name
        default = inspect.signature(spectral_core.is_kp_admissible).parameters["tol"].default
        assert default is spectral_core.KP_ADMISSIBLE_TOL


class TestPublicPath:
    """The CLI reaches the library through public names only, and the
    modules reach each other's private names only where listed, whether
    imported by name or read as a module attribute."""

    # Every `from .module import _name` in the package, as
    # "importer: module._name".  A new coupling fails the test; removing one
    # means shrinking the list.  The list is empty: every name that one
    # module takes from another is public in its one home.
    PRIVATE_IMPORTS = []

    # Every read of a private name as an attribute of a sibling module bound
    # by `from . import module`, in the same form; the same rule holds.
    PRIVATE_ATTRIBUTES = []

    # Every import of one module of the package by another, as
    # "importer -> module"; `from . import name` imports the module ``name``
    # where there is one and the package (``__init__``) otherwise.  modes
    # imports spectral_core only, so that solver and norms can import it
    # without a cycle.
    IMPORT_EDGES = [
        "__init__ -> illposedness",
        "__init__ -> norms",
        "__init__ -> semigroup",
        "__init__ -> solver",
        "__init__ -> spectral_core",
        "__init__ -> verify",
        "cli -> __init__",
        "cli -> illposedness",
        "cli -> modes",
        "cli -> norms",
        "cli -> solver",
        "cli -> spectral_core",
        "cli -> states",
        "cli -> verify",
        "illposedness -> spectral_core",
        "modes -> spectral_core",
        "norms -> modes",
        "norms -> solver",
        "norms -> spectral_core",
        "semigroup -> spectral_core",
        "solver -> modes",
        "solver -> semigroup",
        "solver -> spectral_core",
        "states -> solver",
        "states -> spectral_core",
        "verify -> modes",
        "verify -> norms",
        "verify -> semigroup",
        "verify -> solver",
        "verify -> spectral_core",
    ]

    @staticmethod
    def package_trees():
        """(module name, AST) of every module of the package."""
        package = os.path.dirname(kpblab.__file__)
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    yield name[:-3], ast.parse(fh.read())

    def test_private_imports_across_modules(self):
        found = []
        for name, tree in self.package_trees():
            found += [f"{name}: {node.module or ''}.{alias.name}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level > 0
                      for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
        assert sorted(found) == self.PRIVATE_IMPORTS

    def test_private_attribute_reads_across_modules(self):
        trees = list(self.package_trees())
        siblings = {name for name, _ in trees}
        found = []
        for name, tree in trees:
            # the names a module binds to sibling modules: `from . import x
            # [as y]` and `from kpblab import x [as y]`
            bound = {alias.asname or alias.name: alias.name
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and ((node.level == 1 and node.module is None)
                          or (node.level == 0 and node.module == "kpblab"))
                     for alias in node.names if alias.name in siblings}
            found += [f"{name}: {bound[node.value.id]}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id in bound
                      and node.attr.startswith("_") and not node.attr.endswith("__")]
        assert sorted(found) == self.PRIVATE_ATTRIBUTES

    def test_import_graph(self):
        trees = list(self.package_trees())
        siblings = {name for name, _ in trees}
        found = set()
        for name, tree in trees:
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 0:  # `from kpblab[.x] import ...`
                    if (node.module or "").partition(".")[0] != "kpblab":
                        continue
                    module = node.module.partition(".")[2] or None
                else:
                    module = node.module
                if module is not None:
                    found.add(f"{name} -> {module}")
                else:
                    found |= {f"{name} -> {alias.name if alias.name in siblings else '__init__'}"
                              for alias in node.names}
        assert sorted(found) == self.IMPORT_EDGES

    def test_stream_and_windowed_power_are_exported(self):
        for module, name in [(solver, "solve_states"), (norms, "WindowedPower")]:
            assert name in module.__all__ and name in kpblab.__all__
            assert getattr(kpblab, name) is getattr(module, name)
        for module in (kpblab, spectral_core, semigroup, solver, norms, illposedness,
                       modes, verify, cli):
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], module.__name__


def src_env() -> dict:
    """The environment with only this checkout's src on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kpblab.__file__)))
    return dict(os.environ, PYTHONPATH=src)


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
        # scipy.integrate and scipy.signal would cost most of the import time
        # every command pays; kpblab does not use scipy at runtime at all.
        # numpy.polynomial is imported only by the illposed data norm.
        code = ("import sys, kpblab.cli; "
                "print(sorted(m for m in ('numpy.polynomial', 'scipy.integrate', "
                "'scipy.signal') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_illposed_run_never_loads_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "command": "illposed", "s": -0.7, "eps0": 0.01, "cells": 64,
            "samples": 10000, "N_list": [8, 10, 12, 14]})
        code = ("import sys, kpblab.cli; "
                f"rc = kpblab.cli.main(['illposed', '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                "print(rc, sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"
