"""Command line front end: config parsing, artifacts, exit codes."""

import argparse
import json
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from twoatom.cli import (
    _RUNNERS,
    _build_parser,
    canonical_json,
    format_float,
    main,
    parse_config_text,
)
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.errors import BasisLookupError, ConfigError
from twoatom.analysis import build_model
from twoatom.operators import format_triplets


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "# compact box model for fast runs\n"
        "num_modes = 4\n"
        "n_max = 1\n"
        "coupling_strength = 0.25\n"
    )
    return str(path)


# ---------------------------------------------------------------------------
# config text
# ---------------------------------------------------------------------------


def test_parse_config_comments_and_defaults():
    cfg = parse_config_text(
        "\n"
        "# leading comment\n"
        "num_modes = 6   # trailing comment\n"
        "coupling_strength = 0.5\n"
    )
    assert isinstance(cfg, ModelConfig)
    assert cfg.num_modes == 6
    assert cfg.coupling_strength == 0.5
    assert cfg.n_max == 2


def test_parse_config_lattice_selector():
    cfg = parse_config_text(
        "field_model = lattice\n"
        "num_sites = 8\n"
        "site_a = 1\n"
        "site_b = 6\n"
    )
    assert isinstance(cfg, LatticeConfig)
    assert cfg.num_sites == 8


def test_parse_config_rejections():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("n_max = 1\nn_max = 2\n")
    with pytest.raises(ConfigError, match="valid keys.*num_modes") as info:
        parse_config_text("mode_count = 4\n")
    assert "coupling_strength" in str(info.value)
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("num_modes = many\n")
    with pytest.raises(ConfigError, match="field_model"):
        parse_config_text("field_model = waveguide\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("num_modes =\n")
    # keys of the other field model are unknown here
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("num_sites = 8\n")


@pytest.mark.parametrize("text, message", [
    ("levels_a = 1", "at least 2 levels"),
    ("omega_b = 0.0", "frequencies must be positive"),
    ("n_max = 0", "n_max must be at least 1"),
    ("coupling_strength = -0.1", "coupling_strength must be non-negative"),
    ("coupling_form = dipole", "coupling_form must be one of"),
    ("coupling_scale_b = -1.0", "coupling scales must be non-negative"),
    ("box_length = 0.0", "box_length must be positive"),
    ("x_b = 7.0", "positions must lie in [0, box_length)"),
    ("x_b = 0.0", "separated"),
    ("num_modes = 0", "num_modes must be at least 1"),
    ("cutoff = 0.0", "cutoff must be positive"),
    ("field_model = lattice\nnum_sites = 1", "num_sites must be at least 2"),
    ("field_model = lattice\nhopping = 0.0", "hopping must be positive"),
    ("field_model = lattice\nsite_frequency = 0.5", "site_frequency must be at least 2*hopping"),
    ("field_model = lattice\nsite_b = 12", "site_b must lie in [0, num_sites)"),
    ("field_model = lattice\nsite_a = 9", "atoms must sit on different sites"),
], ids=["levels", "frequency", "n_max", "coupling_strength", "coupling_form",
        "coupling_scale", "box_length", "position", "separated", "num_modes", "cutoff",
        "num_sites", "hopping", "site_frequency", "site_range", "same_site"])
def test_parse_config_invalid_values_carry_config_error(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text + "\n")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, math.pi, 1e-30, 2.5e-16, -7.25, 0.0):
        assert float(format_float(x)) == x


def test_canonical_json_shapes():
    text = canonical_json({"b": 1, "a": [True, None, 0.1], "c": "x"})
    assert text == '{"a": [true, null, 0.10000000000000001], "b": 1, "c": "x"}'
    assert json.loads(text) == {"a": [True, None, 0.1], "b": 1, "c": "x"}
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json(np.int32(7)) == "7"
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json(float("inf"))
    with pytest.raises(TypeError):
        canonical_json({"x": {1, 2}})


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


def test_simulate_end_to_end(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "4,40", "--method", "dense"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "simulate.csv") in printed
    assert str(out / "simulate.json") in printed

    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 1 + 41
    first_t, first_v = lines[1].split(",")
    assert float(first_t) == 0.0
    assert abs(float(first_v)) < 1e-20

    summary = json.loads((out / "simulate.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["observable"] == "excitation_b"
    assert summary["classification"] == "nonzero_almost_everywhere"
    manifest = summary["manifest"]
    assert manifest["config"]["field_model"] == "continuum"
    assert manifest["config"]["num_modes"] == 4
    assert manifest["grid"] == {"t_max": 4.0, "steps": 40}

    # the fingerprint is the hash of the manifest without the fingerprint
    fp = manifest.pop("fingerprint")
    assert fp == hashlib.sha256(canonical_json(manifest).encode()).hexdigest()


def test_simulate_decoupled_writes_zero_series(tmp_path):
    cfg = tmp_path / "null.cfg"
    cfg.write_text("num_modes = 4\nn_max = 1\ncoupling_strength = 0.0\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--grid", "4,20"])
    assert code == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert len(lines) == 1 + 21
    values = [abs(float(line.split(",")[1])) for line in lines[1:]]
    assert max(values) <= 1e-28
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["classification"] == "identically_zero"


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_simulate_reruns_byte_identical(tmp_path, small_config, method):
    out = tmp_path / "run"
    argv = ["simulate", "--config", small_config, "--out", str(out),
            "--grid", "4,40", "--method", method]
    assert main(argv) == 0
    first = [(out / n).read_bytes() for n in ("simulate.csv", "simulate.json")]
    assert main(argv) == 0
    second = [(out / n).read_bytes() for n in ("simulate.csv", "simulate.json")]
    assert first == second


def test_simulate_dump_hamiltonian_round_trip(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,10", "--dump-hamiltonian"])
    assert code == 0
    path = out / "hamiltonian.txt"
    rows, cols, real, imag = np.loadtxt(path, comments="#", ndmin=2).T
    _, hamiltonian = build_model(parse_config_text(
        (tmp_path / "small.cfg").read_text()))
    coo = hamiltonian.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    assert f"# dimension {hamiltonian.dimension}\n" in path.read_text()
    assert np.array_equal(rows, coo.row[order])
    assert np.array_equal(cols, coo.col[order])
    assert np.array_equal(real + 1j * imag, coo.data[order])


def test_simulate_dump_hamiltonian_leaves_cwd_empty(tmp_path, small_config,
                                                    monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,10", "--dump-hamiltonian"])
    assert code == 0
    assert list(cwd.iterdir()) == []
    _, hamiltonian = build_model(parse_config_text(
        (tmp_path / "small.cfg").read_text()))
    assert (out / "hamiltonian.txt").read_bytes() == format_triplets(hamiltonian).encode()


def test_simulate_photon_region(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "3,30", "--observable", "photon_region",
                 "--region", "0,3.14159"])
    assert code == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["observable"] == "photon_region"
    assert summary["manifest"]["region"] == [0.0, 3.14159]


def test_dichotomy_report(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["dichotomy", "--config", small_config, "--out", str(out),
                 "--grid", "4,60"])
    assert code == 0
    summary = json.loads((out / "dichotomy.json").read_text())
    report = summary["report"]
    assert report["classification"] == "nonzero_almost_everywhere"
    assert report["interior_plateaus"] == []
    assert np.isfinite(report["log_integral"])
    assert not report["floor_dominated"]


def test_weak_causality_lattice(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(
        "field_model = lattice\n"
        "num_sites = 8\n"
        "site_a = 1\n"
        "site_b = 6\n"
    )
    out = tmp_path / "run"
    code = main(["weak-causality", "--config", str(cfg), "--out", str(out),
                 "--grid", "10,100"])
    assert code == 0
    lines = (out / "weak_causality.csv").read_text().splitlines()
    assert lines[0] == "t,delta"
    summary = json.loads((out / "weak_causality.json").read_text())
    assert summary["light_cone_time"] == 5.0
    assert summary["front"]["detected"] is True
    assert summary["max_abs_delta_before_cone"] <= summary["max_abs_delta"]


def test_fermi_integral_both_ranges(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["fermi-integral", "--config", small_config, "--out", str(out),
                 "--grid", "4,16"])
    assert code == 0
    lines = (out / "fermi_integral.csv").read_text().splitlines()
    assert lines[0] == "t,amplitude_sq,range"
    assert len(lines) == 1 + 2 * 17
    tags = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert tags == {"positive_only", "extended"}
    summary = json.loads((out / "fermi_integral.json").read_text())
    for block in summary["ranges"].values():
        assert block["achieved_error"] <= 1e-12


def test_fermi_integral_single_range(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["fermi-integral", "--config", small_config, "--out", str(out),
                 "--grid", "4,8", "--range", "extended"])
    assert code == 0
    lines = (out / "fermi_integral.csv").read_text().splitlines()
    assert all(line.endswith(",extended") for line in lines[1:])


def test_cutoff_sweep_csv(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["cutoff-sweep", "--config", small_config, "--out", str(out),
                 "--grid", "4,40", "--cutoffs", "2,4,8"])
    assert code == 0
    lines = (out / "cutoff_sweep.csv").read_text().splitlines()
    assert lines[0] == "cutoff,modes_retained,max_prob_before_cone,log_integral,error"
    assert len(lines) == 4
    summary = json.loads((out / "cutoff_sweep.json").read_text())
    assert summary["trend"] in {"constant", "increasing", "decreasing",
                                "non_monotone"}
    assert [row["cutoff"] for row in summary["rows"]] == [2.0, 4.0, 8.0]
    assert all(row["error"] is None for row in summary["rows"])
    assert "workers" not in summary["manifest"]
    # a grid whose series cannot fit in memory fails every row, not the sweep
    code = main(["cutoff-sweep", "--config", small_config, "--out", str(out),
                 "--grid", "1e300,2", "--cutoffs", "2,4", "--method", "krylov"])
    assert code == 0
    lines = (out / "cutoff_sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 2
    assert all(line.endswith("of physical memory: shorten the grid") for line in lines)
    summary = json.loads((out / "cutoff_sweep.json").read_text())
    assert all("physical memory" in row["error"] for row in summary["rows"])


def test_files_follow_the_umask(tmp_path, small_config):
    out = tmp_path / "run"
    old = os.umask(0o022)
    try:
        code = main(["simulate", "--config", small_config, "--out", str(out),
                     "--grid", "2,10", "--dump-hamiltonian"])
    finally:
        os.umask(old)
    assert code == 0
    written = sorted(out.iterdir())
    assert [p.name for p in written] == ["hamiltonian.txt", "simulate.csv",
                                         "simulate.json"]
    assert all(p.stat().st_mode & 0o777 == 0o644 for p in written)


# ---------------------------------------------------------------------------
# inputs and their refusals
# ---------------------------------------------------------------------------


def test_environment_is_no_input(tmp_path, small_config, monkeypatch):
    # flags and the config file are a run's only inputs: variables named
    # after its flags leave every byte of its outputs as it was
    argv = ["simulate", "--config", small_config]
    names = ["simulate.csv", "simulate.json"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("TWOATOM_GRID", "2,10")
    monkeypatch.setenv("TWOATOM_OBSERVABLE", "exchange")
    assert main(argv + ["--out", str(tmp_path / "set")]) == 0
    assert [(tmp_path / "set" / n).read_bytes() for n in names] == \
        [(tmp_path / "plain" / n).read_bytes() for n in names]


@pytest.mark.parametrize("args", [
    ["simulate", "--observable", "exchange", "--region", "0,1"],
    ["dichotomy", "--region", "0,1"],
], ids=["simulate", "dichotomy"])
def test_region_without_photon_region_exits_two_before_any_model(
        tmp_path, small_config, monkeypatch, capsys, args):
    # the series would ignore the region, yet the manifest would record it
    from twoatom import analysis

    def refuse(config):
        raise AssertionError("a model was built")

    monkeypatch.setattr(analysis, "build_basis", refuse)
    analysis.build_model.cache_clear()
    out = tmp_path / "run"
    code = main(args + ["--config", small_config, "--out", str(out), "--grid", "2,10"])
    assert code == 2
    assert "photon_region only" in capsys.readouterr().err
    assert not out.exists()


def test_photon_region_on_a_lattice_exits_two_before_any_model(tmp_path, monkeypatch,
                                                               capsys):
    from twoatom import analysis

    def refuse(config):
        raise AssertionError("a model was built")

    monkeypatch.setattr(analysis, "build_basis", refuse)
    analysis.build_model.cache_clear()
    config = tmp_path / "lattice.cfg"
    config.write_text("field_model = lattice\n")
    out = tmp_path / "run"
    code = main(["simulate", "--observable", "photon_region", "--config", str(config),
                 "--out", str(out), "--grid", "2,10"])
    assert code == 2
    assert "box field only" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# failure modes leave no partial outputs
# ---------------------------------------------------------------------------


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode_count = 4\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--grid", "2,10"])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path), "--grid", "2,10"])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
def test_unwritable_out_exits_two(tmp_path, small_config, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    code = main(["simulate", "--config", small_config,
                 "--out", str(taken.joinpath(*below)), "--grid", "2,4"])
    assert code == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg", "taken"]


def _fail_second_temporary(monkeypatch):
    """Let the first temporary be written and make the second's write fail."""
    opened = []
    real_fdopen = os.fdopen

    def fail_second(fd, *args, **kwargs):
        opened.append(fd)
        if len(opened) == 2:
            os.close(fd)
            raise OSError("no space left")
        return real_fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", fail_second)
    return opened


def test_failed_write_leaves_no_file_of_the_run(tmp_path, small_config, capsys,
                                                monkeypatch):
    # the first file's temporary is written, the second's cannot be; the
    # directories the run made for --out go too, the deeper one first
    opened = _fail_second_temporary(monkeypatch)
    out = tmp_path / "runs" / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,4"])
    assert code == 2
    assert "cannot write outputs: no space left" in capsys.readouterr().err
    assert len(opened) == 2
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


def test_failed_write_keeps_an_out_directory_that_existed(tmp_path, small_config,
                                                          capsys, monkeypatch):
    opened = _fail_second_temporary(monkeypatch)
    out = tmp_path / "run"
    out.mkdir()
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,4"])
    assert code == 2
    assert "cannot write outputs: no space left" in capsys.readouterr().err
    assert len(opened) == 2
    assert out.is_dir()
    assert list(out.iterdir()) == []


def test_failed_rename_restores_the_previous_run(tmp_path, small_config, capsys,
                                                 monkeypatch):
    # the second run's first file is already in place when its second
    # rename fails; both files go back to the first run's bytes
    out = tmp_path / "run"
    argv = ["simulate", "--config", small_config, "--out", str(out), "--grid", "2,4"]
    assert main(argv) == 0
    names = ["simulate.csv", "simulate.json"]
    first = [(out / n).read_bytes() for n in names]
    capsys.readouterr()
    landed = []
    real_replace = os.replace

    def fail_second_rename(src, dst):
        if os.path.basename(dst) in names:
            landed.append(dst)
            if len(landed) == 2:
                raise OSError("rename failed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second_rename)
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "3,6"])
    assert code == 2
    assert "cannot write outputs: rename failed" in capsys.readouterr().err
    assert [(out / n).read_bytes() for n in names] == first
    assert sorted(p.name for p in out.iterdir()) == names
    # into a fresh --out the first file has no predecessor: it goes, and
    # so do the directories the run made
    landed.clear()
    fresh = tmp_path / "fresh" / "run"
    code = main(["simulate", "--config", small_config, "--out", str(fresh),
                 "--grid", "3,6"])
    assert code == 2
    assert "cannot write outputs: rename failed" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("t_max", ["1e9", "1e15"])
def test_merely_huge_grid_exits_two_before_any_table(tmp_path, small_config, capsys,
                                                     monkeypatch, t_max):
    # the series order grows like rho * t_max, so its coefficient table would
    # outgrow physical memory; it is refused before any table is formed
    def refuse(*args, **kwargs):
        raise AssertionError("a coefficient table was formed")

    monkeypatch.setattr("twoatom.propagator._exp_coefficients", refuse)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", small_config, "--out", str(out),
                     "--grid", f"{t_max},2", "--method", "krylov"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("subcommand", ["simulate", "fermi-integral"])
def test_grid_of_points_beyond_memory_exits_two(tmp_path, small_config, capsys, monkeypatch,
                                                subcommand):
    # 1e11 + 1 float64 times are 800 GB: the grid's own guard refuses them
    # against 8 GB before np.linspace forms any
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 8 * 10**9)
    out = tmp_path / "run"
    code = main([subcommand, "--config", small_config, "--out", str(out),
                 "--grid", "2,100000000000"])
    assert code == 2
    assert "a grid of 100000000001 points needs 800 GB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["simulate", "dichotomy"])
def test_huge_grid_times_weigh_the_log_integral_without_overflow(tmp_path, small_config,
                                                                 subcommand):
    # the witness weighs ln P by 1 / (1 + t^2), and t^2 overflows past
    # t = 1.3e154; the run must not warn, since warnings are errors here.
    # One step of the grid weighs ln P(0) = ln 1e-30 by arctan(t_max) at
    # most, so the value stays within |ln 1e-30| pi / 2 = 108.51
    out = tmp_path / "run"
    code = main([subcommand, "--config", small_config, "--out", str(out),
                 "--grid", "1e300,2", "--method", "dense"])
    assert code == 0
    summary = json.loads((out / f"{subcommand}.json").read_text())
    assert abs(summary.get("report", summary)["log_integral"]) <= 108.51


@pytest.mark.parametrize("subcommand", ["simulate", "dichotomy"])
def test_one_step_past_1e306_integrates_without_overflow(tmp_path, subcommand):
    # a trapezoid step of length 1e307 times ln P overflowed to -inf; the
    # exact step integral stays within the same 108.51 bound and exits 0
    cfg = tmp_path / "case.cfg"
    cfg.write_text("num_modes = 4\nn_max = 1\n")
    out = tmp_path / "run"
    code = main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--method", "dense", "--grid", "1e307,2"])
    assert code == 0
    summary = json.loads((out / f"{subcommand}.json").read_text())
    assert abs(summary.get("report", summary)["log_integral"]) <= 108.51


def test_malformed_grid_exits_two(tmp_path, small_config, capsys):
    code = main(["simulate", "--config", small_config,
                 "--out", str(tmp_path / "run"), "--grid", "5"])
    assert code == 2
    assert "bad value for --grid" in capsys.readouterr().err


def test_empty_cutoff_list_exits_two(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    code = main(["cutoff-sweep", "--config", small_config, "--out", str(out),
                 "--grid", "2,4", "--cutoffs", ","])
    assert code == 2
    assert "bad value for --cutoffs: ','" in capsys.readouterr().err
    assert not out.exists()


def test_other_package_errors_exit_one(tmp_path, small_config, capsys, monkeypatch):
    # a TwoAtomError outside the four mapped kinds is reported, exit 1
    def lookup_fails(args):
        raise BasisLookupError("no such state")

    monkeypatch.setitem(_RUNNERS, "simulate", lookup_fails)
    out = tmp_path / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out), "--grid", "2,4"])
    assert code == 1
    assert capsys.readouterr().err == "twoatom: no such state\n"
    assert not out.exists()


def test_unconverged_quadrature_exits_three(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    code = main(["fermi-integral", "--config", small_config, "--out", str(out),
                 "--grid", "2,4", "--quad-tol", "1e-30"])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_propagation_exits_three(tmp_path, capsys):
    # dim 180 (num_modes 8, n_max 2): a norm tolerance of 1e-30 is below rounding
    cfg = tmp_path / "mid.cfg"
    cfg.write_text("num_modes = 8\nn_max = 2\ncoupling_strength = 0.25\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--grid", "2,4", "--method", "krylov", "--tol", "1e-30"])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--tol", "inf"],
    ["simulate", "--method", "dense", "--tol", "nan"],
    ["simulate", "--tol", "nan"],
    ["simulate", "--tol", "-1"],
    ["dichotomy", "--tol", "-0.5"],
    ["weak-causality", "--tol", "inf"],
    ["cutoff-sweep", "--tol", "nan"],
    ["fermi-integral", "--quad-tol", "inf"],
    ["fermi-integral", "--quad-tol", "nan"],
    ["fermi-integral", "--quad-tol", "-1"],
], ids=["tol-inf", "tol-nan-dense", "tol-nan", "tol-negative", "dichotomy-tol-negative",
        "weak-causality-tol-inf", "cutoff-sweep-tol-nan", "quad-tol-inf", "quad-tol-nan",
        "quad-tol-negative"])
def test_bad_tolerance_exits_two_before_any_model(tmp_path, small_config, capsys,
                                                  monkeypatch, argv):
    # a tolerance must be finite and non-negative: anything else is refused
    # before a basis is enumerated or a quadrature runs
    def refuse(*args, **kwargs):
        raise AssertionError("the run went on past a bad tolerance")
    monkeypatch.setattr("twoatom.analysis.build_basis", refuse)
    monkeypatch.setattr("twoatom.cli.exchange_amplitude_series", refuse)
    out = tmp_path / "run"
    code = main(argv + ["--config", small_config, "--out", str(out), "--grid", "2,4"])
    assert code == 2
    assert f"bad value for {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # on 40 steps the weights miss 1 by 3.3e-16; on the 5 points of "2,4"
    # both certificate terms are exactly 0, and a zero tolerance is met there
    ["simulate", "--method", "krylov", "--tol", "0", "--grid", "2,40"],
    ["fermi-integral", "--quad-tol", "0", "--grid", "2,4"],
], ids=["tol", "quad-tol"])
def test_zero_tolerance_is_valid_and_unmet_exits_three(tmp_path, small_config, capsys,
                                                      argv):
    out = tmp_path / "run"
    code = main(argv + ["--config", small_config, "--out", str(out)])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_tol_gates_auto_on_the_lattice(tmp_path, capsys):
    # the lattice's 364 states once took the dense path under auto, which
    # ignores --tol; the series' certificate reads 1.1e-15 there
    config = tmp_path / "lattice.cfg"
    config.write_text("field_model = lattice\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(config), "--out", str(out), "--tol", "0"])
    assert code == 3
    assert "off by 1.110e-15" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--tol", "1e-13"]) == 0


def test_criterion_6_auto_matches_dense_at_the_benchmark_shape(tmp_path):
    # dichotomy --observable photon_region on 30 modes (992-state block):
    # the series under auto against the dense eigendecomposition
    config = tmp_path / "photon.cfg"
    config.write_text("num_modes = 30\n")
    runs = {}
    for method in ("auto", "dense"):
        out = tmp_path / method
        assert main(["dichotomy", "--observable", "photon_region", "--config", str(config),
                     "--out", str(out), "--method", method]) == 0
        values = np.loadtxt(out / "dichotomy.csv", delimiter=",", skiprows=1)
        report = json.loads((out / "dichotomy.json").read_text())["report"]
        runs[method] = values, report
    (auto, auto_report), (dense, dense_report) = runs["auto"], runs["dense"]
    assert np.array_equal(auto[:, 0], dense[:, 0])
    assert np.max(np.abs(auto[:, 1] - dense[:, 1])) <= 1e-12
    for key in ("classification", "num_zero_candidates", "num_isolated_zero_candidates",
                "interior_plateaus"):
        assert auto_report[key] == dense_report[key], key


def test_photon_sector_beyond_memory_exits_four(tmp_path, small_config, capsys, monkeypatch):
    # physical memory made smaller than the two dense arrays of the
    # one-photon sector (4 x 4 entries of up to 16 bytes each)
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 2 * 16 * 4**2 - 1)
    out = tmp_path / "run"
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,4", "--observable", "photon_region"])
    assert code == 4
    assert "4-dim photon-number sector" in capsys.readouterr().err
    assert not out.exists()


def test_dense_eigh_beyond_memory_exits_four(tmp_path, capsys, monkeypatch):
    # the default start's 1122-state block needs five dense float64 arrays,
    # 50.4 MB, for its eigh: refused against 15 MB before any is formed
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 15 * 10**6)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["simulate", "--out", str(out), "--grid", "1,10", "--method", "dense"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    err = capsys.readouterr().err
    assert "dense eigendecomposition of dimension 1122 needs 0.0504 GB" in err
    assert "drop --method dense" in err
    assert not out.exists()
    # the model itself peaks near 14 MB; the eigh would add at least 20 MB
    assert peak < 20 * 2**20


def test_dense_eigh_counts_its_workspace(tmp_path, capsys, monkeypatch):
    # eigh holds the dense matrix, its LAPACK copy, V and syevd's 2 n^2
    # workspace: 50.4 MB on the 1122-state block, which 30 MB does not hold,
    # though the matrix and V alone (20.1 MB) would fit
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 30 * 10**6)
    out = tmp_path / "run"
    code = main(["simulate", "--out", str(out), "--grid", "1,10", "--method", "dense"])
    assert code == 4
    err = capsys.readouterr().err
    assert "dense eigendecomposition of dimension 1122 needs 0.0504 GB" in err
    assert "drop --method dense" in err
    assert not out.exists()


@pytest.mark.parametrize("method, grid", [("dense", "6.28,4000"), ("krylov", "300,400")],
                         ids=["dense", "krylov"])
def test_grid_of_states_beyond_memory_exits_two(tmp_path, capsys, monkeypatch, method,
                                                grid):
    # dense: 4001 states of the default 1122-state block are 72 MB of complex
    # amplitudes, counted with the phases and the eigenvectors; krylov forms
    # no states, but out to t = 300 the series needs 6117 terms, whose rows
    # observed on the 561 excited-B states are 55 MB with the QR's copy.
    # Both are refused against 40 MB by the grid's own guard, which the
    # dense path asks before the block's eigh (50.4 MB)
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 40 * 10**6)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["simulate", "--out", str(out), "--grid", grid, "--method", method])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "physical memory: shorten the grid" in err
    assert not out.exists()
    assert peak < 32 * 2**20


def test_dense_grid_counts_the_eigenvectors(tmp_path, capsys, monkeypatch):
    # the phases and states of 1001 points are 35.9 MB and fit in 40 MB on
    # their own; beside the block's 10.1 MB of real eigenvectors they do not
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 40 * 10**6)
    out = tmp_path / "run"
    code = main(["simulate", "--out", str(out), "--grid", "6.28,1000", "--method", "dense"])
    assert code == 2
    assert ("a grid of 1001 dense states of dimension 1122, beside the eigenvectors, "
            "needs 0.046 GB") in capsys.readouterr().err
    assert not out.exists()


def test_long_krylov_grid_forms_no_state_grid(tmp_path, monkeypatch):
    # the series path sums P(t) from K coordinates per point, so the 4001
    # points that the states path refuses against 40 MB now run, and the
    # run never holds the 72 MB grid of states
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 40 * 10**6)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["simulate", "--out", str(out), "--grid", "6.28,4000",
                     "--method", "krylov"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((out / "simulate.csv").read_text().splitlines()) == 4002
    assert peak < 4001 * 1122 * 16


def test_krylov_grid_of_8001_points_runs_in_40_mb(tmp_path, monkeypatch):
    # the coefficient table is formed a chunk of points at a time, so the
    # grid's length no longer sets the series' memory: 8001 points of the
    # default block fit the 40 MB that refuses 4001 dense states
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 40 * 10**6)
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["simulate", "--out", str(out), "--grid", "6.28,8000",
                     "--method", "krylov"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((out / "simulate.csv").read_text().splitlines()) == 8002
    assert peak < 40 * 10**6


def test_oversized_basis_exits_four(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("num_modes = 80000\nn_max = 1\ncutoff = 1e6\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--grid", "2,4"])
    assert code == 4
    assert "model too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config_text", [
    (["simulate", "--grid", "nan,10"], ""),
    (["simulate", "--grid", "inf,10"], ""),
    (["simulate", "--grid", "2,4"], "cutoff = nan"),
    (["simulate", "--grid", "2,4"], "coupling_strength = inf"),
    (["simulate", "--grid", "2,4"], "field_model = lattice\nhopping = nan"),
    (["cutoff-sweep", "--grid", "2,4", "--cutoffs", "nan,4"], ""),
    (["fermi-integral", "--grid", "2,4"], "omega_a = nan"),
    (["simulate", "--grid", "1e308,2"], ""),
    (["simulate", "--method", "dense", "--grid", "1e308,2"], "num_modes = 4\nn_max = 1"),
    # np.linspace repeats subnormal points: refused before any model is built
    (["simulate", "--grid", "1e-320,800"], ""),
    (["weak-causality", "--grid", "1e-320,800"], ""),
    (["fermi-integral", "--grid", "1e-320,800"], ""),
    # series orders past a float's range: the memory refusal still reports its size
    (["simulate", "--grid", "1e153,2"], ""),
    (["simulate", "--grid", "1e160,2"], ""),
    (["simulate", "--grid", "1e300,2"], ""),
    (["dichotomy", "--grid", "1e200,2"], ""),
    (["weak-causality", "--grid", "1e300,2"], ""),
    # t^2 overflows in the amplitude's kernel
    (["fermi-integral", "--grid", "1e160,2"], ""),
    (["fermi-integral", "--grid", "1e300,2"], ""),
    (["simulate", "--grid", "2,4"], "n_max = 0"),
], ids=["grid-nan", "grid-inf", "cutoff-nan", "coupling-inf", "hopping-nan",
        "cutoffs-nan", "omega-nan", "grid-huge", "grid-huge-dense",
        "grid-repeats", "grid-repeats-weak-causality", "grid-repeats-fermi",
        "grid-1e153", "grid-1e160", "grid-1e300", "grid-1e200-dichotomy",
        "grid-1e300-weak-causality", "grid-1e160-fermi",
        "grid-1e300-fermi", "n_max-0"])
def test_non_finite_inputs_exit_two(tmp_path, capsys, argv, config_text):
    # the default config unless the case changes it
    cfg = tmp_path / "case.cfg"
    cfg.write_text(config_text + "\n")
    out = tmp_path / "run"
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cutoff_sweep_rejects_lattice(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("field_model = lattice\n")
    code = main(["cutoff-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "run"), "--grid", "2,4"])
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["spectrum"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", [["--method", "dense"], ["--tol", "1e-9"]])
def test_fermi_integral_rejects_propagation_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as info:
        main(["fermi-integral", "--out", str(tmp_path / "run"), *flag])
    assert info.value.code == 2


def _help(subcommand, capsys) -> str:
    with pytest.raises(SystemExit) as info:
        main([subcommand, "--help"])
    assert info.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_help_reads_the_tolerance_defaults(monkeypatch, capsys):
    # the help text quotes the module constants, not a copy of their values
    monkeypatch.setattr("twoatom.cli.DEFAULT_TOL", 3e-7)
    monkeypatch.setattr("twoatom.cli.DEFAULT_QUAD_TOL", 5e-9)
    assert "propagation tolerance (default 3e-07)" in _help("simulate", capsys)
    assert "quadrature absolute error (default 5e-09)" in _help("fermi-integral",
                                                                capsys)


def test_readme_table_lists_each_subcommands_own_flags():
    # each row of README's subcommand table names exactly the options that
    # subparser adds beyond the shared ones
    shared = {"-h", "--help", "--config", "--out", "--grid", "--method", "--tol"}
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*?) \|", readme, re.MULTILINE)
    documented = {name: set(re.findall(r"--[a-z-]+", flags))
                  for name, flags in rows if name in subparsers}
    options = {name: {o for a in p._actions for o in a.option_strings} - shared
               for name, p in subparsers.items()}
    assert documented == options


def test_cli_import_defers_scipy_submodules(tmp_path):
    # one process, five stages, each followed by the modules it must not have
    # loaded: bare `import twoatom`, which loads no submodule and not numpy;
    # importing the CLI, which defers hashlib and its OpenSSL to the manifest;
    # fermi-integral, which imports only config, errors
    # and perturbation, whose quadrature runs on numpy alone, and builds no
    # model; simulate, which needs scipy.sparse but not its graph or
    # linear-algebra parts; and simulate on the dense path, whose eigh is
    # numpy's, so that scipy.linalg and the second BLAS it links never load
    model_stack = ("scipy", "twoatom.analysis", "twoatom.basis", "twoatom.operators",
                   "twoatom.propagator")
    stages = [
        ("import twoatom", model_stack + ("numpy", "twoatom.cli", "twoatom.config",
                                          "twoatom.errors", "twoatom.perturbation")),
        ("import twoatom.cli", model_stack + ("hashlib", "_hashlib")),
        (["fermi-integral", "--grid", "3,8"], model_stack),
        (["simulate", "--grid", "2,20"],
         ("scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.linalg")),
        (["simulate", "--method", "dense", "--grid", "2,20"], ("scipy.linalg",)),
    ]
    lines = ["import sys"]
    for step, absent in stages:
        if isinstance(step, str):
            lines.append(step)
        else:
            lines.append(f"assert twoatom.cli.main({step + ['--out', str(tmp_path)]!r}) == 0")
        lines.append(f"print('loaded', sorted(m for m in {absent!r} if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded []"] * len(stages)
