"""Command line front end: config parsing, artifacts, exit codes."""

import json
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twoatom.cli import (
    ENV_PREFIX,
    canonical_json,
    format_float,
    main,
    parse_config_text,
)
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.errors import ConfigError
from twoatom.analysis import build_model
from twoatom.operators import format_triplets


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(key)


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


def test_parse_config_invalid_values_carry_config_error():
    with pytest.raises(ConfigError, match="separated"):
        parse_config_text("x_b = 0.0\n")


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


def test_simulate_reruns_byte_identical(tmp_path, small_config):
    out = tmp_path / "run"
    argv = ["simulate", "--config", small_config, "--out", str(out),
            "--grid", "4,40", "--method", "dense"]
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
                 "--grid", "4,40", "--cutoffs", "2,4,8", "--workers", "2"])
    assert code == 0
    lines = (out / "cutoff_sweep.csv").read_text().splitlines()
    assert lines[0] == "cutoff,modes_retained,max_prob_before_cone,log_integral,error"
    assert len(lines) == 4
    summary = json.loads((out / "cutoff_sweep.json").read_text())
    assert summary["trend"] in {"constant", "increasing", "decreasing",
                                "non_monotone"}
    assert [row["cutoff"] for row in summary["rows"]] == [2.0, 4.0, 8.0]
    assert all(row["error"] is None for row in summary["rows"])


# ---------------------------------------------------------------------------
# environment and precedence
# ---------------------------------------------------------------------------


def test_environment_supplies_flags(tmp_path, small_config, monkeypatch):
    out = tmp_path / "run"
    monkeypatch.setenv("TWOATOM_GRID", "2,10")
    monkeypatch.setenv("TWOATOM_OBSERVABLE", "exchange")
    code = main(["simulate", "--config", small_config, "--out", str(out)])
    assert code == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert len(lines) == 1 + 11
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["observable"] == "exchange"


def test_flags_beat_environment(tmp_path, small_config, monkeypatch):
    out = tmp_path / "run"
    monkeypatch.setenv("TWOATOM_OBSERVABLE", "exchange")
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,10", "--observable", "excitation_B"])
    assert code == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["observable"] == "excitation_b"


def test_bogus_environment_observable(tmp_path, small_config, monkeypatch, capsys):
    out = tmp_path / "run"
    monkeypatch.setenv("TWOATOM_OBSERVABLE", "population_inversion")
    code = main(["simulate", "--config", small_config, "--out", str(out),
                 "--grid", "2,10"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
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


def test_malformed_grid_exits_two(tmp_path, small_config, capsys):
    code = main(["simulate", "--config", small_config,
                 "--out", str(tmp_path / "run"), "--grid", "5"])
    assert code == 2
    assert "bad value for --grid" in capsys.readouterr().err


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


def test_oversized_basis_exits_four(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("num_modes = 80000\nn_max = 1\ncutoff = 1e6\n")
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--grid", "2,4"])
    assert code == 4
    assert "model too large" in capsys.readouterr().err
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


def test_help_reads_the_tolerance_defaults(monkeypatch, capsys):
    # the help text quotes the module constants, not a copy of their values
    monkeypatch.setattr("twoatom.cli.DEFAULT_TOL", 3e-7)
    monkeypatch.setattr("twoatom.cli.DEFAULT_QUAD_TOL", 5e-9)
    with pytest.raises(SystemExit) as info:
        main(["fermi-integral", "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "propagation tolerance (default 3e-07)" in text
    assert "quadrature absolute error (default 5e-09)" in text


def test_cli_import_defers_scipy_submodules():
    # scipy.special serves only the quadrature and scipy.sparse.linalg only
    # the sparse backend, so importing the CLI loads neither
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, twoatom.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.sparse.linalg') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
