"""Tests of the benchmark itself.

    python -m pytest bench

They need the twoatom sources under ``src/`` but run no workload.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from layers import BOUNDARIES, layer_metrics  # noqa: E402
from report import parse_seeds  # noqa: E402
from spec import load_spec  # noqa: E402
from tracer import (Boundary, Span, Tracer, TracerError,  # noqa: E402
                    self_time_by_name, self_times)
from workloads import WORKLOADS, config_text  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children_only_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "a.child", 2.0, 3.0, 1),
        Span(3, "b", 5.0, 6.0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == 10.0


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "x", 1.0, 4.0, 0),
        Span(2, "x", 3.0, 5.0, 0),      # overlaps the first child
        Span(3, "y", 9.0, 12.0, 0),     # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time_by_name(spans)["x"] == pytest.approx(5.0)


def test_tracer_nests_spans_and_layer_metrics_add_up():
    ticks = iter([1.0, 2.0, 5.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks), origin=0.0)
    with tracer.span("process", start=0.0):
        with tracer.span("cli.main"):
            with tracer.span("propagator.evolve"):
                pass
            with tracer.span("analysis.scan"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["propagator.evolve"].parent == by_name["cli.main"].id
    metrics = layer_metrics(tracer.spans, {"propagator.points": 801},
                            traced_wall=10.5, untraced_wall=10.0, bytes_written=7)
    assert metrics["propagator.evolve_s"] == 3.0
    assert metrics["analysis.scan_s"] == 3.0
    assert metrics["cli.self_s"] == 2.0
    assert metrics["propagator.points"] == 801
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["trace.interpreter_s"] == pytest.approx(0.5)
    assert {m["name"] for m in load_spec()["per_layer"]} <= set(metrics)


# ---------------------------------------------------------------------------
# wrapping public names
# ---------------------------------------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("bench_fake_layer")

    def work(x, scale=1):
        return [x] * scale

    class Operator:
        def eigensystem(self):
            return "eig"

    mod.work = work
    mod.Operator = Operator
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_wrapped_names_record_spans_and_are_restored(fake_module):
    original = fake_module.work
    tracer = Tracer()
    tracer.install([
        Boundary(fake_module.__name__, "work", lambda a, k: f"work.{k.get('scale', 1)}",
                 lambda t, a, k, r: t.add("items", len(r))),
        Boundary(fake_module.__name__, "Operator.eigensystem", "eig"),
    ])
    assert fake_module.work(3, scale=2) == [3, 3]
    assert fake_module.Operator().eigensystem() == "eig"
    tracer.uninstall()
    assert fake_module.work is original
    assert [s.name for s in tracer.spans] == ["work.2", "eig"]
    assert tracer.counters == {"items": 2}


@pytest.mark.parametrize("attribute", ["gone", "Operator.gone", "Missing.eigensystem"])
def test_tracer_refuses_a_name_that_no_longer_exists(fake_module, attribute):
    tracer = Tracer()
    with pytest.raises(TracerError, match="no longer exists"):
        tracer.install([Boundary(fake_module.__name__, "work", "work"),
                        Boundary(fake_module.__name__, attribute, "gone")])
    # nothing was patched, so nothing reports a silent zero
    assert not hasattr(fake_module.work, "__wrapped__")


def test_every_program_boundary_still_exists():
    tracer = Tracer()
    tracer.install(BOUNDARIES)
    tracer.uninstall()


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def test_seed_lists_expand_ranges_and_repeats():
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert parse_seeds("4*3") == [4, 4, 4]


def test_same_seed_gives_byte_identical_configs():
    for workload in WORKLOADS.values():
        assert config_text(workload, 7).encode() == config_text(workload, 7).encode()
        assert config_text(workload, 7) != config_text(workload, 8)


def test_configs_stay_in_range_and_land_on_the_intended_side_of_auto():
    from twoatom.basis import build_basis
    from twoatom.cli import parse_config_text
    from twoatom.propagator import DENSE_LIMIT

    for seed in range(20):
        sparse = parse_config_text(config_text(WORKLOADS["sparse-excitation"], seed))
        dense = parse_config_text(config_text(WORKLOADS["dense-photon"], seed))
        assert 0.8 * 3.14159 < sparse.x_b < 1.2 * 3.14160
        assert 0.15 <= sparse.coupling_strength <= 0.25
        assert (dense.x_b, dense.coupling_strength) == (sparse.x_b, sparse.coupling_strength)
    assert build_basis(sparse).dimension > DENSE_LIMIT
    assert build_basis(dense).dimension <= DENSE_LIMIT


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _series_csv(values, times=None) -> str:
    times = range(len(values)) if times is None else times
    return "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(times, values))


def _perturbed(csv_text: str, delta: float = 1e-8) -> str:
    lines = csv_text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[1] = repr(float(cells[1]) + delta)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def test_oracle_check_passes_on_match_and_fails_on_1e8_perturbation():
    oracle = _series_csv([0.0, 1e-6, 0.25, 0.5])
    assert checks.check_against_oracle(oracle, oracle) == []
    assert checks.check_against_oracle(_perturbed(oracle), oracle)
    assert checks.check_against_oracle(_series_csv([0.0] * 4, [0, 1, 2, 4]),
                                       _series_csv([0.0] * 4))


def test_reference_check_passes_on_match_and_fails_on_1e8_perturbation(monkeypatch):
    monkeypatch.setattr(reference, "STRIDE", 2)
    series = _series_csv([0.0, 1e-6, 0.25, 0.5, 0.75])
    entry = reference.summarise(series)
    assert entry["values"] == [0.0, 0.25, 0.75]
    assert checks.check_against_reference(series, entry) == []
    assert checks.check_against_reference(_perturbed(series), entry)
    assert checks.check_against_reference(_series_csv([0.0] * 4), entry)


def test_recorded_references_match_the_current_seeding():
    text = config_text(WORKLOADS["sparse-excitation"], 1)
    entry = reference.lookup("sparse-excitation", text)
    assert entry is not None and entry["seed"] == 1
    assert reference.lookup("sparse-excitation", text + "# edited\n") is None


def test_dichotomy_check_needs_nonzero_and_no_plateaus():
    good = {"report": {"classification": "nonzero_almost_everywhere",
                       "interior_plateaus": []}}
    assert checks.check_dichotomy(good) == []
    assert checks.check_dichotomy(
        {"report": {"classification": "identically_zero", "interior_plateaus": []}})
    assert checks.check_dichotomy(
        {"report": {"classification": "nonzero_almost_everywhere",
                    "interior_plateaus": [[3, 7]]}})


def _fermi_outputs(cone=3.0, cutoff=16.0):
    times = [0.25 * i for i in range(20)]
    rows = []
    for rng, pre, post in (("positive_only", 2e-5, 1e-3), ("extended", 1e-18, 1e-3)):
        rows += [f"{t!r},{(pre if t < cone - 10.0 / cutoff else post)!r},{rng}"
                 for t in times]
    summary = {"light_cone_time": cone,
               "manifest": {"tolerances": {"quad_tol": 1e-12},
                            "config": {"cutoff": cutoff}},
               "ranges": {"positive_only": {"achieved_error": 4e-14},
                          "extended": {"achieved_error": 8e-14}}}
    return "t,amplitude_sq,range\n" + "\n".join(rows) + "\n", summary


def test_fermi_check_passes_on_causal_extended_range_and_fails_when_perturbed():
    csv_text, summary = _fermi_outputs()
    assert checks.check_fermi(csv_text, summary) == []
    assert checks.check_fermi(_perturbed(csv_text), summary)
    summary["ranges"]["extended"]["achieved_error"] = 2e-12
    assert checks.check_fermi(csv_text, summary)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_check_fails_on_a_1e8_perturbation(name):
    if name == "fermi-both":
        csv_text, summary = _fermi_outputs()
        oracle = None
    else:
        csv_text = oracle = _series_csv([0.0, 1e-6, 0.25, 0.5])
        summary = {"report": {"classification": "nonzero_almost_everywhere",
                              "interior_plateaus": []}}
    assert checks.check_outputs(name, csv_text, summary, oracle) == []
    assert checks.check_outputs(name, _perturbed(csv_text), summary, oracle)
    if oracle is not None:
        # an error shared by both backends still fails the recorded reference
        recorded = reference.summarise(csv_text)
        assert checks.check_outputs(name, _perturbed(csv_text), summary,
                                    _perturbed(oracle), recorded)
