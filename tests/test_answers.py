"""The reference configs give the physics answers pinned in answers.json.

Answers are compared, not bytes: counts, classifications and the trend
exactly, the front at the same grid point, probabilities to 1e-12
absolute.  Values that differ at rounding level, as across BLAS builds or
thread counts, pass; a moved answer fails until answers.py regenerates the
file.  A dichotomy's near_threshold points are not compared: they explain a
count, and a failure whose count differs shows them, pinned and new.
"""

import json
import math

import pytest

from answers import ANSWERS, CONFIGS, run, subcommands

PINNED = json.loads(ANSWERS.read_text())
# grid points (the front, the cutoffs) and counts: the same number, not a near one
EXACT = {"arrival_time", "uncertainty", "cutoff", "modes_retained",
         "num_zero_candidates", "num_isolated_zero_candidates", "interior_plateaus"}
ABSOLUTE = 1e-12
# the zero-candidate counts, which the near_threshold points explain
COUNTS = ("num_zero_candidates", "num_isolated_zero_candidates")


def _differences(pinned, value, path: str, exact: bool) -> list[str]:
    """Where value departs from the pinned answer, one line each."""
    if isinstance(pinned, dict):
        if not isinstance(value, dict) or sorted(value) != sorted(pinned):
            return [f"{path}: keys {sorted(value)} against {sorted(pinned)}"]
        return [line for key in pinned if key != "near_threshold"
                for line in _differences(pinned[key], value[key], f"{path}.{key}",
                                         exact or key in EXACT)]
    if isinstance(pinned, list):
        if not isinstance(value, list) or len(value) != len(pinned):
            return [f"{path}: {value!r} against {pinned!r}"]
        return [line for i, (p, v) in enumerate(zip(pinned, value))
                for line in _differences(p, v, f"{path}[{i}]", exact)]
    numbers = (int, float)
    if (not exact and isinstance(pinned, numbers) and not isinstance(pinned, bool)
            and isinstance(value, numbers) and not isinstance(value, bool)):
        if math.isclose(value, pinned, rel_tol=0.0, abs_tol=ABSOLUTE):
            return []
    elif value == pinned and type(value) is type(pinned):
        return []
    return [f"{path}: {value!r} against {pinned!r}"]


@pytest.mark.parametrize("name, subcommand",
                         [(name, sub) for name in CONFIGS for sub in subcommands(name)])
def test_reference_config_gives_the_pinned_answers(tmp_path, name, subcommand):
    pinned, answers = PINNED[name][subcommand], run(name, subcommand, tmp_path)
    lines = _differences(pinned, answers, f"{name}.{subcommand}", exact=False)
    if any(f".{count}:" in line for line in lines for count in COUNTS):
        lines += [f"pinned near epsilon_zero: {pinned['near_threshold']}",
                  f"now near epsilon_zero: {answers['near_threshold']}"]
    assert lines == [], "\n".join(lines)


def test_every_reference_run_is_pinned():
    assert {name: sorted(PINNED[name]) for name in PINNED} == \
        {name: sorted(subcommands(name)) for name in CONFIGS}


def test_the_comparison_catches_a_moved_answer():
    pinned = PINNED["box"]["weak-causality"]
    assert _differences(pinned, dict(pinned), "w", exact=False) == []
    nudged = dict(pinned, max_abs_delta=pinned["max_abs_delta"] + 0.5 * ABSOLUTE)
    assert _differences(pinned, nudged, "w", exact=False) == []
    for key, step in (("max_abs_delta", 2 * ABSOLUTE), ("arrival_time", 1e-15)):
        moved = dict(pinned, **{key: pinned[key] + step})
        assert _differences(pinned, moved, "w", exact=False) == \
            [f"w.{key}: {moved[key]!r} against {pinned[key]!r}"]
    assert _differences(pinned, dict(pinned, detected=False), "w", exact=False) != []


def test_a_flipped_count_is_shown_with_the_points_near_the_threshold(monkeypatch):
    # the rotating-wave box has P(t_1) = 8.2e-14 just under epsilon_zero = 1e-12
    pinned = PINNED["box_rotating_wave"]["dichotomy"]
    assert pinned["num_zero_candidates"] == 2
    assert [t for t, _ in pinned["near_threshold"]][:2] == [0.0, pytest.approx(math.pi / 400)]
    flipped = dict(pinned, num_zero_candidates=1, near_threshold=[[0.0, 0.0]])
    monkeypatch.setitem(globals(), "run", lambda *args: flipped)
    with pytest.raises(AssertionError, match="now near epsilon_zero: \\[\\[0.0, 0.0\\]\\]"):
        test_reference_config_gives_the_pinned_answers(None, "box_rotating_wave", "dichotomy")
    # the points themselves are not compared
    assert _differences(pinned, flipped | {"num_zero_candidates": 2}, "d", exact=False) == []
