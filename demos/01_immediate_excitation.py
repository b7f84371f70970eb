"""
01_immediate_excitation.py

The core effect on the default two-atom model: atom A starts excited,
atom B starts in its ground state a distance R away, and the field
starts empty.  The excitation probability of atom B is nonzero at the
very first time step, long before a light signal could have crossed the
separation.  The positive-energy structure of the Hamiltonian forces
this: the only alternative the theorem leaves open is a probability
that vanishes identically, which we demonstrate by switching the
coupling off.

The script prints the early-time probabilities, the dichotomy
classification of the full series, and the log-integral witness whose
finiteness certifies that the series is nonzero almost everywhere.
"""

import numpy as np

from twoatom.analysis import dichotomy_scan, probability_series
from twoatom.config import ModelConfig, make_time_grid

GRID_STEPS = 200


def describe(series, report):
    print(f"  classification : {report.classification}")
    candidates = report.zero_candidates
    if len(candidates) <= 8:
        print(f"  zero candidates: {[c.index for c in candidates]}"
              f" (isolated: {[c.isolated for c in candidates]})")
    else:
        print(f"  zero candidates: {len(candidates)} of {len(series.values)}"
              f" grid points (the whole series sits below epsilon)")
    print(f"  plateaus       : {report.interior_plateaus or 'none'}")
    print(f"  log-integral   : {report.log_integral:.4f}"
          f" (floor dominated: {report.floor_dominated})")


def main():
    cfg = ModelConfig()
    r = cfg.light_cone_time
    grid = make_time_grid(r, GRID_STEPS)

    print("coupled run (default configuration)")
    print(f"  separation R = {cfg.separation:.6f}, so light needs t = {r:.6f}")
    series = probability_series(cfg, "excitation_b", grid)
    print("  P_B at the first few grid times:")
    for i in range(1, 6):
        print(f"    t = {series.times[i]:8.5f}   P_B = {series.values[i]:.6e}")
    frac = float(np.mean(series.values[1:] > 1e-12))
    print(f"  fraction of t > 0 grid points with P_B > 1e-12: {frac:.3f}")
    describe(series, dichotomy_scan(series))

    print()
    print("decoupled run (coupling_strength = 0)")
    null_cfg = ModelConfig(coupling_strength=0.0)
    null_series = probability_series(null_cfg, "excitation_b", grid)
    print(f"  max |P_B| over the grid: {np.max(np.abs(null_series.values)):.3e}")
    describe(null_series, dichotomy_scan(null_series))

    print()
    print("the two outcomes above are the only ones the theorem allows:")
    print("either the probability never settles on zero, or it is zero forever.")


if __name__ == "__main__":
    main()
