"""
04_frequency_ranges.py

At second order in the coupling, the probability that atom B is excited
while atom A has dropped to its ground state is the square of a single
frequency integral over the field modes.  The physical model only has
positive frequencies, and the honest integral over [0, infinity) is
already nonzero well before the light-crossing time t = R.

The famous shortcut replaces that integral by one over the whole real
frequency axis.  The extended integral collapses to a sharply retarded
response and the pre-cone signal disappears, which is how the effect
stayed hidden: exact causality in that calculation is an artifact of
the extension, not a property of the model.

The script evaluates both versions with an adaptive oscillatory
quadrature and prints them side by side, then checks the second-order
amplitude against exact propagation at small coupling.  Where an amplitude
is no larger than the quadrature's achieved error, only the bound
"<error^2" is printed for its square.
"""

import math

import numpy as np

from twoatom.analysis import perturbative_vs_exact
from twoatom.config import ModelConfig
from twoatom.perturbation import exchange_amplitude_series

CUTOFF = 100.0
COUPLING = 0.1
GRID_POINTS = 25


def probability(series, index, digits=6):
    """max |A|^2 over series.values[index], or a bound where it is noise.

    Where |A| is no larger than the quadrature's achieved error, the value
    is rounding noise of the quadrature and only "< achieved_error^2" is
    known.
    """
    amplitude = np.max(np.abs(series.values[index]))
    if amplitude <= series.achieved_error:
        return f"<{series.achieved_error ** 2:.1e}"
    return f"{amplitude ** 2:.{digits}e}"


def main():
    cfg = ModelConfig(cutoff=CUTOFF, coupling_strength=COUPLING)
    r = cfg.separation
    times = np.linspace(0.0, 0.95 * r, GRID_POINTS)

    positive = exchange_amplitude_series(cfg, times,
                                         frequency_range="positive_only")
    extended = exchange_amplitude_series(cfg, times,
                                         frequency_range="extended")
    print("second-order excitation-exchange probability |A(t)|^2")
    print(f"cutoff = {CUTOFF}, coupling = {COUPLING}, all times below t = R")
    print(f"quadrature residuals: positive_only {positive.achieved_error:.1e},"
          f" extended {extended.achieved_error:.1e}")
    print()
    print("      t / R    positive frequencies    extended to full axis")
    for i in range(0, GRID_POINTS, 4):
        print(f"    {times[i] / r:7.3f}    {probability(positive, i):>18}"
              f"    {probability(extended, i):>20}")
    print()
    print("max before the cone, positive_only: "
          f"{probability(positive, slice(None), digits=3)}")
    print("max before the cone, extended     : "
          f"{probability(extended, slice(None), digits=3)}")
    print()

    print("cross-check against exact propagation (finite mode box)")
    grid = np.linspace(0.0, 2.0 * math.pi, 25)
    for g in (0.04, 0.02, 0.01):
        small = ModelConfig(num_modes=24, n_max=1, coupling_strength=g)
        cmp = perturbative_vs_exact(small, grid)
        exact = cmp.exact_probability
        mask = exact > 1e-3 * np.max(exact)
        rel = np.max(np.abs(cmp.perturbative_probability[mask] / exact[mask] - 1.0))
        print(f"  g = {g:5.2f}   max relative gap = {rel:.3e}")
    print("the gap falls by about a factor of four per halving of g, the")
    print("signature of a neglected O(g^4) correction.")


if __name__ == "__main__":
    main()
