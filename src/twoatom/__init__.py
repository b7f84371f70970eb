"""Numerical laboratory for two localized atoms coupled to a quantized field.

The package builds truncated product-space models (two multi-level atoms,
a boson field in a periodic box or on a hopping chain), evolves them
exactly, and provides the diagnostics needed to study when excitation
probabilities can vanish: the zero/nonzero dichotomy forced on bounded
observables by a Hamiltonian with spectrum bounded below, ensemble
differences that isolate genuine signalling, and the second-order exchange
amplitude whose causality hinges on the frequency integration range.

Each public name is imported from the submodule that defines it, such as
``twoatom.analysis.probability_series``; ``import twoatom`` loads no
submodule.
"""

__version__ = "0.1.0"
