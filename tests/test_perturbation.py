"""Second-order exchange amplitude: time kernel, quadrature, discrete oracle."""

import ast
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import spherical_jn

from twoatom import perturbation
from twoatom.analysis import perturbative_vs_exact
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.errors import ConvergenceError, DomainError
from twoatom.perturbation import (
    FREQUENCY_RANGES,
    GAUSS_SUPPORT,
    TIME_BLOCK,
    exchange_amplitude_series,
    mode_sum_amplitude,
    oscillatory_kernel,
    second_order_time_kernel,
)

# ---------------------------------------------------------------------------
# the nested phase integral -t^2 exp[0, i b t, i (a+b) t]: one branch seam,
# where the widest of the gaps |a t|, |b t|, |(a+b) t| reaches 1
# ---------------------------------------------------------------------------


def nested_gl_kernel(a, b, t, nodes=160):
    # direct two-dimensional Gauss-Legendre evaluation of
    # -integral_0^t ds2 e^{i b s2} integral_0^{s2} ds1 e^{i a s1}
    x, w = leggauss(nodes)
    s2 = 0.5 * t * (x + 1.0)
    w2 = 0.5 * t * w
    s1 = 0.5 * s2[:, None] * (x + 1.0)[None, :]
    w1 = 0.5 * s2[:, None] * w[None, :]
    inner = np.sum(w1 * np.exp(1j * a * s1), axis=1)
    return -np.sum(w2 * np.exp(1j * b * s2) * inner)


def test_kernel_trivial_time():
    out = second_order_time_kernel([0.3, 2.0], [1.0, -4.0], 0.0)
    assert_array_equal(out, np.zeros(2, dtype=np.complex128))
    for t in (-0.5, np.nan, np.inf, [0.5, np.nan]):
        with pytest.raises(DomainError):
            second_order_time_kernel(0.3, 1.0, t)


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (np.inf, 1.0), (0.3, -np.inf),
                                  ([0.3, np.nan], 1.0)],
                         ids=["a-nan", "a-inf", "b-inf", "a-array-nan"])
def test_kernel_refuses_a_non_finite_mismatch(a, b):
    # a NaN or infinite mismatch would come back as NaN, with warnings
    with pytest.raises(DomainError, match="energy mismatches"):
        second_order_time_kernel(a, b, 0.5)


def test_kernel_broadcasts():
    a = np.array([[0.2], [3.0], [7.0]])
    b = np.array([[1.0, -2.0, 5.0, 9.0]])
    out = second_order_time_kernel(a, b, 1.3)
    assert out.shape == (3, 4)
    one = second_order_time_kernel(3.0, 5.0, 1.3)
    assert_allclose(out[1, 2], one, rtol=1e-15)


def test_kernel_over_a_time_array_matches_scalar_calls():
    # each row of (a, b) crosses the widest-gap = 1 branch seam between two
    # neighbouring times: at t = 1/12, 1/10, 1/2, 1/1.7 and 2
    a = np.array([0.0, 0.05, 0.4, -0.5, 2.0, -12.0])[:, None]
    b = np.array([10.0, -10.0, 1.3, 0.5, -2.0, 4.0])[:, None]
    t = np.array([0.0, 0.0832, 0.0835, 0.0999, 0.1001, 0.4999, 0.5001,
                  0.588, 0.5885, 1.999, 2.001])
    out = second_order_time_kernel(a, b, t)
    assert out.shape == (6, 11)
    stacked = np.stack([second_order_time_kernel(a[:, 0], b[:, 0], ti) for ti in t],
                       axis=1)
    assert_allclose(out, stacked, atol=1e-15, rtol=0)
    assert_array_equal(out[:, 0], np.zeros(6, dtype=np.complex128))
    with pytest.raises(DomainError):
        second_order_time_kernel(a, b, np.array([0.5, -1e-3, 2.0]))


def test_oscillatory_kernel_over_a_time_array_matches_scalar_calls():
    for form in ("full", "rotating_wave"):
        cfg = ModelConfig(cutoff=4.0, coupling_form=form)
        omega = np.linspace(-6.0, 6.0, 37)
        t = np.array([0.0, 0.4, 1.7, 3.3, 6.0])
        out = oscillatory_kernel(cfg, omega, t[:, None])
        stacked = np.stack([oscillatory_kernel(cfg, omega, ti) for ti in t])
        assert_allclose(out, stacked, atol=1e-15, rtol=0)


def test_kernel_against_nested_quadrature():
    rng = np.random.default_rng(7)
    triples = [
        # forced corners: vanishing and near-vanishing early-vertex mismatch,
        # each of the gaps |a t|, |b t| and |(a+b) t| as the widest one on
        # both sides of the widest-gap = 1 seam (at t = 1.25 here), and a
        # far-detuned late vertex
        (0.0, 2.7, 1.9),
        (1e-9, -8.0, 2.0),
        (0.8, -0.3, 1.2499),
        (0.8, -0.3, 1.2501),
        (-0.3, 0.8, 1.2499),
        (-0.3, 0.8, 1.2501),
        (0.3, 0.5, 1.2499),
        (0.3, 0.5, 1.2501),
        (0.01, -20.0, 1.0),
        (2e-4, 30.0, 0.7),
        (0.1, -40.0, 0.8),
    ]
    for _ in range(40):
        triples.append((float(rng.uniform(-25, 25)),
                        float(rng.uniform(-25, 25)),
                        float(rng.uniform(0.1, 6.0))))
    for a, b, t in triples:
        got = second_order_time_kernel(a, b, t)
        oracle = nested_gl_kernel(a, b, t)
        assert_allclose(got, oracle, atol=1e-11, rtol=0), (a, b, t)


def test_kernel_small_mismatch_limit():
    # at a = 0 the nested integral is -t^2 (e^z (z - 1) + 1) / z^2, z = i b t;
    # |b t| sits on both sides of the widest-gap = 1 seam and far beyond it
    for b, t in ((1.7, 0.58), (1.7, 0.6), (0.5, 1.999), (0.5, 2.001),
                 (-9.0, 1.2), (30.0, 0.9)):
        z = 1j * b * t
        closed = (np.exp(z) * (z - 1.0) + 1.0) / z**2
        at_zero = second_order_time_kernel(0.0, b, t)
        assert_allclose(at_zero, -t**2 * closed, atol=1e-13, rtol=0)
        # the kernel moves by O(a t^3) around a = 0, so a step of 1e-12
        # shifts it by a few parts in 1e12 at most
        nearby = second_order_time_kernel(1e-12, b, t)
        assert_allclose(nearby, at_zero, atol=1e-11, rtol=0)


def test_kernel_at_coinciding_points():
    # a = 0, b = 0 and a + b = 0 each make two of the points 0, i b t and
    # i (a+b) t coincide; the remaining gap sits below and above 1.  All
    # cases go through one call, so a division by a vanishing gap taken in
    # either branch would raise under the warnings-as-errors setting.
    def double(z):      # exp[0, 0, z]
        return (np.exp(z) - 1.0 - z) / z**2

    def coincident(z):  # exp[0, z, z]
        return (np.exp(z) * (z - 1.0) + 1.0) / z**2

    t = 1.25
    cases = []
    for gap in (0.7, -0.9, 1.1, -6.0):
        z = 1j * gap
        cases += [(0.0, gap / t, coincident(z)),       # a = 0: x = y
                  (gap / t, 0.0, double(z)),           # b = 0: x = 0
                  (-gap / t, gap / t, double(z))]      # a + b = 0: y = 0
    cases.append((0.0, 0.0, 0.5))                      # all three coincide
    a, b, expected = (np.array(c) for c in zip(*cases))
    got = second_order_time_kernel(a, b, t)
    assert_allclose(got, -t**2 * expected, atol=1e-13, rtol=0)
    at_start = second_order_time_kernel(a, b, 0.0)
    assert_array_equal(at_start, np.zeros(a.size, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Filon moments: the spherical Bessel table against scipy
# ---------------------------------------------------------------------------


def test_spherical_jn_table_matches_scipy():
    # every branch: x = 0, the leading series term below 1e-150, Miller's
    # recurrence up to x = 16 (from 1e-100, where it rescales at every step)
    # and the forward recurrence above, out to x = 60
    x = np.concatenate([[0.0, 1e-300, 1e-151, 1e-150, 1e-100, 1e-30, 1e-8],
                        np.geomspace(1e-100, 1.0, 400), np.linspace(0.0, 60.0, 6001),
                        np.arange(1, 20) * math.pi, [16.0, np.nextafter(16.0, 17.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = perturbation._spherical_jn_table(16, x)
    assert table.shape == (17, x.size)
    n = np.arange(17)[:, None]
    oracle = spherical_jn(n, x)
    assert np.max(np.abs(table - oracle)) <= 5e-15
    # relative accuracy where j_n is small, x < n, and its oracle value is a
    # normal number
    small = (x < n) & (np.abs(oracle) >= np.finfo(float).tiny)
    assert np.max(np.abs(table - oracle)[small] / np.abs(oracle[small])) <= 1e-12
    assert np.array_equal(table[:, 0], np.eye(17)[0])


# ---------------------------------------------------------------------------
# continuum quadrature
# ---------------------------------------------------------------------------


def test_amplitude_trivial_zeros():
    times = np.array([0.0, 1.0, 2.5])
    off = ModelConfig(coupling_strength=0.0)
    series = exchange_amplitude_series(off, times)
    assert_array_equal(series.values, np.zeros(3, dtype=np.complex128))
    assert series.achieved_error == 0.0
    one_sided = ModelConfig(coupling_scale_b=0.0)
    assert_array_equal(exchange_amplitude_series(one_sided, times).values,
                       np.zeros(3, dtype=np.complex128))


def test_amplitude_starts_at_zero():
    cfg = ModelConfig(cutoff=4.0)
    assert abs(exchange_amplitude_series(cfg, np.array([0.0])).values[0]) <= 1e-16
    ms = mode_sum_amplitude(cfg, np.array([0.0]))
    assert ms.values[0] == 0.0


# layouts of the quadrature beside the default one: no resonance window in
# the support (window-free panels), and a window clipped at the support's
# edge (an empty segment after it)
QUAD_LAYOUTS = {"": dict(omega_b=1.3, cutoff=4.0),
                "no_window": dict(omega_a=5.0, omega_b=5.0, cutoff=0.5),
                "clipped_window": dict(omega_b=1.3, cutoff=0.3)}


@pytest.mark.parametrize("layout, frequency_range, form", [
    pytest.param(layout, frequency_range, form,
                 id="-".join(filter(None, (layout, frequency_range, form))))
    for layout in QUAD_LAYOUTS for frequency_range in ("positive_only", "extended")
    for form in ("full", "rotating_wave")
])
def test_amplitude_against_scipy_quad(layout, frequency_range, form):
    cfg = ModelConfig(**QUAD_LAYOUTS[layout], x_b=0.5 * math.pi,
                      coupling_strength=0.3, coupling_form=form)
    prefactor = cfg.coupling_strength**2 / (2.0 * math.pi)
    hi = GAUSS_SUPPORT * cfg.cutoff
    lo = 0.0 if frequency_range == "positive_only" else -hi
    times = np.array([0.7, 2.0, 5.1])
    series = exchange_amplitude_series(cfg, times,
                                       frequency_range=frequency_range)
    assert series.frequency_range == frequency_range
    assert 0.0 < series.achieved_error <= 1e-12
    for i, t in enumerate(times):
        re = quad(lambda om: oscillatory_kernel(cfg, om, t).real,
                  lo, hi, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
        im = quad(lambda om: oscillatory_kernel(cfg, om, t).imag,
                  lo, hi, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
        assert_allclose(series.values[i], prefactor * (re + 1j * im),
                        atol=1e-13, rtol=0)


@pytest.mark.parametrize("points", [TIME_BLOCK + 5, 161])
def test_time_blocking_is_invisible(points):
    # a permuted grid puts each time into another block, at another place
    # and, for the last one, into a block of another size
    cfg = ModelConfig()
    grid = np.linspace(0.0, 2.0 * cfg.light_cone_time, points)
    order = np.random.default_rng(5).permutation(points)
    for frequency_range in FREQUENCY_RANGES:
        base = exchange_amplitude_series(cfg, grid, frequency_range=frequency_range)
        shuffled = exchange_amplitude_series(cfg, grid[order],
                                             frequency_range=frequency_range)
        assert_allclose(shuffled.values, base.values[order], atol=1e-15, rtol=0)
        assert abs(shuffled.achieved_error - base.achieved_error) <= 1e-20


@pytest.mark.parametrize(("frequency_range", "at_one", "error_at_one", "error_at_zero"), [
    ("positive_only", 0.001249139287875962 + 2.933178206238577e-17j,
     3.60990604285408e-14, 3.879037687034774e-14),
    ("extended", -1.272221872585407e-17 + 6.643825334612682e-17j,
     2.5178907949319745e-14, 7.758075714884194e-14),
], ids=FREQUENCY_RANGES)
def test_amplitude_edge_grids(frequency_range, at_one, error_at_one, error_at_zero):
    cfg = ModelConfig()
    empty = exchange_amplitude_series(cfg, np.array([]), frequency_range=frequency_range)
    assert empty.values.shape == (0,)
    assert empty.achieved_error == 0.0
    one = exchange_amplitude_series(cfg, np.array([1.0]), frequency_range=frequency_range)
    assert_allclose(one.values, [at_one], atol=1e-15, rtol=0)
    assert abs(one.achieved_error - error_at_one) <= 1e-20
    zeros = exchange_amplitude_series(cfg, np.array([0.0, 0.0]),
                                      frequency_range=frequency_range)
    assert_array_equal(zeros.values, np.zeros(2, dtype=np.complex128))
    assert abs(zeros.achieved_error - error_at_zero) <= 1e-20


@pytest.mark.parametrize(("frequency_range", "layouts"), [
    ("positive_only", [(26, 1), (32, 1)]),
    ("extended", [(52, 2), (66, 2)]),
], ids=FREQUENCY_RANGES)
def test_refinement_layout_on_the_default_grid(monkeypatch, frequency_range, layouts):
    # (panels, windows) of every pass on the fermi-integral default grid;
    # a change to the kernel that leaves the refinement alone keeps them
    cfg = ModelConfig()
    grid = np.linspace(0.0, 2.0 * cfg.light_cone_time, 161)
    seen = []
    original = perturbation._quadrature_pass

    def counting(cfg, times, elements, *rest):
        kinds = [kind for kind, _ in elements]
        seen.append((kinds.count("panel"), kinds.count("window")))
        return original(cfg, times, elements, *rest)

    monkeypatch.setattr(perturbation, "_quadrature_pass", counting)
    exchange_amplitude_series(cfg, grid, frequency_range=frequency_range)
    assert seen == layouts


def test_frequency_ranges_and_forms_differ():
    cfg = ModelConfig(cutoff=4.0, coupling_strength=0.3)
    times = np.array([1.0, 2.0, 3.0])
    pos = exchange_amplitude_series(cfg, times)
    ext = exchange_amplitude_series(cfg, times, frequency_range="extended")
    assert np.max(np.abs(pos.values - ext.values)) > 1e-6
    rwa = exchange_amplitude_series(
        ModelConfig(cutoff=4.0, coupling_strength=0.3,
                    coupling_form="rotating_wave"), times)
    assert np.max(np.abs(pos.values - rwa.values)) > 1e-6


def test_coupling_scaling():
    times = np.array([0.5, 1.5, 3.0])
    weak = ModelConfig(cutoff=4.0, coupling_strength=0.05)
    strong = ModelConfig(cutoff=4.0, coupling_strength=0.1)
    # the discrete sum is strictly quadratic in g, bit for bit
    assert_array_equal(mode_sum_amplitude(strong, times).values,
                       4.0 * mode_sum_amplitude(weak, times).values)
    # the quadrature re-adapts its panels, so quadratic up to the tolerance
    a1 = exchange_amplitude_series(weak, times).values
    a2 = exchange_amplitude_series(strong, times).values
    assert_allclose(a2, 4.0 * a1, atol=5e-12, rtol=0)


def test_mode_sum_converges_to_integral_under_doubling():
    # refine the discrete mode set at fixed cutoff, box length tied to the
    # mode count so the highest retained frequency stays pinned at the
    # cutoff; the gap to the continuum integral must fall monotonically and
    # end below 1e-6
    times = np.linspace(0.0, 2 * math.pi, 17)

    def family(m):
        return ModelConfig(num_modes=m, cutoff=16.0, coupling_strength=0.01,
                           box_length=math.pi * m / 16.0, x_a=0.0, x_b=math.pi)

    reference = exchange_amplitude_series(family(64), times).values
    gaps = []
    for m in (64, 128, 256, 512):
        summed = mode_sum_amplitude(family(m), times).values
        gaps.append(float(np.max(np.abs(summed - reference))))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-6, gaps


def test_perturbative_matches_exact_as_coupling_vanishes():
    # second order is exact up to O(g^4) relative corrections, so halving g
    # should quarter the relative discrepancy against the propagated model
    grid = np.linspace(0.0, 2 * math.pi, 25)
    ceilings = {0.04: 6.4e-2, 0.02: 1.7e-2, 0.01: 4.1e-3}
    rels = []
    for g, ceiling in ceilings.items():
        cfg = ModelConfig(num_modes=24, n_max=1, coupling_strength=g)
        cmp = perturbative_vs_exact(cfg, grid)
        assert cmp.coupling_note is None
        exact = cmp.exact_probability
        pert = cmp.perturbative_probability
        mask = exact > 1e-3 * np.max(exact)
        rel = float(np.max(np.abs(pert[mask] / exact[mask] - 1.0)))
        assert rel <= ceiling, (g, rel)
        rels.append(rel)
    assert rels[1] / rels[0] <= 0.35
    assert rels[2] / rels[1] <= 0.35


def test_perturbative_vs_exact_decoupled():
    # with the coupling off both routes report an identically zero exchange
    cfg = ModelConfig(num_modes=6, n_max=1, coupling_strength=0.0)
    cmp = perturbative_vs_exact(cfg, np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(cmp.exact_probability)) <= 1e-28
    assert np.max(np.abs(cmp.perturbative_probability)) == 0.0
    assert cmp.max_abs_difference <= 1e-28
    assert cmp.coupling_note is None


def test_strong_coupling_is_flagged():
    cfg = ModelConfig(num_modes=8, n_max=2, coupling_strength=0.5)
    cmp = perturbative_vs_exact(cfg, np.linspace(0.0, 4.0, 9))
    assert cmp.coupling_note is not None
    assert "not reliable" in cmp.coupling_note


def test_amplitude_validation():
    cfg = ModelConfig(cutoff=4.0)
    with pytest.raises(DomainError):
        exchange_amplitude_series(cfg, np.array([1.0]), frequency_range="both")
    with pytest.raises(DomainError):
        exchange_amplitude_series(cfg, np.array([[1.0]]))
    # the mode sum broadcasts its times against the modes: without the check
    # a 2-D grid would meet numpy's own ValueError
    with pytest.raises(DomainError, match="1-D"):
        mode_sum_amplitude(cfg, np.array([[0.5, 1.0]]))
    with pytest.raises(DomainError):
        exchange_amplitude_series(cfg, np.array([-1.0, 1.0]))
    with pytest.raises(DomainError):
        mode_sum_amplitude(cfg, np.array([-1.0]))
    # a time that is not finite, or whose square overflows in the kernel, is
    # a domain error, not a stalled quadrature
    for times in ([np.nan], [1.0, np.inf], [1e300]):
        with pytest.raises(DomainError):
            exchange_amplitude_series(cfg, np.array(times))
        with pytest.raises(DomainError):
            mode_sum_amplitude(cfg, np.array(times))
    with pytest.raises(DomainError):
        exchange_amplitude_series(LatticeConfig(), np.array([1.0]))
    with pytest.raises(DomainError):
        perturbative_vs_exact(LatticeConfig(), np.array([1.0]))
    with pytest.raises(DomainError):
        exchange_amplitude_series(ModelConfig(levels_a=3), np.array([1.0]))


@pytest.mark.parametrize("times", [[1 + 1j], np.array([1.0], dtype=complex)],
                         ids=["complex", "complex-typed-real"])
@pytest.mark.parametrize("amplitude", [exchange_amplitude_series, mode_sum_amplitude,
                                       perturbative_vs_exact])
def test_amplitudes_refuse_a_complex_grid(amplitude, times):
    # a cast to float would drop the imaginary part with only a ComplexWarning
    with pytest.raises(DomainError, match="complex"):
        amplitude(ModelConfig(cutoff=4.0), times)


def test_unreachable_tolerance_raises():
    cfg = ModelConfig(cutoff=4.0)
    with pytest.raises(ConvergenceError) as info:
        exchange_amplitude_series(cfg, np.array([1.0]), tol=1e-30)
    assert info.value.residual is not None
    assert 0.0 < info.value.residual < 1e-12


def test_perturbation_imports_only_config_and_errors():
    # the amplitude sits below propagation and analysis: numerics and the
    # package's config and errors only, every import at module level
    allowed = {"__future__", "math", "dataclasses", "functools", "numpy",
               "numpy.polynomial", ".config", ".errors"}
    with open(perturbation.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules = {"." * node.level + (node.module or "")}
        else:
            continue
        assert node in tree.body, f"import inside a function at line {node.lineno}"
        assert modules <= allowed, (node.lineno, modules)
