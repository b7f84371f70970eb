"""Second-order exchange amplitude and its frequency-range dependence.

The process is |excited_A, ground_B, vacuum> -> |ground_A, excited_B, vacuum>
through one-photon intermediate states, at second order in the coupling.
Two orderings contribute: A emits and B absorbs (present for both coupling
forms), and the counter-rotating ordering where B is lifted while a photon
is created and A drops while it is absorbed (full coupling only).

In the continuum-mode limit the amplitude is a frequency integral whose
kernel carries e^{i omega R} factors, and the historical subtlety lives in
the integration domain: over positive frequencies only, the amplitude has a
tail at t < R; extending the integral over the whole real axis is the
classic approximation that produces a causal result, with the remaining
leakage set by the smooth coupling cutoff (the Gaussian profile smears the
front over a time of order 1/cutoff).  `frequency_range` selects between
the two domains.  In practice the integrals are truncated where the
Gaussian weight exp(-2 (omega/cutoff)^2) falls below 2.7e-18, at
|omega| = 4.5 * cutoff.

Quadrature: resonance neighbourhoods (where an intermediate state is nearly
on shell) are integrated with plain Gauss-Legendre panels of the entire
kernel; outside them the kernel is split into four phase families
e^{i omega theta}, theta in {R, -R, R - t, -(R + t)}, with smooth rational
amplitudes, and each panel uses a Legendre projection with exact oscillatory
moments (Filon-type), so accuracy is independent of how many oscillations a
panel spans.  Panels halve adaptively until the degree-8 vs degree-16 tail
estimate meets the requested absolute error.  The Legendre coefficients
are real, so a family's moments 2 i^n j_n(theta h) enter as two real
contractions of one table of j_n(|theta| h), over the even and the odd
orders, and no complex moment array is formed.  A pass evaluates every
time at once, in blocks of TIME_BLOCK times: the theta = +-R sums do not
depend on t and are formed once per pass, and each block needs one Bessel
table per t-dependent family and one kernel call per window.  Each panel
and window keeps its per-time contribution and estimate, so a refinement
pass evaluates only the halves it has just created.

The discrete counterpart `mode_sum_amplitude` evaluates the same
second-order formula over a box config's own mode table.  It is exact for
that config (no quadrature), which makes it the oracle for the continuum
routine and the like-for-like perturbative partner of the exact propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .config import LatticeConfig, ModelConfig, checked_times, mode_table
from .errors import ConvergenceError, DomainError

FREQUENCY_RANGES = ("positive_only", "extended")

DEFAULT_QUAD_TOL = 1e-12
GAUSS_SUPPORT = 4.5          # domain end in units of the cutoff
PROJECTION_DEGREE = 16       # Legendre degree kept per panel
ERROR_DEGREE = 8             # tail 9..16 serves as the error estimate
PANEL_NODES = 32
WINDOW_NODES = 48
WINDOW_CHECK_NODES = 32
PANEL_GROWTH = 1.6
MAX_REFINEMENTS = 8
# times per evaluation block: bounds each t-dependent family's real
# (degree+1, times, panels) Bessel table and the (times, nodes) window
# kernels, and so the peak memory.  Each block runs Miller's recurrence once
# per family, so a larger block pays less interpreter time: on the bench's
# fermi-both config (161 times, 2 cores) 64 takes the quadrature from 98 to
# 59 ms against 16, for 0.7 MB more peak RSS
TIME_BLOCK = 64


@dataclass(frozen=True)
class AmplitudeSeries:
    """Complex second-order amplitude sampled on a time grid."""

    times: np.ndarray
    values: np.ndarray
    frequency_range: str
    achieved_error: float


# ---------------------------------------------------------------------------
# the nested phase integral as a divided difference of exp
# ---------------------------------------------------------------------------
#
# With x = i b t and y = i (a+b) t, the nested second-order integral
#
#   J(a, b, t) = integral_0^t ds2 e^{i b s2} integral_0^{s2} ds1 e^{i a s1}
#
# is t^2 exp[0, x, y], the second divided difference of exp at three points
# on the imaginary axis (Hermite-Genocchi), and the amplitude needs
# I_gen = -J.  The gaps between the points are |x| = |b t|,
# |y| = |(a+b) t| and |y - x| = |a t|, and the one branch seam is where the
# widest of them reaches 1:
#
# - widest gap >= 1: the two first-order differences that share the third
#   point are subtracted and divided by that gap.  Each is
#   exp[u, v] = e^u phi1(v - u), bounded by 1 on the imaginary axis, so the
#   result carries an absolute error of a few ulps.
# - all gaps < 1: exp[0, x, y] = sum_k h_k(x, y) / (k+2)!, with
#   h_k = y h_{k-1} + x^k and |h_k| <= k+1, summed for 20 terms; the first
#   omitted one is below 2e-20.


def _phi1(z):
    """(e^z - 1)/z, with its limit 1 at z = 0."""
    zero = z == 0
    z = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(z) / z)


def _clustered_difference(x, y):
    """exp[0, x, y] by its power series, for |x|, |y|, |y - x| < 1."""
    acc = np.full(x.shape, 0.5, dtype=np.complex128)
    h = np.ones_like(x)
    xk = np.ones_like(x)
    for k in range(1, 20):
        xk = xk * x
        h = y * h + xk
        acc += h / math.factorial(k + 2)
    return acc


def second_order_time_kernel(a, b, t):
    """I_gen(a, b, t): the doubly nested phase integral of second order.

    a is the energy mismatch entering at the earlier vertex, b the one at
    the later vertex.  Vectorized over a, b and t, which broadcast against
    each other; every a and b must be finite, every t finite and >= 0, and
    t = 0 gives exactly 0.
    """
    a, b, t = (np.asarray(x, dtype=float) for x in (a, b, t))
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise DomainError("second-order kernel needs finite t >= 0")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("second-order kernel needs finite energy mismatches a and b")
    a, b, t = np.broadcast_arrays(a, b, t)
    shape = a.shape
    a, b, t = a.ravel(), b.ravel(), t.ravel()
    gaps = np.stack([a * t, b * t, (a + b) * t])     # (y - x, x, y) / i
    widest = np.argmax(np.abs(gaps), axis=0)
    wide = np.abs(gaps).max(axis=0) >= 1.0
    diff = np.empty(t.size, dtype=np.complex128)
    if wide.any():
        ga, gb, gs = gaps[:, wide]
        d_0x = _phi1(1j * gb)                           # exp[0, x]
        d_0y = _phi1(1j * gs)                           # exp[0, y]
        d_xy = np.exp(1j * gb) * _phi1(1j * ga)         # exp[x, y]
        pair = widest[wide]
        shared = np.choose(pair, [d_0y - d_0x, d_xy - d_0y, d_xy - d_0x])
        diff[wide] = shared / (1j * np.choose(pair, [ga, gb, gs]))
    if not wide.all():
        diff[~wide] = _clustered_difference(1j * gaps[1, ~wide], 1j * gaps[2, ~wide])
    return (-(t * t) * diff).reshape(shape)


# ---------------------------------------------------------------------------
# kernel of the frequency integral
# ---------------------------------------------------------------------------


def _two_level_box(config) -> ModelConfig:
    if isinstance(config, LatticeConfig):
        raise DomainError("the frequency-integral amplitude is defined for the box field")
    if config.levels_a != 2 or config.levels_b != 2:
        raise DomainError("second-order exchange amplitude assumes two-level atoms")
    return config


def _amplitude_times(cfg: ModelConfig, times) -> np.ndarray:
    """times through config.checked_times, and >= 0.  The limit keeps t^2 and the
    kernel's gaps a t finite, as |a| <= GAUSS_SUPPORT * cutoff + max(omega_a, omega_b)."""
    widest = max(GAUSS_SUPPORT * cfg.cutoff + max(cfg.omega_a, cfg.omega_b), 1.0)
    times = checked_times(times, min(1e154, np.finfo(float).max / widest))
    if np.any(times < 0):
        raise DomainError("amplitude times must be non-negative")
    return times


def oscillatory_kernel(config: ModelConfig, omega, t):
    """Integrand of the exchange amplitude (prefactor g^2 s_A s_B / 2pi off).

    omega * f^2(omega) * 2 cos(omega R) * [emission-first kernel +
    counter-rotating kernel (full coupling only)], an entire function of
    omega that the quadrature integrates over the selected range.  omega
    and t broadcast against each other.
    """
    cfg = _two_level_box(config)
    om = np.asarray(omega, dtype=float)
    wa, wb = cfg.omega_a, cfg.omega_b
    kern = second_order_time_kernel(om - wa, wb - om, t)
    if cfg.coupling_form == "full":
        kern = kern + second_order_time_kernel(om + wb, -(om + wa), t)
    weight = om * np.exp(-2.0 * (om / cfg.cutoff) ** 2)
    return weight * 2.0 * np.cos(om * cfg.separation) * kern


# ---------------------------------------------------------------------------
# Filon-type panels
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _gauss(nodes: int):
    return npleg.leggauss(nodes)


@lru_cache(maxsize=4)
def _projection(nodes: int, degree: int):
    """(nodes, B) with B[n, q] = (2n+1)/2 * w_q * P_n(x_q)."""
    x, w = _gauss(nodes)
    vander = npleg.legvander(x, degree)          # (nodes, degree+1)
    scale = (2.0 * np.arange(degree + 1) + 1.0) / 2.0
    return x, (vander * w[:, None]).T * scale[:, None]


def _march_edges(lo, hi, start_width, cap):
    """Panel edges from lo to hi with geometrically growing widths."""
    edges = [lo]
    width = start_width
    x = lo
    while x + 1.5 * width < hi:
        x += width
        edges.append(x)
        width = min(width * PANEL_GROWTH, cap)
    edges.append(hi)
    return edges


def _segment_panels(lo, hi, left_anchored, right_anchored, w0, cap):
    length = hi - lo
    if length <= 1e-12 * max(1.0, abs(lo), abs(hi)):
        return []
    if left_anchored and right_anchored:
        mid = 0.5 * (lo + hi)
        left = _march_edges(lo, mid, w0, cap)
        right = [hi + lo - e for e in _march_edges(lo, mid, w0, cap)][::-1]
        edges = left[:-1] + [mid] + right[1:]
    elif left_anchored:
        edges = _march_edges(lo, hi, w0, cap)
    elif right_anchored:
        edges = [hi + lo - e for e in _march_edges(lo, hi, w0, cap)][::-1]
    else:
        n = max(1, int(math.ceil(length / cap)))
        edges = list(np.linspace(lo, hi, n + 1))
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _build_layout(cfg: ModelConfig, frequency_range: str):
    lam = cfg.cutoff
    hi = GAUSS_SUPPORT * lam
    lo = 0.0 if frequency_range == "positive_only" else -hi
    w = 0.5 * min(cfg.omega_a, cfg.omega_b)
    centers = [cfg.omega_a, cfg.omega_b]
    if cfg.coupling_form == "full":
        centers += [-cfg.omega_a, -cfg.omega_b]
    raw = sorted((c - w, c + w) for c in centers)
    windows = []
    for a, b in raw:
        a, b = max(a, lo), min(b, hi)
        if b - a <= 0:
            continue
        if windows and a <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], b))
        else:
            windows.append((a, b))

    panels = []
    cap = lam / 4.0
    w0 = w / 4.0
    cursor = lo
    prev_window = False
    for a, b in windows:
        panels += _segment_panels(cursor, a, prev_window, True, w0, cap)
        cursor = b
        prev_window = True
    panels += _segment_panels(cursor, hi, prev_window, False, w0, cap)
    return [("panel", p) for p in panels] + [("window", w) for w in windows]


def _panel_coefficients(panels, cfg: ModelConfig):
    """Legendre coefficients of the four rational amplitudes per panel."""
    x, b = _projection(PANEL_NODES, PROJECTION_DEGREE)
    mids = np.array([0.5 * (p[0] + p[1]) for p in panels])
    halfs = np.array([0.5 * (p[1] - p[0]) for p in panels])
    om = mids[:, None] + halfs[:, None] * x[None, :]
    base = om * np.exp(-2.0 * (om / cfg.cutoff) ** 2)
    u1 = base / (om - cfg.omega_a)
    u2 = u1 / (om - cfg.omega_b)
    if cfg.coupling_form == "full":
        u3 = base / (om + cfg.omega_b)
        u4 = base / ((om + cfg.omega_a) * (om + cfg.omega_b))
    else:
        u3 = np.zeros_like(u1)
        u4 = np.zeros_like(u1)
    to_coef = lambda u: (u @ b.T).T                 # (degree+1, P)
    return mids, halfs, to_coef(u1), to_coef(u2), to_coef(u3), to_coef(u4)


def _miller_recurrence(ratio: np.ndarray, offset: float, start: int, keep: int) -> np.ndarray:
    """Rows y_n, n < keep <= start + 1, of Miller's backward recurrence, a column per ratio.

    y_{n-1} = (n + offset) ratio y_n - y_{n+1} runs down from y_{start+1} = 0
    and y_start = 1 (Gautschi, SIAM Rev. 9, 24, 1967).  With ratio = 2/w and
    offset 0 it is the recurrence of J_n(w), with ratio = 2/x and offset 1/2
    that of j_n(x); well below start each column is that minimal solution up
    to one factor, which the caller fixes by a normalisation.  Only the rows
    below keep are held, beside two rolling rows.  A step from order n grows
    the recurrence by at most (n + offset) max|ratio| + 1, so before that
    growth since the last rescale could pass 1e100, every column above 1e100
    is rescaled: a huge ratio cannot overflow.
    """
    steepest = float(np.max(np.abs(ratio), initial=0.0))
    rows = np.empty((keep, ratio.size))
    above, here, below = np.zeros(ratio.size), np.ones(ratio.size), np.empty(ratio.size)
    rows[start:] = here  # y_start, where keep = start + 1
    growth = 1.0  # the entries are at most 1e100 * growth
    for n in range(start, 0, -1):
        bound = (n + offset) * steepest + 1
        if growth * bound > 1e100:
            scale = np.maximum(np.abs(here), np.abs(above))
            big = scale > 1e100
            for row in (above, here, rows[n:]):
                row[..., big] /= scale[big]
            growth = 1.0
        growth *= bound
        np.multiply(n + offset, ratio, out=below)
        below *= here
        below -= above
        if n <= keep:
            rows[n - 1] = below
        above, here, below = here, below, above
    return rows


def _spherical_jn_table(order: int, x) -> np.ndarray:
    """j_n(x) for n = 0..order at every x >= 0, shape (order+1,) + x.shape.

    Above x = order the forward recurrence j_{n+1} = (2n+1)/x j_n - j_{n-1}
    from j_0 = sin x/x and j_1 = (j_0 - cos x)/x is stable, since n < x.
    Elsewhere Miller's backward recurrence (_miller_recurrence) runs down
    from j_{order+30} = 1 and is normalised by whichever of j_0 and j_1 is
    the larger, in closed form.  Below x = 1e-150 the leading series term
    x^n/(2n+1)!! is j_n to double precision, and j_n(0) = delta_n0 exactly.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    table = np.empty((order + 1, flat.size))

    tiny = flat < 1e-150
    table[0, tiny] = 1.0
    table[1:, tiny] = np.cumprod(flat[tiny] / (2.0 * np.arange(1, order + 1) + 1.0)[:, None],
                                 axis=0)

    forward = flat > order
    xf = flat[forward]
    rows = np.empty((order + 1, xf.size))
    rows[0] = np.sin(xf) / xf
    rows[1] = (rows[0] - np.cos(xf)) / xf
    for n in range(1, order):
        rows[n + 1] = (2 * n + 1) / xf * rows[n] - rows[n - 1]
    table[:, forward] = rows

    miller = ~(tiny | forward)
    xm = flat[miller]
    rows = _miller_recurrence(2.0 / xm, 0.5, order + 30, order + 1)
    # the closed form j_1 cancels at small x, where j_0 is the larger
    j0 = np.sin(xm) / xm
    first = np.abs(rows[0]) >= np.abs(rows[1])
    closed = np.where(first, j0, (j0 - np.cos(xm)) / xm)
    rows *= closed / np.where(first, rows[0], rows[1])
    table[:, miller] = rows
    return table.reshape((order + 1,) + x.shape)


def _filon_sums(theta, halfs, coef):
    """Each panel's Legendre sums against the exact moments, in full and their tails.

    The moment of P_n against e^{i theta h x} on [-1, 1] is 2 i^n j_n(theta h)
    and the coefficients c_n are real, so with s the sign of theta the sum
    over the orders is 2 (E + i s O): E = sum_even (-1)^{n/2} c_n j_n and
    O = sum_odd (-1)^{(n-1)/2} c_n j_n over one real table of
    j_n(|theta| h).  coef has shape (k, degree+1, P) and already carries
    the signs (-1)^floor(n/2).  Returns (full, tail), each of shape
    (k,) + theta.shape + (P,): the sum over every order and over the orders
    above ERROR_DEGREE.
    """
    theta = np.asarray(theta, dtype=float)
    jn = _spherical_jn_table(PROJECTION_DEGREE, np.abs(np.multiply.outer(theta, halfs)))
    sums = []
    for parity in (0, 1):
        c, j = coef[:, parity::2], jn[parity::2]
        cut = (ERROR_DEGREE + 2 - parity) // 2    # first of these orders above ERROR_DEGREE
        tail = np.einsum("knp,n...p->k...p", c[:, cut:], j[cut:])
        sums += [np.einsum("knp,n...p->k...p", c[:, :cut], j[:cut]) + tail, tail]
    even, even_tail, odd, odd_tail = sums
    i_sign = 1j * np.sign(theta)[..., None]
    return 2.0 * (even + i_sign * odd), 2.0 * (even_tail + i_sign * odd_tail)


def _time_blocks(count):
    return (slice(i, i + TIME_BLOCK) for i in range(0, count, TIME_BLOCK))


def _panel_terms(cfg, times, panels):
    """Per-time contribution and error estimate of each panel, and its peak.

    Shapes (P, T), (P, T) and (P,).  The peak is the largest tail of any
    single phase family at any single time, not the largest of their sum.
    """
    rr, wa, wb = cfg.separation, cfg.omega_a, cfg.omega_b
    mids, halfs, c1, c2, c3, c4 = _panel_coefficients(panels, cfg)
    # i^n = (-1)^floor(n/2) on even n, and i times it on odd n
    signs = np.where(np.arange(PROJECTION_DEGREE + 1) % 4 < 2, 1.0, -1.0)[:, None]
    # theta = +-R carry i phid(t) (c1 + c3) - (c2 + c4), with sums that do not
    # depend on t; theta = R - t, -(R + t) carry e^{i wb t} c2 + e^{-i wa t} c4
    fixed_coef = np.stack([c1 + c3, c2 + c4]) * signs
    moving_coef = np.stack([c2, c4]) * signs
    fixed = [(theta, *_filon_sums(theta, halfs, fixed_coef)) for theta in (rr, -rr)]

    contrib = np.empty((times.size, len(panels)), dtype=np.complex128)
    estimate = np.empty((times.size, len(panels)))
    peak = np.zeros(len(panels))
    for block in _time_blocks(times.size):
        t = times[block]
        col = t[:, None]
        iphid = 1j * col * _phi1(1j * (wb - wa) * col)
        rot = (np.exp(1j * wb * col), np.exp(-1j * wa * col))
        families = [(theta, full, tail, (iphid, -1.0)) for theta, full, tail in fixed]
        families += [(theta, None, None, rot) for theta in (rr - t, -(rr + t))]
        total = 0.0
        est = 0.0
        for theta, full, tail, (w0, w1) in families:
            if full is None:  # one family's (degree+1, B, P) table at a time bounds the memory
                full, tail = _filon_sums(theta, halfs, moving_coef)
            carrier = halfs * np.exp(1j * np.multiply.outer(theta, mids))
            total = total + carrier * (w0 * full[0] + w1 * full[1])
            family = np.abs(carrier) * np.abs(w0 * tail[0] + w1 * tail[1])
            est = est + family
            np.maximum(peak, family.max(axis=0), out=peak)
        contrib[block] = total
        estimate[block] = est
    return contrib.T, estimate.T, peak


def _window_terms(cfg, times, windows):
    """Per-time value and error estimate of each window, and its peak.

    The value is the 48-node Gauss-Legendre integral of the whole kernel,
    the estimate its distance to the 32-node one.  Shapes (W, T), (W, T)
    and (W,).
    """
    x48, w48 = _gauss(WINDOW_NODES)
    x32, w32 = _gauss(WINDOW_CHECK_NODES)
    nodes = np.concatenate([x48, x32])
    value = np.empty((len(windows), times.size), dtype=np.complex128)
    diff = np.empty((len(windows), times.size))
    for iw, (a, b) in enumerate(windows):
        m, h = 0.5 * (a + b), 0.5 * (b - a)
        for block in _time_blocks(times.size):
            kern = oscillatory_kernel(cfg, m + h * nodes, times[block, None])
            v48 = h * np.sum(w48 * kern[:, :WINDOW_NODES], axis=1)
            v32 = h * np.sum(w32 * kern[:, WINDOW_NODES:], axis=1)
            value[iw, block] = v48
            diff[iw, block] = np.abs(v48 - v32)
    return value, diff, diff.max(axis=1, initial=0.0)


def _quadrature_pass(cfg, times, elements, tol, terms):
    """One evaluation sweep; returns values, per-t estimates and a split mask.

    `terms` maps each (kind, interval) element to its per-time contribution,
    per-time estimate and peak.  Only the elements it lacks are evaluated,
    so a refinement pass costs just the halves it created.
    """
    prefactor = (cfg.coupling_strength ** 2 * cfg.coupling_scale_a
                 * cfg.coupling_scale_b / (2.0 * math.pi))
    for kind, evaluate in (("panel", _panel_terms), ("window", _window_terms)):
        fresh = [e for e in elements if e[0] == kind and e not in terms]
        if fresh:
            terms.update(zip(fresh, zip(*evaluate(cfg, times, [e[1] for e in fresh]))))
    rows = [terms[e] for e in elements]

    values = prefactor * np.sum([r[0] for r in rows], axis=0)
    # A(0) = 0 exactly; the four phase families cancel there only to rounding
    values[times == 0] = 0.0
    estimates = prefactor * np.sum([r[1] for r in rows], axis=0)
    budget = 0.5 * tol / max(1, len(rows))
    split = prefactor * np.array([r[2] for r in rows]) > budget
    return values, estimates, split


def _halve(elements, split, terms):
    """The elements with each flagged interval replaced by its two halves."""
    out = []
    for element, flagged in zip(elements, split):
        kind, (lo, hi) = element
        if flagged:
            del terms[element]
            mid = 0.5 * (lo + hi)
            out += [(kind, (lo, mid)), (kind, (mid, hi))]
        else:
            out.append(element)
    return out


def exchange_amplitude_series(config: ModelConfig, times, *,
                              frequency_range: str = "positive_only",
                              tol: float = DEFAULT_QUAD_TOL) -> AmplitudeSeries:
    """Second-order exchange amplitude A(t) on a grid of times.

    Adaptive Filon-type quadrature with requested absolute error `tol`;
    raises ConvergenceError (carrying the achieved error) if refinement
    stalls above it.  The reported achieved_error is the worst per-time
    estimate actually reached.  The grid is checked (_amplitude_times)
    before any work.
    """
    cfg = _two_level_box(config)
    if frequency_range not in FREQUENCY_RANGES:
        raise DomainError(
            f"frequency_range must be one of {FREQUENCY_RANGES}, got {frequency_range!r}")
    times = _amplitude_times(cfg, times)
    if (not times.size or cfg.coupling_strength == 0
            or cfg.coupling_scale_a == 0 or cfg.coupling_scale_b == 0):
        return AmplitudeSeries(times, np.zeros(times.size, dtype=np.complex128),
                               frequency_range, 0.0)

    elements = _build_layout(cfg, frequency_range)
    terms = {}
    for _ in range(MAX_REFINEMENTS + 1):
        values, estimates, split = _quadrature_pass(cfg, times, elements, tol, terms)
        achieved = float(estimates.max())
        if achieved <= tol:
            return AmplitudeSeries(times, values, frequency_range, achieved)
        elements = _halve(elements, split, terms)
    raise ConvergenceError(
        f"oscillatory quadrature stalled at estimated error {achieved:.3e} "
        f"(requested {tol:.3e})", residual=achieved)


# ---------------------------------------------------------------------------
# discrete oracle
# ---------------------------------------------------------------------------


def mode_sum_amplitude(config: ModelConfig, times) -> AmplitudeSeries:
    """Second-order exchange amplitude summed over the config's own modes.

    Exact (up to roundoff) for the discrete model, so it doubles as the
    convergence oracle for the continuum quadrature: refining the mode set
    at fixed spectral span drives this sum toward the positive_only
    integral.  The grid passes _amplitude_times, as in exchange_amplitude_series.
    """
    cfg = _two_level_box(config)
    times = _amplitude_times(cfg, times)
    k, omega, g = mode_table(cfg).as_arrays()
    weight = g ** 2 * cfg.coupling_scale_a * cfg.coupling_scale_b
    phase = np.exp(1j * k * (cfg.x_b - cfg.x_a))
    col = times[:, None]
    values = np.sum(weight * phase
                    * second_order_time_kernel(omega - cfg.omega_a,
                                               cfg.omega_b - omega, col), axis=1)
    if cfg.coupling_form == "full":
        values += np.sum(weight * np.conj(phase)
                         * second_order_time_kernel(omega + cfg.omega_b,
                                                    -(omega + cfg.omega_a), col), axis=1)
    return AmplitudeSeries(times, values, "mode_sum", 0.0)
