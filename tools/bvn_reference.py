"""Reference values of the bivariate normal survival in jointeec.gauss, with mpmath.

Along the correlation path rho = sin(theta) the survival is
    P{Z1 >= h, Z2 >= k} = P0 + 1 / (2 pi) int_theta0^asin(rho) exp(g(sin theta)) dtheta,
    g(s) = -(h^2 + k^2 - 2 h k s) / (2 (1 - s^2)),
starting at theta0 = 0 with P0 = Phi(-h) Phi(-k), or, for rho < 0 and
h + k >= sqrt(1 - rho^2), at theta0 = -pi/2 with P0 = 0 (the path starts
of gauss._from_minus_one).  This theta form is integrated here in
40-digit arithmetic by tanh-sinh quadrature on PANELS panels that halve in
width toward the peak of the integrand, the point of the path nearest
sin(theta) = hk / max(h^2, k^2).  The integrand is divided by its value at
the peak first: mpmath's quad stops on an absolute tolerance, so on an
integrand of size 1e-180 it accepts its first, coarse estimate, which is
off by 1e-12 to 1e-11 on the pinned cases.  Each value is checked against
the x form int_h^inf phi(x) Phi((rho x - k) / sqrt(1 - rho^2)) dx,
scaled the same way, and must agree with it to 30 digits.

mpmath is needed here only; the package never imports it.  Run from the
repository root:

    python3 tools/bvn_reference.py           # print the reference literals
    python3 tools/bvn_reference.py --check   # also report the kernel's error

The printed literals are the pinned values of tests/test_gauss.py.
`--check` evaluates gauss._bvn_survival_batch on the grid h, k in [-2, 20]
step 0.5 at |rho| in MODERATE and in NEAR_ONE (0.95 < |rho| < 1) and
prints the largest relative gap to the same sum with its path integral on
1024 nodes instead of the kernel's count (the rule of gauss._path_integral,
or past |rho| = 0.95 of gauss._near_one_integral), with the kernel's error
against the 40-digit reference at the point of largest gap: per region of
the moderate grid, per correlation of the other.  Points whose value is
below 1e-300 are left out.  It also checks against 40 digits the points
where the path ends in a layer about sqrt(1 - rho^2) wide, on the lines
k = -h + R sqrt(1 - rho^2) (rho < 0) and k = h + R sqrt(1 - rho^2)
(rho > 0) for h in LINE_H, R in LINE_R and each NEAR_ONE correlation,
whatever their gap, and the pinned cases.  Last, it evaluates each grid
whole and again in shuffled chunks of random sizes, and compares the two
bit for bit: a point's value may not depend on the other points of its
call (the lockstep edge integrals of kacrice rely on it).  It exits 1 if
a gap exceeds GRID_TOL, an error against 40 digits REL_ERR, the relative
error of each part of the kernel's sum that gauss.mvn_cdf reports in
dimension 2, or a chunked value differs from the whole one in any bit.
"""

from __future__ import annotations

import math
import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from jointeec import gauss  # noqa: E402

mp.mp.dps = 40
PANELS = 40
GRID_TOL = 1e-12
REL_ERR = gauss._BVN_REL_ERR
MODERATE = np.round(np.arange(0.05, 0.96, 0.05), 2)
NEAR_ONE = np.array([0.96, 0.98, 0.99, 0.995, 0.999, 0.9999])
LINE_H = (-2.0, 0.0, 5.0)
LINE_R = (0.3, 0.9)

# (h, k, rho): far out at negative correlation, where the path starts at
# rho = -1 and the integrand is a spike at its top; near rho = -1, where
# an adaptive Gauss-Kronrod route the kernel once used raised AccuracyError;
# and on the line k = -h + 0.9 sqrt(1 - rho^2), where the kernel lost 5e-11
# to rounding in 1 - sin^2 theta before it took the offset from the pole
PINNED = ((4.5, 4.5, -0.95), (9.0, 9.0, -0.8), (2.0, 9.0, -0.95), (0.0, 0.5, -0.9999),
          (5.0, -5.0 + 0.9 * math.sqrt(1.0 - 0.9999 ** 2), -0.9999))


def theta_form(h, k, rho):
    """P{Z1 >= h, Z2 >= k} at correlation rho, from the theta form."""
    h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
    if rho < 0 and h + k >= mp.sqrt(1 - rho * rho):
        base, start = mp.mpf(0), -mp.pi / 2
    else:
        base, start = mp.ncdf(-h) * mp.ncdf(-k), mp.mpf(0)
    end = mp.asin(rho)
    lo, hi = min(start, end), max(start, end)
    top = max(h * h, k * k)
    peak = mp.asin(h * k / top) if top else mp.mpf(0)
    peak = min(max(peak, lo), hi)
    pts = {lo, peak, hi}
    for j in range(1, PANELS):
        pts.add(peak - (peak - lo) / mp.mpf(2) ** j)
        pts.add(peak + (hi - peak) / mp.mpf(2) ** j)

    def g(theta):  # with cos^2, not 1 - sin^2, which is 0 near -pi/2
        return -(h * h + k * k - 2 * h * k * mp.sin(theta)) / (2 * mp.cos(theta) ** 2)

    g_peak = g(peak)
    path = mp.quad(lambda theta: mp.exp(g(theta) - g_peak), sorted(pts))
    return base + (path if end > start else -path) * mp.exp(g_peak) / (2 * mp.pi)


def x_form(h, k, rho):
    """The same probability as int_h^inf phi(x) Phi((rho x - k) / sd) dx,
    on panels 0.25 wide over [h, h + 20], scaled by the integrand's
    largest value on them."""
    h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
    sd = mp.sqrt(1 - rho * rho)

    def f(x):
        return mp.npdf(x) * mp.ncdf((rho * x - k) / sd)

    pts = [h + mp.mpf(j) / 4 for j in range(81)]
    scale = max(f(x) for x in pts[::2])
    return mp.quad(lambda x: f(x) / scale, pts + [mp.inf]) * scale


def reference(h, k, rho):
    """The theta form, checked against the x form."""
    value = theta_form(h, k, rho)
    other = x_form(h, k, rho)
    if abs(other - value) > mp.mpf(10) ** -30 * abs(value):
        raise RuntimeError(f"the two forms disagree at {(h, k, rho)}: "
                           f"{mp.nstr(value, 25)} vs {mp.nstr(other, 25)}")
    return value


def path_rule(h, k, rho, n=1024, chunk=2048):
    """The kernel's sum with its path integral on n nodes, on the same
    path, in double precision."""
    start, _, _ = gauss._bvn_parts(h, k, rho)
    from_minus_one = gauss._from_minus_one(h, k, rho)
    near = np.abs(rho) > gauss._NEAR_ONE
    out = start.copy()
    for mask, rule in ((near, gauss._near_one_integral), (~near, gauss._path_integral)):
        idx = np.flatnonzero(mask)
        for i in range(0, len(idx), chunk):
            j = idx[i:i + chunk]
            out[j] += rule(h[j], k[j], rho[j], from_minus_one[j], n)
    return out


def grid(rhos):
    """The grid h, k in [-2, 20] step 0.5 at +-rhos, without the points
    whose value (by the 1024-node rule) is below 1e-300, and the kernel's
    relative gap to that rule there."""
    vals = np.arange(-2.0, 20.25, 0.5)
    h, k, rho = (a.ravel() for a in np.meshgrid(vals, vals, np.concatenate([rhos, -rhos]),
                                                indexing="ij"))
    ref = path_rule(h, k, rho)
    keep = ref >= 1e-300
    h, k, rho, ref = h[keep], k[keep], rho[keep], ref[keep]
    return h, k, rho, np.abs(gauss._bvn_survival_batch(h, k, rho) / ref - 1.0)


def chunk_differences(h, k, rho, seed=20261019):
    """How many points of the batch get other bits from the kernel when it
    is evaluated in shuffled chunks of 1 to 2000 points than whole."""
    whole = gauss._bvn_survival_batch(h, k, rho)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(h))
    chunked = np.empty_like(whole)
    i = 0
    while i < len(order):
        j = order[i:i + int(rng.integers(1, 2001))]
        chunked[j] = gauss._bvn_survival_batch(h[j], k[j], rho[j])
        i += len(j)
    return int(np.count_nonzero(whole.view(np.int64) != chunked.view(np.int64)))


def exact_error(h, k, rho):
    """The kernel's relative error against the 40-digit reference."""
    exact = reference(h, k, rho)
    return abs(float(mp.mpf(gauss._bvn_survival_batch(h, k, rho)[0]) / exact - 1))


def check():
    """Print the kernel's errors; return whether they are in bounds."""
    h, k, rho, err = grid(MODERATE)
    moved = chunk_differences(h, k, rho)
    m1 = gauss._from_minus_one(h, k, rho)
    far = (h + k) > gauss._FAR_TAIL_RATIO * np.sqrt(1.0 - rho * rho)
    regions = (
        ("rho > 0", rho > 0.0),
        ("rho < 0, path from 0", (rho < 0.0) & ~m1),
        ("rho < 0, path from -1", m1 & ~far),
        ("rho < 0, path from -1, far tail", m1 & far),
    )
    ok = True
    print(f"# grid: {len(h)} points; relative error against a 1024-node path rule")
    for name, mask in regions:
        i = np.flatnonzero(mask)[np.argmax(err[mask])]
        at_worst = exact_error(h[i], k[i], rho[i])
        print(f"# {name}: {mask.sum()} points, largest {err[i]:.2g} at "
              f"(h, k, rho) = ({h[i]:g}, {k[i]:g}, {rho[i]:g}), {at_worst:.2g} there "
              "against 40 digits")
        ok &= bool(err[i] <= GRID_TOL) and at_worst <= REL_ERR
    h, k, rho, err = grid(NEAR_ONE)
    moved += chunk_differences(h, k, rho)
    print(f"# 0.95 < |rho| < 1: {len(h)} points")
    for r in np.unique(rho):
        i = np.flatnonzero(rho == r)[np.argmax(err[rho == r])]
        at_worst = exact_error(h[i], k[i], rho[i])
        print(f"# rho = {r:g}: largest {err[i]:.2g} at (h, k) = ({h[i]:g}, {k[i]:g}), "
              f"{at_worst:.2g} there against 40 digits")
        ok &= bool(err[i] <= GRID_TOL) and at_worst <= REL_ERR
    errors = []
    for r in np.concatenate([NEAR_ONE, -NEAR_ONE]):
        width = math.sqrt(1.0 - r * r)
        for hh in LINE_H:
            for frac in LINE_R:
                kk = math.copysign(1.0, r) * hh + frac * width
                errors.append((exact_error(hh, kk, r), hh, frac, r))
    e, hh, frac, r = max(errors)
    print(f"# on the lines k = -+h + R sqrt(1 - rho^2): {len(errors)} points, largest {e:.2g} "
          f"against 40 digits, at h = {hh:g}, R = {frac:g}, rho = {r:g}")
    ok &= e <= REL_ERR
    for case in PINNED:
        e = exact_error(*case)
        print(f"# pinned {case}: {e:.2g}")
        ok &= e <= REL_ERR
    print(f"# both grids in shuffled chunks: {moved} points with other bits than whole")
    return ok and not moved


def main(argv):
    for case in PINNED:
        print(f"{case}: {mp.nstr(reference(*case), 20)}")
    if "--check" in argv and not check():
        print("# an error is out of bounds", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
