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

The printed literals are the pinned far-tail values of tests/test_gauss.py.
`--check` evaluates gauss._bvn_survival_batch on the grid h, k in [-2, 20]
step 0.5, |rho| in {0.05, ..., 0.95} and prints, for each region of the
grid, the largest relative error against a 1024-node Gauss-Legendre rule
on the same path in double precision, and the kernel's error at that
worst point against the 40-digit reference.  Points whose value is below
1e-300 are left out.  It also prints the kernel's error on the pinned
cases, and exits 1 if an error on the grid exceeds GRID_TOL or one on a
pinned case PINNED_TOL.
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
PINNED_TOL = 1e-10

# (h, k, rho): far out at negative correlation, where the path starts at
# rho = -1 and the integrand is a spike at its top
PINNED = ((4.5, 4.5, -0.95), (9.0, 9.0, -0.8), (2.0, 9.0, -0.95))


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


def path_rule(h, k, rho, n=1024, chunk=4096):
    """The path integral of gauss._bvn_survival_batch with an n-node
    Gauss-Legendre rule, on the same path, in double precision."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    from_minus_one = gauss._from_minus_one(h, k, rho)
    out = np.empty(len(h))
    for i in range(0, len(h), chunk):
        sl = slice(i, i + chunk)
        hh, kk, m1 = h[sl, None], k[sl, None], from_minus_one[sl]
        start = np.where(m1, -0.5 * math.pi, 0.0)[:, None]
        span = np.arcsin(rho[sl])[:, None] - start
        sn = np.sin(start + span * x)
        expo = np.exp(-(hh * hh + kk * kk - 2.0 * hh * kk * sn) / (2.0 * (1.0 - sn * sn)))
        base = np.where(m1, 0.0, gauss.ndtr(-h[sl]) * gauss.ndtr(-k[sl]))
        out[sl] = base + (expo @ w) * span[:, 0] / (2.0 * math.pi)
    return out


def grid():
    vals = np.arange(-2.0, 20.25, 0.5)
    rhos = np.round(np.arange(0.05, 0.96, 0.05), 2)
    rhos = np.concatenate([rhos, -rhos])
    return [a.ravel() for a in np.meshgrid(vals, vals, rhos, indexing="ij")]


def check():
    """Print the kernel's errors; return whether they are in bounds."""
    h, k, rho = grid()
    ref = path_rule(h, k, rho)
    keep = ref >= 1e-300
    h, k, rho, ref = h[keep], k[keep], rho[keep], ref[keep]
    err = np.abs(gauss._bvn_survival_batch(h, k, rho) / ref - 1.0)
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
        exact = reference(h[i], k[i], rho[i])
        at_worst = abs(float(mp.mpf(gauss._bvn_survival_batch(h[i], k[i], rho[i])[0]) / exact - 1))
        print(f"# {name}: {mask.sum()} points, largest {err[i]:.2g} at "
              f"(h, k, rho) = ({h[i]:g}, {k[i]:g}, {rho[i]:g}), {at_worst:.2g} there "
              "against 40 digits")
        ok &= bool(err[i] <= GRID_TOL)
    for case in PINNED:
        exact = reference(*case)
        e = abs(float(mp.mpf(gauss._bvn_survival_batch(*case)[0]) / exact - 1))
        print(f"# pinned {case}: {e:.2g}")
        ok &= e <= PINNED_TOL
    return ok


def main(argv):
    for case in PINNED:
        print(f"{case}: {mp.nstr(reference(*case), 20)}")
    if "--check" in argv and not check():
        print("# an error is out of bounds", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
