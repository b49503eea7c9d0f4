"""Coefficients of the normal tail in jointeec.gauss, generated with mpmath.

The upper tail of the standard normal is written as
    Q(h) = P{Z >= h} = exp(-h^2 / 2) R(h),   R(h) = M(h) / sqrt(2 pi),
with M the Mills ratio.  R is smooth on [0, inf) and so is its image
under y = (h - 4) / (h + 4), which maps [0, inf) onto [-1, 1).  The
y-interval is cut into PIECES equal pieces; on each, R is interpolated
at DEGREE + 1 Chebyshev points in the local variable t in [-1, 1] and
the interpolant is written in powers of t for Horner evaluation.

mpmath is needed here only; the package never imports it.  Run from the
repository root:

    python3 tools/mills_coefficients.py           # print the table
    python3 tools/mills_coefficients.py --check   # also check gauss against it

The printed block is `_MILLS` in src/jointeec/gauss.py.  `--check`
evaluates the tail Q(h) = gauss.ndtr(-h) itself on a dense grid of
[0, 37.5], once as one array call and once as a scalar call per point (a
scalar runs the same path as a one-element array), and prints the largest
relative error of each against 40-digit mpmath.  It exits 1 if either
error reaches ERR_TOL or the regenerated table differs from the shipped
gauss._MILLS.
"""

from __future__ import annotations

import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from jointeec import gauss  # noqa: E402

PIECES = 8
DEGREE = 12
ERR_TOL = 6e-16
mp.mp.dps = 60


def r_of_y(y):
    h = 4 * (1 + y) / (1 - y)
    return mp.erfc(h / mp.sqrt(2)) / 2 * mp.exp(h * h / 2)


def piece_coefficients(i):
    """Monomial coefficients in t of the Chebyshev interpolant on piece i."""
    width = mp.mpf(2) / PIECES
    centre = -1 + width * (i + mp.mpf(1) / 2)
    n = DEGREE + 1
    nodes = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / n) for k in range(n)]
    vals = [r_of_y(centre + width / 2 * t) for t in nodes]
    # Chebyshev coefficients, then the power basis through T_j recurrences
    cheb = [2 * mp.fsum(v * mp.cos(mp.pi * j * (k + mp.mpf(1) / 2) / n)
                        for k, v in enumerate(vals)) / n for j in range(n)]
    cheb[0] /= 2
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    power = [cheb[0]] + [mp.mpf(0)] * DEGREE
    power[1] += cheb[1]
    for j in range(2, n):
        t_next = [mp.mpf(0)] + [2 * c for c in t_cur]
        for m, c in enumerate(t_prev):
            t_next[m] -= c
        for m, c in enumerate(t_next):
            power[m] += cheb[j] * c
        t_prev, t_cur = t_cur, t_next
    return [float(c) for c in power]


def table():
    return [piece_coefficients(i) for i in range(PIECES)]


def check(coefs) -> bool:
    """Print gauss.ndtr's largest tail error as one array call and as scalar
    calls, and whether the shipped table is the regenerated one; True when
    all is in bounds."""
    mp.mp.dps = 40
    hs = [37.5 * k / 75_000 for k in range(75_001)]
    refs = [mp.erfc(mp.mpf(h) / mp.sqrt(2)) / 2 for h in hs]
    calls = {
        "one array call": gauss.ndtr(-np.array(hs)),
        "scalar calls": [gauss.ndtr(-h) for h in hs],
    }
    ok = True
    for name, values in calls.items():
        errs = [abs(float(mp.mpf(float(q)) / ref - 1)) for q, ref in zip(values, refs)]
        worst = max(range(len(hs)), key=errs.__getitem__)
        print(f"# {name}: largest relative error on [0, 37.5]: "
              f"{errs[worst]:.3g} at h = {hs[worst]:.6g}")
        ok &= errs[worst] < ERR_TOL
    same = tuple(tuple(row) for row in coefs) == gauss._MILLS
    print(f"# gauss._MILLS {'equals' if same else 'differs from'} the regenerated table")
    return ok and same


def main(argv):
    coefs = table()
    print("_MILLS = (")
    for row in coefs:
        lines = [", ".join(repr(c) for c in row[k:k + 3]) for k in range(0, len(row), 3)]
        print("    (" + ",\n     ".join(lines) + "),")
    print(")")
    if "--check" in argv and not check(coefs):
        print("# an error is out of bounds or the table is stale", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
