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
    python3 tools/mills_coefficients.py --check   # also report the error

The printed block is `_MILLS` in src/jointeec/gauss.py.  `--check`
evaluates the tail with the same double-precision steps as gauss (the
exponent split included) on a dense grid of [0, 37.5] and prints the
largest relative error against 40-digit mpmath.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

PIECES = 8
DEGREE = 12
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


def tail(h, coefs):
    """Q(h) in double precision, step for step as gauss evaluates it."""
    i = sum(h >= 4.0 * j / (PIECES - j) for j in range(1, PIECES))
    # t = PIECES * (y - centre of piece i), with one rounding in the product
    t = ((2 * PIECES - 2 * i - 1) * h - 4.0 * (2 * i + 1)) / (h + 4.0)
    p = 0.0
    for c in reversed(coefs[i]):
        p = p * t + c
    hi = math.floor(h * 64.0) / 64.0
    lo = h - hi
    return math.exp(-0.5 * hi * hi) * math.exp(-lo * (hi + 0.5 * lo)) * p


def main(argv):
    coefs = table()
    print("_MILLS = (")
    for row in coefs:
        lines = [", ".join(repr(c) for c in row[k:k + 3]) for k in range(0, len(row), 3)]
        print("    (" + ",\n     ".join(lines) + "),")
    print(")")
    if "--check" in argv:
        mp.mp.dps = 40
        worst, at = 0.0, None
        for k in range(75_001):
            h = 37.5 * k / 75_000
            ref = mp.erfc(mp.mpf(h) / mp.sqrt(2)) / 2
            err = abs(float(mp.mpf(tail(h, coefs)) / ref - 1))
            if err > worst:
                worst, at = err, h
        print(f"# largest relative error on [0, 37.5]: {worst:.3g} at h = {at:.6g}")


if __name__ == "__main__":
    main(sys.argv[1:])
