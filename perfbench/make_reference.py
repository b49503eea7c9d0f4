"""Generate perfbench/reference.json, the frozen high-precision values that
the benchmark checks the face-pair sums against.

Run from the repository root (about 6 minutes with its two worker
processes on a 2-core x86-64 machine):

    PYTHONPATH=src python3 perfbench/make_reference.py

Routes, chosen to be independent of the code under test where it matters:

* corner x corner terms: the probability P{X>=u, Y>=u, D>=0}, with D the
  one or two signed derivative coordinates, is written as nested
  scipy.integrate.quad over D >= 0 of the density of D times the
  conditional bivariate survival of (X, Y), which is itself a 1-D quad
  of phi times the complementary error function.  No part of
  jointeec.gauss (and so none of its QMC ladder) is used.
* edge and interior terms: scipy.integrate.quad (QUADPACK) at relative
  tolerance 1e-11 over the package's vectorised integrands
  kacrice.edge_point_integrand and kacrice.interior_interior_integrand.
  The diagonal ridge is integrated in rotated coordinates w = t - s,
  z = t + s with a breakpoint on the ridge.
* closed forms: the package's own closed_form value, frozen here as a
  regression pin.  They are exact algebra, so there is no second route.
* flat-r (r identically 0): the exact product of two 1-D EEC terms,
  [Phi(-u) + sqrt(lambda)/(2 pi) exp(-u^2/2)]^2.

Every face-pair term is stored so a later change can be traced to the
term that moved.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
import multiprocessing

import numpy as np
import scipy
from scipy import integrate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from jointeec import DEFAULT_TOL, asymptotics, kacrice  # noqa: E402
from jointeec import model as model_mod  # noqa: E402
from jointeec.model import cross_eval, fixture  # noqa: E402

import workloads  # noqa: E402

_POINT = {"Left": 0.0, "Right": 1.0}
_SQRT2 = math.sqrt(2.0)
_CORNER_REL = 1e-12
_QUAD_REL = 1e-11


def _survival2(a, b, c11, c12, c22):
    """P{V1 >= a, V2 >= b} for centred V with covariance [[c11, c12], [c12, c22]]."""
    sd1 = math.sqrt(c11)
    beta = c12 / c11
    sdc = math.sqrt(c22 - c12 * c12 / c11)

    def f(x):
        return math.exp(-0.5 * x * x / c11) * 0.5 * math.erfc(
            (b - beta * x) / (sdc * _SQRT2))

    hi = max(a, 0.0) + 40.0 * sd1
    val, _ = integrate.quad(f, a, hi, epsabs=0.0, epsrel=0.1 * _CORNER_REL, limit=200)
    return val / (sd1 * math.sqrt(2.0 * math.pi))


def corner_term(mod, t0, s0, u, cx, cy):
    et = -1.0 if t0 == 0.0 else 1.0
    es = -1.0 if s0 == 0.0 else 1.0
    r = float(cross_eval(mod, t0, s0, 0, 0))
    r1 = float(cross_eval(mod, t0, s0, 1, 0))
    r2 = float(cross_eval(mod, t0, s0, 0, 1))
    r12 = float(cross_eval(mod, t0, s0, 1, 1))
    cov_v = np.array([[1.0, r], [r, 1.0]])
    cov_vd, var_d = [], []
    if cx:
        cov_vd.append([0.0, et * r1])
        var_d.append(mod.lambda1)
    if cy:
        cov_vd.append([es * r2, 0.0])
        var_d.append(mod.lambda2)
    if not var_d:
        return _survival2(u, u, 1.0, r, 1.0)
    k = len(var_d)
    svd = np.array(cov_vd).T
    sdd = np.diag(var_d)
    if k == 2:
        sdd[0, 1] = sdd[1, 0] = et * es * r12
    sdd_inv = np.linalg.inv(sdd)
    regress = svd @ sdd_inv
    cond = cov_v - regress @ svd.T
    norm = 1.0 / ((2.0 * math.pi) ** (k / 2.0) * math.sqrt(np.linalg.det(sdd)))
    # the mass sits near E{D | X = Y = u}; 15 marginal sd past it loses < 1e-40
    mu_d = svd.T @ np.linalg.solve(cov_v, np.array([u, u]))
    hi = [max(mu_d[i], 0.0) + 15.0 * math.sqrt(sdd[i, i]) for i in range(k)]

    def g(*d):
        d = np.array(d)
        shift = regress @ d
        q = float(d @ sdd_inv @ d)
        return norm * math.exp(-0.5 * q) * _survival2(
            u - shift[0], u - shift[1], cond[0, 0], cond[0, 1], cond[1, 1])

    if k == 1:
        val, _ = integrate.quad(g, 0.0, hi[0], epsabs=0.0, epsrel=_CORNER_REL, limit=200)
    else:
        val, _ = integrate.dblquad(lambda y, x: g(x, y), 0.0, hi[0], 0.0, hi[1],
                                   epsabs=0.0, epsrel=_CORNER_REL)
    return val


def edge_term(work, s0, u, constrain, peak):
    def f(t):
        return float(kacrice.edge_point_integrand(work, t, s0, u, constrain))

    pts = [p for p in (peak, 0.5) if 0.0 < p < 1.0]
    val, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=_QUAD_REL, limit=500,
                            points=sorted(set(pts)) or None)
    return val


def interior_term(mod, u, ridge, peak):
    if ridge:
        # stationary ridge model: the integrand depends on w = t - s only,
        # but integrate both coordinates anyway rather than rely on that
        def inner(w):
            val, _ = integrate.quad(
                lambda z: float(kacrice.interior_interior_integrand(
                    mod, (z + w) / 2.0, (z - w) / 2.0, u)),
                abs(w), 2.0 - abs(w), epsabs=0.0, epsrel=0.1 * _QUAD_REL, limit=200)
            return val

        halves = [integrate.quad(inner, lo, hi, epsabs=0.0, epsrel=_QUAD_REL, limit=500)[0]
                  for lo, hi in ((-1.0, 0.0), (0.0, 1.0))]
        return 0.5 * sum(halves)

    t_pk, s_pk = peak

    def inner(t):
        pts = [s_pk] if 0.0 < s_pk < 1.0 else None
        val, _ = integrate.quad(
            lambda s: float(kacrice.interior_interior_integrand(mod, t, s, u)),
            0.0, 1.0, epsabs=0.0, epsrel=0.1 * _QUAD_REL, limit=200, points=pts)
        return val

    pts = [t_pk] if 0.0 < t_pk < 1.0 else None
    val, _ = integrate.quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=_QUAD_REL, limit=500,
                            points=pts)
    return val


def face_sum(job):
    name, u, mode = job
    mod = fixture(name)
    cls = asymptotics.classify(mod)
    ridge = cls.tag == "DiagonalLine"
    peak = cls.maximizers[len(cls.maximizers) // 2]
    if mode == "full":
        pairs, cx, cy = list(kacrice._PAIR_ORDER), True, True
    else:
        pairs, cx, cy = kacrice._restricted_pairs(mod, cls, DEFAULT_TOL.gradient_tol)
    terms = {}
    total = 0.0
    for fx, fy in pairs:
        k = int(fx == "Interior") + int(fy == "Interior")
        if k == 0:
            val = corner_term(mod, _POINT[fx], _POINT[fy], u, cx, cy)
        elif k == 1:
            if fx == "Interior":
                val = edge_term(mod, _POINT[fy], u, cy, peak[0])
            else:
                val = edge_term(model_mod.transpose(mod), _POINT[fx], u, cx, peak[1])
        else:
            val = interior_term(mod, u, ridge, peak)
        terms[f"{fx}-{fy}"] = val
        total += (-1) ** k * val
    print(f"{name} u={u:g} {mode}: {total:.15e}", flush=True)
    return workloads.ref_key(name, u, mode), {"value": total, "terms": terms}


def main():
    jobs = sorted(workloads.reference_jobs(), key=lambda j: j[1])
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        sums = dict(pool.map(face_sum, jobs))
    closed = {}
    for name in workloads.FIXTURES:
        mod = fixture(name)
        term = asymptotics.closed_form(mod, asymptotics.classify(mod), 1.0)
        for u in workloads.HIGH_U:
            closed[workloads.ref_key(name, u, "closed-form")] = term.evaluate(u)
    flat_lam = model_mod.load_model_file(workloads.FLAT_R_FILE).lambda1
    flat = {}
    for u in workloads.FLAT_R_U:
        one_dim = (0.5 * math.erfc(u / _SQRT2)
                   + math.sqrt(flat_lam) / (2.0 * math.pi) * math.exp(-0.5 * u * u))
        flat[workloads.ref_key("flat-r", u, "full")] = one_dim ** 2
    out = {
        "generated_by": "PYTHONPATH=src python3 perfbench/make_reference.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tolerances": {"corner_rel": _CORNER_REL, "edge_interior_rel": _QUAD_REL},
        "face_sums": dict(sorted(sums.items())),
        "closed_form_pins": dict(sorted(closed.items())),
        "flat_r_exact": flat,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
