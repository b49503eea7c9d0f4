"""Spans around the package's public functions, recorded from outside.

Each wrapped function is replaced by a shim that appends one span (name,
start, end, parent span, result id, attributes) to an in-memory list.
The package calls these functions through module attributes, so the
shims also see the calls one layer makes into another.  Spans inside
functions (covariance, factorization, draws, matmul in montecarlo; the
refine/merge split of classify) are not visible from here.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import time
from collections import defaultdict

import numpy as np

from jointeec import asymptotics, cli, gauss, kacrice, montecarlo, quadrature

ESS_NOTE = re.compile(r"effective sample size ([0-9.eE+-]+)")

PER_LAYER = (
    ("asymptotics.classify.calls", "count"),
    ("asymptotics.classify.s", "s"),
    ("asymptotics.classify.maximizers", "count"),
    ("asymptotics.closed_form.s", "s"),
    ("kacrice.eec.self_s", "s"),
    *[(f"kacrice.term.{k}.{m}", u) for k in ("corner", "edge", "interior", "ridge")
      for m, u in (("s", "s"), ("evals", "count"))],
    ("kacrice.integrand.s", "s"),
    ("kacrice.spot_check.s", "s"),
    *[(f"gauss.mvn_cdf.d{d}.{m}", u) for d in (2, 3, 4)
      for m, u in (("calls", "count"), ("s", "s"), ("points", "count"))],
    ("gauss.mvn_cdf.rel_err_reported", "ratio"),
    *[(f"quadrature.integrate_{k}.{m}", u) for k in ("1d", "nd")
      for m, u in (("calls", "count"), ("self_s", "s"), ("evals", "count"),
                   ("unconverged", "count"))],
    *[(f"montecarlo.{f}.g{g}.s", "s")
      for f in ("estimate_eec", "estimate_joint_excursion", "sample_paths")
      for g in (512, 2048)],
    ("montecarlo.normals_drawn", "count"),
    ("montecarlo.bytes_computed", "B"),
    ("montecarlo.ess_ratio", "ratio"),
    ("montecarlo.factorization_cond", "ratio"),
    ("cli.run.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_s_sum", "s"),
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _term_name(args, kwargs):
    k = int(_arg(args, kwargs, 1, "face_x") == "Interior")
    k += int(_arg(args, kwargs, 2, "face_y") == "Interior")
    if k == 2:
        return "kacrice.term.ridge" if kwargs.get("ridge") else "kacrice.term.interior"
    return "kacrice.term.edge" if k == 1 else "kacrice.term.corner"


def _mvn_name(args, kwargs):
    lower = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "lower"), dtype=float))
    return f"gauss.mvn_cdf.d{int(np.count_nonzero(np.isfinite(lower)))}"


# position of grid_n in each sampler's signature; reps follows it
_MC_GRID_ARG = {"estimate_eec": 2, "estimate_joint_excursion": 2, "sample_paths": 1}


def _mc_name(fn):
    pos = _MC_GRID_ARG[fn]
    return lambda args, kwargs: f"montecarlo.{fn}.g{_arg(args, kwargs, pos, 'grid_n')}"


def _mc_attrs(fn):
    """Draw counts and computed bytes (from array shapes, not measured:
    normals and paths reps x 2n each, covariance and factor 2n x 2n each),
    plus the factorization condition where the result has it."""
    pos = _MC_GRID_ARG[fn]

    def post(args, kwargs, out):
        n2 = 2 * _arg(args, kwargs, pos, "grid_n")
        reps = _arg(args, kwargs, pos + 1, "reps")
        attrs = {"normals": reps * n2, "bytes": 8 * (2 * reps * n2 + 2 * n2 * n2)}
        if isinstance(out, montecarlo.PathBatch):
            attrs["cond"] = out.factorization_cond
        return attrs

    return post


def observe_ess(sink):
    """Keep the importance-sampling ESS, which the CSV does not carry: each
    `estimate_joint_excursion` call appends (ESS, ESS / reps) to `sink`.
    It stays installed for every pass, so untraced timings include it too."""
    orig = montecarlo.estimate_joint_excursion
    pos = _MC_GRID_ARG["estimate_joint_excursion"] + 1

    def shim(*args, **kwargs):
        est = orig(*args, **kwargs)
        for note in est.notes:
            m = ESS_NOTE.search(note)
            if m:
                ess = float(m.group(1))
                sink.append((ess, ess / _arg(args, kwargs, pos, "reps")))
        return est

    montecarlo.estimate_joint_excursion = shim


class Tracer:
    """`install` puts the shims in place, `remove` restores the originals;
    spans accumulate across installs until `dump`."""

    def __init__(self):
        self.spans: list[list] = []
        self.result_id = None
        self._stack: list[int] = []
        self._patched = []

    def install(self):
        fixed = lambda name: (lambda args, kwargs: name)  # noqa: E731
        self._wrap(cli, "run", fixed("cli.run"))
        self._wrap(asymptotics, "classify", fixed("asymptotics.classify"),
                   lambda a, k, out: {"maximizers": len(out.maximizers)})
        self._wrap(asymptotics, "closed_form", fixed("asymptotics.closed_form"))
        self._wrap(kacrice, "eec", fixed("kacrice.eec"))
        self._wrap(kacrice, "face_pair_integral", _term_name,
                   lambda a, k, out: {"evals": out.value.n})
        self._wrap(kacrice, "edge_point_integrand", fixed("kacrice.integrand"))
        self._wrap(kacrice, "interior_interior_integrand", fixed("kacrice.integrand"))
        self._wrap(gauss, "truncated_moment", fixed("kacrice.spot_check"))
        self._wrap(gauss, "mvn_cdf", _mvn_name,
                   lambda a, k, out: {"points": out.n,
                                      "rel_err": out.error / out.value if out.value > 0 else None})
        for fn in ("integrate_1d", "integrate_nd"):
            self._wrap(quadrature, fn, fixed(f"quadrature.{fn}"),
                       lambda a, k, out: {"evals": out.n_evals, "unconverged": not out.converged})
        # estimate_eec draws through sample_paths, which carries its counts
        self._wrap(montecarlo, "estimate_eec", _mc_name("estimate_eec"))
        for fn in ("estimate_joint_excursion", "sample_paths"):
            self._wrap(montecarlo, fn, _mc_name(fn), _mc_attrs(fn))

    def _wrap(self, module, attr, namer, post=None):
        orig = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            rec = [namer(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1,
                   self.result_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                rec[5] = post(args, kwargs, out)
            return out

        setattr(module, attr, shim)
        self._patched.append((module, attr, orig))

    def remove(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def mark(self):
        return len(self.spans)

    def self_times(self, lo, hi):
        """Self time of each span in spans[lo:hi]: its duration minus the
        durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans[lo:hi]]
        for i in range(lo, hi):
            parent = self.spans[i][3]
            if parent >= lo:
                own[parent - lo] -= self.spans[i][2] - self.spans[i][1]
        return own

    def layer_metrics(self, lo, hi):
        """Per-layer totals over spans[lo:hi], one traced pass.  The caller
        adds montecarlo.ess_ratio, which comes from `observe_ess`."""
        calls, incl, excl = defaultdict(int), defaultdict(float), defaultdict(float)
        attrs = defaultdict(list)
        own = self.self_times(lo, hi)
        for span, self_s in zip(self.spans[lo:hi], own):
            name = span[0]
            calls[name] += 1
            incl[name] += span[2] - span[1]
            excl[name] += self_s
            if span[5]:
                attrs[name].append(span[5])

        def attr_sum(prefix, key):
            return sum(a.get(key) or 0 for n, lst in attrs.items() if n.startswith(prefix)
                       for a in lst)

        m = {
            "asymptotics.classify.calls": calls["asymptotics.classify"],
            "asymptotics.classify.s": incl["asymptotics.classify"],
            "asymptotics.classify.maximizers": attr_sum("asymptotics.classify", "maximizers"),
            "asymptotics.closed_form.s": incl["asymptotics.closed_form"],
            "kacrice.eec.self_s": excl["kacrice.eec"],
            "kacrice.integrand.s": incl["kacrice.integrand"],
            "kacrice.spot_check.s": incl["kacrice.spot_check"],
            "cli.run.self_s": excl["cli.run"],
        }
        for kind in ("corner", "edge", "interior", "ridge"):
            name = f"kacrice.term.{kind}"
            m[f"{name}.s"] = incl[name]
            m[f"{name}.evals"] = attr_sum(name, "evals")
        for d in (2, 3, 4):
            name = f"gauss.mvn_cdf.d{d}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = incl[name]
            m[f"{name}.points"] = attr_sum(name, "points")
        # 3-/4-D only: the 2-D route reports an absolute error floor of 2e-16,
        # which makes its ratio meaningless once the probability is below it
        rel = [a["rel_err"] for d in (3, 4) for a in attrs[f"gauss.mvn_cdf.d{d}"]
               if a.get("rel_err") is not None]
        m["gauss.mvn_cdf.rel_err_reported"] = max(rel, default=0.0)
        for kind in ("1d", "nd"):
            name = f"quadrature.integrate_{kind}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = excl[name]
            m[f"{name}.evals"] = attr_sum(name, "evals")
            m[f"{name}.unconverged"] = attr_sum(name, "unconverged")
        for fn in ("estimate_eec", "estimate_joint_excursion", "sample_paths"):
            for g in (512, 2048):
                m[f"montecarlo.{fn}.g{g}.s"] = incl[f"montecarlo.{fn}.g{g}"]
        m["montecarlo.normals_drawn"] = attr_sum("montecarlo.", "normals")
        m["montecarlo.bytes_computed"] = attr_sum("montecarlo.", "bytes")
        cond = [a["cond"] for lst in attrs.values() for a in lst if "cond" in a]
        m["montecarlo.factorization_cond"] = max(cond, default=0.0)
        m["trace.self_s_sum"] = sum(own)
        return m, {name: excl[name] for name in sorted(excl)}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, result, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "result": result,
                                     "attrs": attrs}) + "\n")


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
