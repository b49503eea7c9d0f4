"""jointeec benchmark: times each workload through the public CLI entry
point and checks every result against perfbench/reference.json, and each
face-pair sum against the accuracy frozen in perfbench/accuracy.json.

Run from the repository root:

    python3 perfbench/run.py --workload eec-sweep --seed 1 --seconds 24 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(from a separate traced pass, see tracer.py).  The last line of stdout
is one JSON object; the lines above it are the same numbers for people,
with units, directions, sample counts and the accuracy metrics that do
not apply to every workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 2  # fresh processes, on top of the benchmark process itself
REF_REL_TOL = 1e-2  # gross-error guard; accuracy itself is rel_err_*
PIN_REL_TOL = 1e-9  # closed forms are pinned values of exact algebra
REF_UNCERTAINTY = 1e-10  # relative; the reference's terms are good to 1e-11
MC_SIGMA = 3.0  # the compare subcommand's Monte Carlo band
# lower side of the excursion band, as a share of the reference EEC; the
# estimates seen at the commit that added it sit at 0.94-1.10 of it, with
# exc + 3 stderr never below 1.08, at both calls of mc-sim
MC_EXC_FLOOR = 0.7
# accuracy may not fall below the value frozen in accuracy.json: a sum fails
# when its rel_err exceeds ACC_SLACK times the frozen one (or ACC_FLOOR, for
# sums frozen near rounding), or when it turns low_confidence
ACC_SLACK = 2.0
ACC_FLOOR = 1e-9
ACCURACY_FILE = os.path.join(HERE, "accuracy.json")
ANALYTIC = ("eec-sweep", "high-u", "flat-r")

# one process, one core: the face-pair sum single-threaded and BLAS too
THREAD_ENV = {"EEC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _first_calls(out_csv):
    """Import plus one first call on each route, as a fresh CLI user pays
    it.  u = 3 runs the 3-/4-D orthant ladder to its cap, so the lazy
    scipy.stats.qmc import and point-set construction land here.

    Returns the wall and the speed-scaled set-up time (see speed.py), and
    the Speed instance for the passes.  The kernel needs numpy, which the
    import loads, so the import is scaled by the kernel timed right after."""
    t0 = time.perf_counter()
    from jointeec import cli

    t_import = time.perf_counter() - t0
    spd = speed.Speed()
    k = spd.sample()

    def calls():
        for argv in (["eec", "--model", "interior-point", "--u", "3"],
                     ["closed-form", "--model", "interior-point", "--u", "3"],
                     ["simulate", "--model", "interior-point", "--u", "3", "--grid", "64",
                      "--reps", "200", "--seed", "1"]):
            code = cli.run(argv + ["--out", out_csv])
            if code != 0:
                raise RuntimeError(f"set-up call {' '.join(argv)} exited {code}")

    _, wall, scaled = spd.measure(calls)
    return t_import + wall, t_import * speed.REF_S / k + scaled, spd


def _probe_setup(n):
    """(wall, scaled) set-up times of n fresh processes, one after another."""
    times = []
    for i in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((out["setup_wall_s"], out["setup_s"]))
    return times


def _read_row(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


def _check(item, row, ref, accuracy):
    """Correctness, accuracy and error-bar verdicts for one CSV row.  A
    result fails when it misses its reference, its own error bar or, for
    a face-pair sum, the accuracy frozen in `accuracy` (None: not checked).
    Every test is written so that a NaN fails it."""
    out = {"rel_err": None, "errbar_miss": None, "low_conf": None, "acc_miss": False}
    if item.kind == "eec":
        value, err = float(row["eec_numeric"]), float(row["quad_error"])
        if item.ref in ref["face_sums"]:
            target = ref["face_sums"][item.ref]["value"]
        else:
            target = ref["flat_r_exact"][item.ref]
        rel = abs(value / target - 1.0) if _finite(value, err) else math.inf
        out["rel_err"] = rel
        out["ref_miss"] = not rel <= REF_REL_TOL
        out["errbar_miss"] = not abs(value - target) <= 3.0 * err + REF_UNCERTAINTY * abs(target)
        out["low_conf"] = row["low_confidence"] == "true"
        if accuracy is not None:
            frozen = accuracy[item.ref]
            out["acc_miss"] = (not rel <= max(ACC_SLACK * frozen["rel_err"], ACC_FLOOR)
                               or (out["low_conf"] and not frozen["low_conf"]))
    elif item.kind == "closed-form":
        pin = ref["closed_form_pins"][item.ref]
        out["ref_miss"] = not abs(float(row["closed_form"]) / pin - 1.0) <= PIN_REL_TOL
    else:  # simulate
        target = ref["face_sums"][item.ref]["value"]
        eec_mc, eec_se = float(row["eec_mc"]), float(row["eec_stderr"])
        exc, exc_se = float(row["excursion_mc"]), float(row["excursion_stderr"])
        # the compare subcommand's rule: MC brackets the face-pair sum when
        # it saw any signal; the excursion probability can never exceed the
        # EEC (N_X N_Y >= 1 on the event), and the grid only lowers it.  On
        # the low side the excursion estimate must reach MC_EXC_FLOOR of it,
        # which also holds where plain MC saw nothing (eec_mc = 0 +- 0).
        eec_miss = eec_se > 0.0 and not abs(eec_mc - target) <= MC_SIGMA * eec_se
        exc_high = not exc - MC_SIGMA * exc_se <= target
        exc_low = not exc + MC_SIGMA * exc_se >= MC_EXC_FLOOR * target
        out["ref_miss"] = (not _finite(eec_mc, eec_se, exc, exc_se) or not exc > 0.0
                           or row["excursion_method"] != "ImportanceSampled")
        out["errbar_miss"] = eec_miss or exc_high or exc_low
        out["mc_rel_stderr"] = exc_se / exc if exc > 0.0 and _finite(exc_se) else math.inf
    out["ok"] = not (out["ref_miss"] or out["errbar_miss"] or out["acc_miss"])
    return out


def _run_item(cli, item, ref, accuracy, out_csv):
    if os.path.exists(out_csv):
        os.remove(out_csv)
    t0 = time.perf_counter()
    code = cli.run(list(item.argv) + ["--out", out_csv])
    rec = {"label": item.label, "ref": item.ref, "s": time.perf_counter() - t0, "exit": code}
    if code != 0:
        rec.update(ok=False, error=f"exit code {code}")
        return rec
    rec.update(_check(item, _read_row(out_csv), ref, accuracy))
    return rec


def _run_pass(cli, workload, seed, index, ref, accuracy, out_csv, ess, spd=None,
              tracer=None):
    """Returns the pass's wall time, its speed-scaled time (None without
    `spd`) and its per-result records."""
    def items():
        records = []
        for item in workloads.one_pass(workload, seed, index):
            if tracer is not None:
                tracer.result_id = f"{index}:{item.label}"
            ess.clear()
            try:
                rec = _run_item(cli, item, ref, accuracy, out_csv)
            except Exception as exc:  # one broken result must not hide the rest
                traceback.print_exc()
                rec = {"label": item.label, "s": math.nan, "exit": None, "ok": False,
                       "error": repr(exc)}
            if ess:
                rec["ess"], rec["ess_ratio"] = ess[-1]
            records.append(rec)
        return records

    if spd is None:
        t0 = time.perf_counter()
        records = items()
        return time.perf_counter() - t0, None, records
    records, wall, scaled = spd.measure(items)
    return wall, scaled, records


def _freeze_accuracy(cli, ref, out_csv):
    """Write accuracy.json: the rel_err and low_confidence flag of every
    face-pair sum the analytic workloads run, from one pass of each."""
    frozen = {}
    for workload in ANALYTIC:
        _, _, recs = _run_pass(cli, workload, 1, 0, ref, None, out_csv, [])
        bad = [r["label"] for r in recs if not r["ok"]]
        if bad:
            raise RuntimeError(f"not freezing failed results: {', '.join(bad)}")
        frozen.update({r["ref"]: {"rel_err": r["rel_err"], "low_conf": r["low_conf"]}
                       for r in recs if r["rel_err"] is not None})
    with open(ACCURACY_FILE, "w", encoding="utf-8") as fh:
        json.dump({"versions": _versions(), "sums": dict(sorted(frozen.items()))}, fh,
                  indent=1)
        fh.write("\n")


def _tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def _versions():
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": THREAD_ENV}


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--freeze-accuracy", action="store_true",
                    help="rewrite perfbench/accuracy.json from this commit's results")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jointeec", "cli.py")):
        print("error: run from the repository root; src/jointeec not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.probe:
        wall, scaled, _ = _first_calls(os.path.join(OUT_DIR, "probe.csv"))
        print(json.dumps({"setup_wall_s": wall, "setup_s": scaled}))
        return 0
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if args.freeze_accuracy:
        from jointeec import cli
        _freeze_accuracy(cli, ref, os.path.join(OUT_DIR, "freeze.csv"))
        return 0
    if args.workload not in workloads.NAMES:
        print(f"error: --workload must be one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    with open(ACCURACY_FILE, encoding="utf-8") as fh:
        accuracy = json.load(fh)["sums"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_csv = os.path.join(OUT_DIR, f"{tag}.csv")

    wall, scaled, spd = _first_calls(out_csv)
    setup_wall, setup = zip((wall, scaled), *_probe_setup(SETUP_PROBES))
    from jointeec import cli
    import tracer as tracer_mod

    ess = []
    tracer_mod.observe_ess(ess)
    trc = tracer_mod.Tracer()
    deadline = time.perf_counter() + args.seconds
    plain, scaled, traced, records, times = [], [], [], [], []
    layer_passes, last_self = [], {}
    index = 0
    while True:
        # traced and untraced passes alternate, so trace.overhead_s compares
        # passes run under the same conditions
        if args.trace == 1 and len(traced) < len(plain):
            lo = trc.mark()
            trc.install()
            try:
                wall, _, recs = _run_pass(cli, args.workload, args.seed, index, ref,
                                          accuracy, out_csv, ess, tracer=trc)
            finally:
                trc.remove()
            metrics, last_self = trc.layer_metrics(lo, trc.mark())
            metrics["montecarlo.ess_ratio"] = min(
                (r["ess_ratio"] for r in recs if "ess_ratio" in r), default=0.0)
            metrics["trace.wall_s"] = wall
            layer_passes.append(metrics)
            traced.append(wall)
        else:
            wall, pass_scaled, recs = _run_pass(cli, args.workload, args.seed, index, ref,
                                                accuracy, out_csv, ess, spd)
            plain.append(wall)
            scaled.append(pass_scaled)
            times.extend(r["s"] for r in recs if r["exit"] == 0)
        records.extend(recs)
        index += 1
        passes = plain + traced
        done = len(plain) >= 1 and (args.trace == 0 or len(traced) >= 1)
        if done and time.perf_counter() + statistics.median(passes) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    analytic = [r for r in records if r.get("rel_err") is not None]
    graded = [r for r in records if r.get("errbar_miss") is not None]
    flagged = [r for r in records if r.get("low_conf") is not None]
    mc = [r for r in records if "mc_rel_stderr" in r]
    tail, tail_pct = _tail(times)
    e2e = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = [
        ("wall_s", "s", "lower", statistics.median(plain),
         f"median of {len(plain)} untraced passes, unscaled"),
        ("setup_wall_s", "s", "lower", statistics.median(setup_wall),
         f"median of {len(setup_wall)} fresh processes, unscaled"),
        ("result_s_p50", "s", "lower", statistics.median(times) if times else None,
         f"{len(times)} results of untraced passes"),
        ("result_s_tail", "s", "lower", tail,
         f"p{tail_pct:.0f} of {len(times)} results" if tail else f"needs 11 results, have {len(times)}"),
        ("rel_err_max", "ratio", "lower",
         max((r["rel_err"] for r in analytic), default=None), f"{len(analytic)} analytic results"),
        ("rel_err_p50", "ratio", "lower",
         statistics.median(r["rel_err"] for r in analytic) if analytic else None,
         f"{len(analytic)} analytic results"),
        ("fail_share", "ratio", "lower", failed / attempted, f"{failed} of {attempted} attempted"),
        ("error_bar_miss_share", "ratio", "lower",
         sum(r["errbar_miss"] for r in graded) / len(graded) if graded else None,
         f"{len(graded)} results with an error bar"),
        ("low_conf_share", "ratio", "lower",
         sum(r["low_conf"] for r in flagged) / len(flagged) if flagged else None,
         f"{len(flagged)} face-pair sums"),
        ("mc_rel_stderr", "ratio", "lower",
         statistics.median(r["mc_rel_stderr"] for r in mc) if mc else None,
         f"median of {len(mc)} importance-sampled excursion estimates"),
        ("ess_min", "count", "higher",
         min((r["ess"] for r in mc if "ess" in r), default=None), f"{len(mc)} simulate results"),
    ]
    counts = {"setup_s": f"median of {len(setup)} fresh processes, speed-scaled",
              "pass_s": f"median of {len(plain)} untraced passes, speed-scaled",
              "peak_rss_mb": "this process"}

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"environment {json.dumps(_versions())}")
    print(f"# {'metric':<24} {'value':>12}  {'unit':<6} {'better':<7} samples")
    for name, unit, better in END_TO_END:
        print(f"  {name:<24} {_fmt(e2e[name]):>12}  {unit:<6} {better:<7} {counts[name]}")
    for name, unit, better, value, note in extra:
        print(f"  {name:<24} {_fmt(value):>12}  {unit:<6} {better:<7} {note}")
    for r in records:
        if not r["ok"]:
            print(f"  FAILED {r['label']}: {r.get('error') or r}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    with open(os.path.join(OUT_DIR, f"{tag}.results.json"), "w", encoding="utf-8") as fh:
        json.dump({"records": records, "setup_s": setup, "setup_wall_s": setup_wall,
                   "passes": plain, "passes_scaled": scaled, "traced_passes": traced,
                   "speed_samples": spd.samples, "speed_intervals": spd.intervals}, fh)
    if args.trace == 0:
        result["metrics"] = {name: {"value": e2e[name], "unit": unit}
                             for name, unit, _ in END_TO_END}
    else:
        layers = tracer_mod.median_metrics(layer_passes)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        print(f"# per layer, median over {len(traced)} traced passes")
        for name, unit in tracer_mod.PER_LAYER:
            print(f"  {name:<48} {layers[name]:>14.6g}  {unit}")
        unaccounted = layers["trace.wall_s"] - layers["trace.self_s_sum"]
        print(f"# self times cover {layers['trace.self_s_sum']:.4f} s of the traced "
              f"wall_s {layers['trace.wall_s']:.4f} s; the harness's own {unaccounted:.4f} s "
              f"against trace.overhead_s {layers['trace.overhead_s']:.4f} s")
        print("# self time by span name: " + json.dumps(
            {k: round(v, 6) for k, v in last_self.items() if v}))
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in tracer_mod.PER_LAYER}
        trc.dump(os.path.join(OUT_DIR, f"{tag}.spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
