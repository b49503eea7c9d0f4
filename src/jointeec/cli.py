"""Command line front end.

Subcommands map one-to-one onto the library layers: ``validate`` and
``classify`` wrap the model checks, ``eec`` the numeric face-pair sum,
``closed-form`` the leading-order asymptotics, ``simulate`` the path
sampler, and ``compare`` runs all three value routes side by side and
checks the agreement bands.

Every command writes CSV with a header row.  Floats are printed with
%.17g, so rerunning a command with the same configuration produces a
byte-identical file and parsing the output loses nothing.  Exit codes:
0 success, 2 argument problems, 3 numerical-regime failures
(degeneracy, unconvergent quadrature, no matching closed form), 4 a
violated agreement band in ``compare``.

``simulate`` and ``compare`` make one ``montecarlo.simulate`` call for
all their u values: each block of paths is drawn once and read by every
level and by both Monte Carlo estimators.  So all rows of one table
share a path ensemble and their sampling errors are positively
correlated; ratios across rows are smoother than independent runs would
give.  ``simulate`` also reports the effective sample size of the
excursion weights (the hit count under plain Monte Carlo), the rank of
the path factor and its conditioning.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .common import (
    AccuracyError,
    ArgumentError,
    ConsistencyError,
    DegeneracyError,
    RegimeError,
    UnsupportedDimensionError,
)
from . import asymptotics, kacrice, model as model_mod, montecarlo

# compare bands: the closed form is asymptotic, so its ratio against the
# numeric sum is only enforced from this level upward, and only where
# neither value underflowed to 0 (the ratio is undefined there); the
# Monte Carlo band applies wherever the sampler saw any signal at all.
RATIO_BAND = (0.85, 1.15)
RATIO_BAND_MIN_U = 4.5
MC_SIGMA = 3.0


def _parse_u(text: str):
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad u list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("u list is empty")
    for v in values:
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError("u values must be finite")
    return values


def build_parser() -> argparse.ArgumentParser:
    source = argparse.ArgumentParser(add_help=False)
    pick = source.add_mutually_exclusive_group(required=True)
    pick.add_argument(
        "--model",
        metavar="NAME",
        help="built-in model: " + ", ".join(model_mod._FIXTURE_NAMES),
    )
    pick.add_argument(
        "--model-file",
        metavar="PATH",
        help="key = value description file (kernel_x, cross_form, c, d, ...)",
    )
    source.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")

    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument(
        "--u",
        required=True,
        type=_parse_u,
        metavar="LIST",
        help="comma separated levels, e.g. 3,3.5,4",
    )

    theorem = argparse.ArgumentParser(add_help=False)
    theorem.add_argument(
        "--theorem",
        choices=("3.1", "3.3-restricted"),
        default="3.1",
        help="3.3-restricted keeps only the faces active at the maximizer",
    )

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--grid", type=int, default=512, help="grid points per path")
    sampling.add_argument("--reps", type=int, default=20000, help="replicates")
    sampling.add_argument("--seed", type=int, required=True, help="RNG seed")

    parser = argparse.ArgumentParser(
        prog="jointeec",
        description="Joint excursion probabilities of bivariate Gaussian "
        "processes on [0,1] via the expected Euler characteristic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[source], help="covariance structure checks")
    sub.add_parser("classify", parents=[source], help="maximizer layout of r(t,s)")
    sub.add_parser("eec", parents=[source, levels, theorem], help="numeric face-pair sum")
    sub.add_parser(
        "closed-form", parents=[source, levels], help="leading-order asymptotics"
    )
    sub.add_parser(
        "simulate", parents=[source, levels, sampling], help="Monte Carlo estimates"
    )
    sub.add_parser(
        "compare",
        parents=[source, levels, theorem, sampling],
        help="closed form vs numeric sum vs Monte Carlo, with agreement bands",
    )
    return parser


def _load_model(args) -> model_mod.BivariateModel:
    if args.model is not None:
        return model_mod.fixture(args.model)
    try:
        return model_mod.load_model_file(args.model_file)
    except OSError as exc:
        raise ArgumentError(f"cannot read model file: {exc}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _write_table(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_validate(args):
    mod = _load_model(args)
    report = model_mod.validate_model(mod)
    header = (
        "label",
        "psd_ok",
        "min_eigenvalue",
        "unit_variance_max_err",
        "h3_ok",
        "h3_worst_eigenvalue",
        "maximizer_count",
    )
    rows = [
        (
            mod.label,
            report.psd_ok,
            report.min_eigenvalue,
            report.unit_variance_max_err,
            report.h3_ok,
            report.h3_worst_eigenvalue,
            report.maximizer_count,
        )
    ]
    code = 0 if report.psd_ok and report.h3_ok else 3
    if code != 0:
        for note in report.notes:
            print(f"validate: {note}", file=sys.stderr)
    return header, rows, code


def _cmd_classify(args):
    mod = _load_model(args)
    cls = asymptotics.classify(mod)
    header = ("label", "tag", "t_star", "s_star", "R")
    rows = [
        (mod.label, cls.tag, t_star, s_star, cls.R) for t_star, s_star in cls.maximizers
    ]
    return header, rows, 0


def _cmd_eec(args):
    mod = _load_model(args)
    restricted = args.theorem == "3.3-restricted"
    header = ("u", "eec_numeric", "quad_error", "low_confidence")
    rows = []
    for u in args.u:
        result = kacrice.eec(mod, u, restricted=restricted)
        rows.append((u, result.total.value, result.total.error, result.total.low_confidence))
    return header, rows, 0


def _closed_form_term(mod, classification):
    """Closed form for compare/closed-form; no-regime becomes exit 3."""
    try:
        return asymptotics.closed_form(mod, classification, 1.0)
    except ArgumentError as exc:
        raise RegimeError(str(exc))


def _cmd_closed_form(args):
    mod = _load_model(args)
    cls = asymptotics.classify(mod)
    term = _closed_form_term(mod, cls)
    header = ("u", "closed_form", "coefficient", "power", "rate", "tag")
    rows = []
    for u in args.u:
        if u <= 0.0:
            raise ArgumentError("closed-form needs u > 0, got %g" % u)
        value = term.evaluate(u)
        if value == 0.0:
            print(f"closed-form: u={u:g}: exp(-u^2/{term.rate:g}) underflowed; "
                  "the closed form reads 0", file=sys.stderr)
        rows.append((u, value, term.coefficient, term.power, term.rate, cls.tag))
    return header, rows, 0


def _shift_for(mod):
    try:
        cls = asymptotics.classify(mod)
    except (RegimeError, DegeneracyError):
        return None
    if cls.R <= 0.0:
        return None
    # middle maximizer: on a line of maximizers an endpoint shift leaves
    # most of the event mass unsampled and the importance weights hide
    # that as an optimistic standard error
    return cls.maximizers[len(cls.maximizers) // 2]


def _cmd_simulate(args):
    mod = _load_model(args)
    sim = montecarlo.simulate(mod, args.u, args.grid, args.reps, args.seed,
                              shift=_shift_for(mod))
    header = (
        "u",
        "excursion_mc",
        "excursion_stderr",
        "excursion_method",
        "eec_mc",
        "eec_stderr",
        "ess",
        "factor_rank",
        "factorization_cond",
    )
    rows = [
        (u, lv.excursion.value, lv.excursion.error, lv.excursion.method, lv.eec.value,
         lv.eec.error, lv.ess, sim.rank, sim.factorization_cond)
        for u, lv in zip(args.u, sim.levels)
    ]
    return header, rows, 0


def _cmd_compare(args):
    mod = _load_model(args)
    restricted = args.theorem == "3.3-restricted"
    cls = asymptotics.classify(mod)
    term = _closed_form_term(mod, cls)
    for u in args.u:
        if u <= 0.0:
            raise ArgumentError("compare needs u > 0, got %g" % u)
    sim = montecarlo.simulate(mod, args.u, args.grid, args.reps, args.seed)
    header = (
        "u",
        "closed_form",
        "eec_numeric",
        "mc_estimate",
        "mc_stderr",
        "ratio_cf_eec",
        "ratio_eec_mc",
    )
    rows = []
    violations = []
    for u, lv in zip(args.u, sim.levels):
        cf = term.evaluate(u)
        ee = kacrice.eec(mod, u, restricted=restricted).total.value
        mc = lv.eec
        ratio_cf = cf / ee if ee != 0.0 else math.nan
        ratio_mc = ee / mc.value if mc.value != 0.0 else math.nan
        rows.append((u, cf, ee, mc.value, mc.error, ratio_cf, ratio_mc))
        if u < RATIO_BAND_MIN_U:
            pass
        elif cf == 0.0 or ee == 0.0:
            zero = " and ".join(name for name, v in (("closed_form", cf), ("eec_numeric", ee))
                                if v == 0.0)
            print(f"compare: u={u:g}: {zero} underflowed to 0; the ratio check was skipped",
                  file=sys.stderr)
        elif not RATIO_BAND[0] <= ratio_cf <= RATIO_BAND[1]:
            violations.append(
                "u=%g: ratio_cf_eec %.6g outside [%g, %g]"
                % (u, ratio_cf, RATIO_BAND[0], RATIO_BAND[1])
            )
        if mc.error == 0.0:
            reason = ("saw no excursion" if mc.value == 0.0
                      else "has no standard error")
            print(f"compare: u={u:g}: Monte Carlo {reason} in {mc.n} replicates; "
                  "its check was skipped", file=sys.stderr)
        elif abs(ee - mc.value) > MC_SIGMA * mc.error:
            violations.append(
                "u=%g: |eec_numeric - mc_estimate| = %.6g exceeds %g standard errors"
                % (u, abs(ee - mc.value), MC_SIGMA)
            )
    for line in violations:
        print(f"compare: {line}", file=sys.stderr)
    return header, rows, 4 if violations else 0


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "eec": _cmd_eec,
    "closed-form": _cmd_closed_form,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing leaves it
    unchanged, and callers that run many commands in one process would
    otherwise rebuild it on every call."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        header, rows, code = _COMMANDS[args.command](args)
    except (ArgumentError, UnsupportedDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegeneracyError, RegimeError, AccuracyError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_table(args.out, header, rows)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
