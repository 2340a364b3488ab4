"""Command-line front end: ``dirlaw <kind> <verb> [flags]``.

Exact verbs print a single value (rationals as ``p/q``, floats with 12
significant digits).  Report verbs write CSV or JSON to ``--out`` (or
stdout) and, when writing to a file, drop a ``<name>.manifest.json``
beside it that records every parameter of the run.  Payloads carry
no timestamps, so a rerun with the same manifest is byte-identical.

Exit codes: 0 success, 2 usage or domain error, 3 resource-guard
error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import __version__
from .arith import BUILTIN_MODELS, WeightModel, parse_model
# get_irreducibles is unused: perfbench/tracer.py wraps it (test_tracer.py)
from .caches import get_irreducibles, get_spf_sieve  # noqa: F401
from .dirichlet import cdf, density, sample_many
from .errors import (DomainError, IntegrityError, ResourceError,
                     SingularityError, UnsupportedError)
from .integers import (box_floors, convergence_study, exact_lhs,
                       grid_bins, mc_corner, mc_lhs, sup_deviation,
                       weighted_sum_S)
from .perms import deviation_perm, lhs_perm_brute, lhs_perm_exact
from .polyfield import check_statistic, deviation_poly, exact_lhs_poly
from .report import (DeviationReport, convergence_csv, fmt,
                     rect_fractions, rect_grid, report_csv)
from .series import (a0_local_check, d_direct, d_euler, direct_point,
                     prime_sum_diag)


# ---------------------------------------------------------------- parsing
# argparse types raise ArgumentTypeError, whose message argparse prints

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(tok) for tok in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number list: {text!r}")


def _scales(text: str) -> tuple[int, ...]:
    """The scales of a ``converge`` verb, in increasing order."""
    try:
        scales = sorted(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if len(set(scales)) < len(scales):
        raise argparse.ArgumentTypeError("scales must not repeat")
    return tuple(scales)


def _complex_list(text: str) -> tuple[complex, ...]:
    out = []
    for tok in text.split(","):
        try:
            out.append(complex(tok.strip()))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {tok!r}")
    return tuple(out)


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}j"


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return _fmt_complex(v)
    return fmt(v)


def _model_for(args, k: int | None) -> WeightModel:
    return parse_model(getattr(args, "model", "uniform"), k)


# ------------------------------------------------------------- manifests

def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _emit(payload: str, args, kind: str, params: dict) -> None:
    """Write a report payload to --out, plus a manifest of everything
    needed to reproduce it bit-identically, or to stdout."""
    out = getattr(args, "out", None)
    if out is None or out == "-":
        sys.stdout.write(payload)
        return
    path = Path(out)
    path.write_text(payload)
    manifest = {"kind": kind, "params": params,
                "seed": getattr(args, "seed", 0),
                "tool_version": __version__, "timestamp_utc": _now_utc(),
                "outputs": [str(path)]}
    Path(str(path) + ".manifest.json").write_text(json.dumps(
        manifest, indent=2, sort_keys=True, default=str) + "\n")


def _report_json(kind: str, reports: list[DeviationReport],
                 bins: int | None) -> str:
    """JSON body: the last report's header plus one row per grid point
    (a single report) or per scale (kind "converge")."""
    last = reports[-1]
    if kind == "converge":
        rows = [{"scale": r.scale, "sup_dev": r.sup_dev,
                 "scaled_sup_dev": r.scaled_sup_dev} for r in reports]
    else:
        rows = [{"u": [str(Fraction(c)) for c in u], "empirical": emp,
                 "limit": lim, "deviation": dev}
                for u, emp, lim, dev in zip(last.points, last.empirical,
                                            last.limit, last.deviation)]
    body = {
        "kind": kind,
        "k": last.k,
        "scale": last.scale,
        "model": last.model_id,
        "grid_step": str(Fraction(last.grid_step)),
        "bins": bins,
        "sup_dev": last.sup_dev,
        "scaled_sup_dev": last.scaled_sup_dev,
        "rows": rows,
        "tool_version": __version__,
    }
    return json.dumps(body, indent=2) + "\n"


def _summary(report: DeviationReport, to_stderr: bool) -> None:
    at = ",".join(str(c) for c in report.arg_sup())
    line = (f"scale={report.scale} sup_dev={fmt(report.sup_dev)} "
            f"scaled_sup_dev={fmt(report.scaled_sup_dev)} arg_sup={at}")
    print(line, file=sys.stderr if to_stderr else sys.stdout)


def _emit_reports(reports: list[DeviationReport], args, kind: str,
                  params: dict, bins: int | None) -> None:
    """Write one grid report, or a convergence table for kind
    "converge", then one summary line per report."""
    if args.format == "json":
        payload = _report_json(kind, reports, bins)
    elif kind == "converge":
        payload = convergence_csv(reports)
    else:
        payload = report_csv(reports[-1])
    to_stdout = getattr(args, "out", None) in (None, "-")
    _emit(payload, args, kind, params)
    for r in reports:
        _summary(r, to_stderr=to_stdout)


# ------------------------------------------------------------- dirichlet

def _cmd_dirichlet_cdf(args) -> int:
    value = cdf(args.alpha, args.u, tol=args.tol)
    print(fmt(value))
    return 0


def _cmd_dirichlet_density(args) -> int:
    print(fmt(density(args.alpha, args.t)))
    return 0


def _cmd_dirichlet_sample(args) -> int:
    pts = sample_many(args.alpha, args.samples, args.seed)
    k = pts.shape[1]
    lines = [",".join(f"t_{i}" for i in range(1, k + 1))]
    for row in pts:
        lines.append(",".join(fmt(c) for c in row))
    payload = "\n".join(lines) + "\n"
    params = {"alpha": args.alpha, "samples": args.samples}
    _emit(payload, args, "dirichlet", params)
    return 0


# -------------------------------------------------------------- integers

def _cmd_integers_exact(args) -> int:
    model = _model_for(args, args.k)
    rect_fractions(args.u, model.k)    # domain, before sieving
    sieve = get_spf_sieve(args.x)
    value = exact_lhs(args.x, model.k, model, args.u, sieve)
    print(_fmt_value(value))
    return 0


def _cmd_integers_run(args) -> int:
    model = _model_for(args, args.k)
    bins = grid_bins(args.grid)        # domain, before sieving
    rect_grid(model.k, args.grid)
    sieve = get_spf_sieve(args.x)
    report = sup_deviation(args.x, model.k, model, args.grid, sieve)
    params = {"x": args.x, "k": model.k, "model": args.model,
              "grid": str(Fraction(args.grid)), "format": args.format}
    _emit_reports([report], args, "integers", params, bins=bins)
    return 0


def _cmd_integers_mc(args) -> int:
    model = _model_for(args, args.k)
    mc_corner(model.k, model, args.u, args.samples)  # before sieving
    sieve = get_spf_sieve(args.x)
    est, err = mc_lhs(args.x, model.k, model, args.u, args.samples,
                      args.seed, sieve)
    print(f"estimate={fmt(est)} stderr={fmt(err)}")
    return 0


def _cmd_integers_converge(args) -> int:
    model = _model_for(args, args.k)
    grid_bins(args.grid)               # domain, before sieving
    rect_grid(model.k, args.grid)
    sieve = get_spf_sieve(max(args.x))
    reports = convergence_study(args.x, model.k, model, args.grid, sieve)
    params = {"x": list(args.x), "k": model.k, "model": args.model,
              "grid": str(Fraction(args.grid)), "format": args.format,
              "engine": "integers"}
    _emit_reports(reports, args, "converge", params, bins=None)
    return 0


def _cmd_integers_boxsum(args) -> int:
    sieve = get_spf_sieve(max(box_floors(args.x, args.k)))
    total, main, ratio = weighted_sum_S(args.x, args.k, sieve)
    print(f"S={fmt(total)} main={fmt(main)} "
          f"residual_ratio={fmt(ratio)}")
    return 0


# ----------------------------------------------------------------- polys

def _cmd_polys_exact(args) -> int:
    print(_fmt_value(exact_lhs_poly(args.q, args.n, args.k, args.u)))
    return 0


def _cmd_polys_run(args) -> int:
    report = deviation_poly(args.q, args.n, args.k, args.grid)
    params = {"q": args.q, "n": args.n, "k": args.k,
              "grid": str(Fraction(args.grid)), "format": args.format}
    _emit_reports([report], args, "polys", params, bins=None)
    return 0


def _cmd_polys_converge(args) -> int:
    for n in args.n:                   # every n, before the first table
        check_statistic(args.q, n, args.k)
    reports = [deviation_poly(args.q, n, args.k, args.grid) for n in args.n]
    params = {"q": args.q, "n": list(args.n), "k": args.k,
              "grid": str(Fraction(args.grid)), "format": args.format,
              "engine": "polys"}
    _emit_reports(reports, args, "converge", params, bins=None)
    return 0


# ----------------------------------------------------------------- perms

def _cmd_perms_exact(args) -> int:
    print(_fmt_value(lhs_perm_exact(args.n, args.k, args.u)))
    return 0


def _cmd_perms_brute(args) -> int:
    print(_fmt_value(lhs_perm_brute(args.n, args.k, args.u)))
    return 0


def _cmd_perms_converge(args) -> int:
    reports = [deviation_perm(n, args.k, args.grid) for n in args.n]
    params = {"n": list(args.n), "k": args.k,
              "grid": str(Fraction(args.grid)), "format": args.format,
              "engine": "perms"}
    _emit_reports(reports, args, "converge", params, bins=None)
    return 0


# ---------------------------------------------------------------- series

def _cmd_series_direct(args) -> int:
    k = args.k if args.k is not None else len(args.s)
    direct_point(args.s, k, args.nmax)     # domain and cost, before sieving
    sieve = get_spf_sieve(args.nmax)
    value, tail = d_direct(args.s, k, args.nmax, sieve)
    print(f"value={_fmt_complex(value)} tail={fmt(tail)}")
    return 0


def _cmd_series_euler(args) -> int:
    k = args.k if args.k is not None else len(args.s)
    value, tail = d_euler(args.s, k, args.pmax, args.vmax)
    print(f"value={_fmt_complex(value)} tail={fmt(tail)}")
    return 0


def _cmd_series_a0(args) -> int:
    print(_fmt_value(a0_local_check(args.p, args.k, args.vmax)))
    return 0


def _cmd_series_primesum(args) -> int:
    model = _model_for(args, args.k)
    if len(args.s) != 1:
        raise DomainError("--s takes a single point here")
    value = prime_sum_diag(model, args.j, args.s[0], args.pmax)
    print(_fmt_complex(value))
    return 0


# ------------------------------------------------------------ the parser

def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None,
                   help="output path (default stdout)")


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("seed must be at least 0")
    return int(text)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: ``main`` only reads it."""
    top = argparse.ArgumentParser(
        prog="dirlaw",
        description="Dirichlet limit laws for k-part factorizations.")
    top.add_argument("--version", action="version",
                     version=f"dirlaw {__version__}")
    kinds = top.add_subparsers(dest="kind", required=True)

    # dirichlet -----------------------------------------------------
    dd = kinds.add_parser("dirichlet", help="limit distribution").add_subparsers(
        dest="verb", required=True)
    p = dd.add_parser("cdf", help="rectangle CDF")
    p.add_argument("--alpha", type=_float_list, required=True)
    p.add_argument("--u", type=_float_list, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_dirichlet_cdf)
    p = dd.add_parser("density", help="density at a simplex point")
    p.add_argument("--alpha", type=_float_list, required=True)
    p.add_argument("--t", type=_float_list, required=True)
    p.set_defaults(func=_cmd_dirichlet_density)
    p = dd.add_parser("sample", help="draw simplex points")
    p.add_argument("--alpha", type=_float_list, required=True)
    p.add_argument("--samples", type=int, default=1)
    _add_seed(p)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_dirichlet_sample)

    # integers ------------------------------------------------------
    di = kinds.add_parser(
        "integers", help="divisor tuples of random integers").add_subparsers(
        dest="verb", required=True)
    p = di.add_parser("exact", help="exact L(x, u)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--u", type=_fraction_list, required=True)
    p.add_argument("--model", default="uniform",
                   help=f"one of {', '.join(BUILTIN_MODELS)}")
    p.set_defaults(func=_cmd_integers_exact)
    p = di.add_parser("run", help="grid deviation report")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--model", default="uniform")
    p.add_argument("--grid", type=_fraction, default=Fraction(1, 20))
    p.add_argument("--threads", type=int, help="deprecated; no effect")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_integers_run)
    p = di.add_parser("mc", help="Monte Carlo estimate of L(x, u)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--u", type=_fraction_list, required=True)
    p.add_argument("--model", default="uniform")
    p.add_argument("--samples", type=int, default=10000)
    _add_seed(p)
    p.set_defaults(func=_cmd_integers_mc)
    p = di.add_parser("converge", help="sup deviation along growing x")
    p.add_argument("--x", type=_scales, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--model", default="uniform")
    p.add_argument("--grid", type=_fraction, default=Fraction(1, 20))
    p.add_argument("--threads", type=int, help="deprecated; no effect")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_integers_converge)
    p = di.add_parser("boxsum",
                      help="weighted divisor box sum and its main term")
    p.add_argument("--x", type=_float_list, required=True,
                   help="k box bounds, e.g. 2000,2000")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_integers_boxsum)

    # polys ---------------------------------------------------------
    dp = kinds.add_parser(
        "polys", help="monic polynomials over F_q").add_subparsers(
        dest="verb", required=True)
    p = dp.add_parser("exact", help="exact mean CDF at u")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=_fraction_list, required=True)
    p.set_defaults(func=_cmd_polys_exact)
    p = dp.add_parser("run", help="grid deviation report")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=_fraction, default=Fraction(1, 10))
    _add_out_flags(p)
    p.set_defaults(func=_cmd_polys_run)
    p = dp.add_parser("converge", help="sup deviation along growing n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=_scales, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=_fraction, default=Fraction(1, 10))
    _add_out_flags(p)
    p.set_defaults(func=_cmd_polys_converge)

    # perms ---------------------------------------------------------
    dm = kinds.add_parser(
        "perms", help="cycle blocks of random permutations").add_subparsers(
        dest="verb", required=True)
    p = dm.add_parser("exact", help="closed-form mean CDF at u")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=_fraction_list, required=True)
    p.set_defaults(func=_cmd_perms_exact)
    p = dm.add_parser("brute", help="conjugacy-class enumeration oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=_fraction_list, required=True)
    p.set_defaults(func=_cmd_perms_brute)
    p = dm.add_parser("converge", help="sup deviation along growing n")
    p.add_argument("--n", type=_scales, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=_fraction, default=Fraction(1, 10))
    _add_out_flags(p)
    p.set_defaults(func=_cmd_perms_converge)

    # series --------------------------------------------------------
    ds = kinds.add_parser(
        "series", help="multiple Dirichlet series probes").add_subparsers(
        dest="verb", required=True)
    p = ds.add_parser("direct", help="truncated direct sum")
    p.add_argument("--s", type=_complex_list, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nmax", type=int, default=1000)
    p.set_defaults(func=_cmd_series_direct)
    p = ds.add_parser("euler", help="truncated Euler product")
    p.add_argument("--s", type=_complex_list, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--pmax", type=int, default=1000)
    p.add_argument("--vmax", type=int, default=30)
    p.set_defaults(func=_cmd_series_euler)
    p = ds.add_parser("a0", help="local leading coefficient check")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vmax", type=int, default=30)
    p.set_defaults(func=_cmd_series_a0)
    p = ds.add_parser("primesum", help="prime-sum model diagnostic")
    p.add_argument("--model", default="uniform")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--j", type=int, required=True,
                   help="0-based tuple coordinate")
    p.add_argument("--s", type=_complex_list, required=True)
    p.add_argument("--pmax", type=int, default=10000)
    p.set_defaults(func=_cmd_series_primesum)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    if getattr(args, "threads", None) is not None:
        print("warning: --threads is deprecated and has no effect",
              file=sys.stderr)
    try:
        return args.func(args)
    except (DomainError, UnsupportedError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
