"""Command-line front end.

Loads schedules/vectors from JSON, dispatches the library computations and
writes deterministic CSV/JSON artifacts (fixed key order, floats at 17
significant digits, atomic replace).  Exit codes: 0 success, 1 failed
mathematical assertion or infeasible request (with a JSON diagnostic on
stderr), 2 usage error.

A command imports the modules it runs when it runs: building the parser
loads neither democracy, approx nor the acceptance suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from itertools import repeat
from typing import Iterable, Optional

from .errors import GreedyLabError
from .exact import int_at_least, json_int, json_shape
from .greedy import GreedyProfile, gamma, sigma_exact
from .spaces import SpaceSpec, _float_root, space_from_json, space_norm
from .vectors import CompressedVector


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _root_strings(p: int | float, *columns: Iterable) -> dict:
    """{v: fmt_float(_float_root(v, p))} for each distinct power v in the columns.

    Floats, roots and strings are each one C-level map; columns with a
    power past the float range take _float_root per value instead.
    """
    powers = list(set().union(*columns))
    try:
        floats = list(map(float, powers))
    except OverflowError:
        return {v: fmt_float(_float_root(v, p)) for v in powers}
    roots = map(math.sqrt, floats) if p == 2 else map(pow, floats, repeat(1.0 / p))
    return dict(zip(powers, map(format, roots, repeat(".17g"))))


def write_text(path: Optional[str], text: str) -> None:
    """Write atomically (temp file + rename); None writes to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-greedylab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(report: dict | list | tuple[str, list[str]], *, path: Optional[str]) -> None:
    """Write a report: a (header, lines) pair of pre-joined CSV text as CSV,
    anything else as strict JSON (no NaN or Infinity).  A table without
    lines writes an empty file."""
    if isinstance(report, tuple):
        header, lines = report
        write_text(path, "\n".join([header, *lines, ""]) if lines else "")
    else:
        write_text(path, json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_space(path: str) -> SpaceSpec:
    return space_from_json(_load_json(path))


def _load_schedule_space(path: str) -> SpaceSpec:
    spec = _load_space(path)
    if spec.schedule is None:
        raise ValueError(f"{path} does not describe a block schedule")
    return spec


def _norm_json(nv) -> dict:
    """A norm as JSON: ``float`` is null past the float range, ``power_exact`` exact."""
    return {
        "float": float(nv) if math.isfinite(nv) else None,
        "power_exact": None if nv.power_exact is None else str(nv.power_exact),
        "p": nv.p,
    }


def _parse_int_list(text: str) -> list[int]:
    """Accept '1,2,5' and '1..4' range syntax; a descending range, which names
    nothing, is a usage error."""
    out: list[int] = []
    for part in text.split(","):
        try:
            lo, hi = map(int, part.split("..")) if ".." in part else (int(part),) * 2
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part.strip()!r} is not an int or a lo..hi range")
        if lo > hi:
            raise argparse.ArgumentTypeError(f"the range {part.strip()} is empty")
        out.extend(range(lo, hi + 1))
    return out


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_norm(args) -> int:
    spec = _load_space(args.space)
    x = CompressedVector.load(args.vector)
    emit_report(_norm_json(space_norm(x, spec)), path=args.out)
    return 0


def cmd_sigma(args) -> int:
    spec = _load_space(args.space)
    x = CompressedVector.load(args.vector)
    nv = sigma_exact(x, args.N, spec)
    emit_report({"N": args.N, "sigma": _norm_json(nv)}, path=args.out)
    return 0


def cmd_gamma(args) -> int:
    spec = _load_space(args.space)
    x = CompressedVector.load(args.vector)
    out = gamma(x, args.N, spec)
    emit_report(
        {
            "N": args.N,
            "gamma": _norm_json(out.residual_max),
            "gamma_min": _norm_json(out.residual_min),
            "witness_max": [list(t) for t in out.witness_max],
            "witness_min": [list(t) for t in out.witness_min],
        },
        path=args.out,
    )
    return 0


def cmd_errors(args) -> int:
    max_k = None if args.max_k is None else int_at_least(args.max_k, 0, "max_k")
    spec = _load_space(args.space)
    x = CompressedVector.load(args.vector)
    profile = GreedyProfile(x, spec)
    sig, gam = profile.sequence("sigma"), profile.sequence("gamma")
    last = sig.support_size if max_k is None else min(max_k, sig.support_size)
    sigmas, gammas = sig.powers(last), gam.powers(last)
    root = _root_strings(sig.p, sigmas, gammas)
    lines = [f"{k},{s},{g},{root[s]},{root[g]}" for k, (s, g) in enumerate(zip(sigmas, gammas))]
    emit_report(("k,sigma_sq,gamma_sq,sigma_float,gamma_float", lines), path=args.out)
    return 0


def cmd_demfun(args) -> int:
    from .democracy import demfun_table

    spec = _load_space(args.space)
    table = demfun_table(spec, args.max_N)
    # h_l repeats each value over long runs of N: root each distinct power once.
    root = _root_strings(spec.outer_p, table.hl_powers, table.hr_powers)
    lines = [
        f"{n},{hl},{hr},{root[hl]},{root[hr]}"
        for n, (hl, hr) in enumerate(zip(table.hl_powers, table.hr_powers))
    ]
    emit_report(("N,hl_sq,hr_sq,hl_float,hr_float", lines), path=args.out)
    return 0


def cmd_doubling_scan(args) -> int:
    from .democracy import doubling_scan

    spec = _load_schedule_space(args.space)
    rows = doubling_scan(spec.schedule, args.k)  # a row that breaks the theorem raises
    root = _root_strings(spec.outer_p, [r.ratio_sq for r in rows], [r.bound_sq for r in rows])
    lines = [
        f"{r.k},{r.n_k},{r.n_k1},{r.a_k1},{r.hl_n_power},{r.hl_2n_power},{r.ratio_sq},"
        f"{r.bound_sq},{root[r.ratio_sq]},{root[r.bound_sq]},{r.bound_holds},{r.upper_equality}"
        for r in rows
    ]
    emit_report(("k,n_k,n_k1,a_k1,hl_n_sq,hl_2n_sq,ratio_sq,bound_sq,ratio_float,bound_float,"
                 "bound_holds,upper_equality", lines), path=args.out)
    return 0


def cmd_prefix_check(args) -> int:
    from .democracy import prefix_norm_conjecture_check

    spec = _load_schedule_space(args.space)
    report = prefix_norm_conjecture_check(spec.schedule, range(1, args.max_N + 1))
    lines = [f"{n},{pre},{hl},{pre == hl}" for n, pre, hl in report.rows]
    emit_report(("N,prefix_sq,hl_sq,equal", lines), path=args.out)
    if report.counterexamples:
        sys.stderr.write(
            "prefix-check: counterexamples at N = "
            + ", ".join(str(n) for n in report.counterexamples)
            + "\n"
        )
    return 0


def cmd_cghm(args) -> int:
    from .cghm import HFunction, cghm_construct

    h_l = HFunction.from_json(_load_json(args.hl))
    h_r = HFunction.from_json(_load_json(args.hr))
    seqs = cghm_construct(
        h_r, h_l, args.c_doubling, args.alpha, args.count, args.probe_limit
    )
    report = asdict(seqs)
    report["r"] = report.pop("r_of_mu")
    emit_report(report, path=args.out)
    if seqs.checks and not seqs.all_checks_pass():
        _diag("cghm: a verification check failed")
        return 1
    return 0


def cmd_check71(args) -> int:
    from .cghm import HFunction, condition71_check

    h_l = HFunction.from_json(_load_json(args.hl))
    h_r = HFunction.from_json(_load_json(args.hr))
    obj = _load_json(args.pairs)
    if isinstance(obj, dict) and "k" in obj and "n" in obj:
        ks, ns = json_shape(obj["k"], list), json_shape(obj["n"], list)
        if len(ks) != len(ns):
            raise ValueError(f"k has {len(ks)} entries and n has {len(ns)}: they must pair up")
        rows = zip(ks, ns)
    else:
        listed = obj.get("pairs") if isinstance(obj, dict) else obj
        if not isinstance(listed, list):
            raise ValueError('expected pairs as [[k, n], ...], {"pairs": [[k, n], ...]} '
                             'or {"k": [...], "n": [...]}')
        rows = (json_shape(row, list, 2) for row in listed)
    pairs = [(json_int(k), json_int(n)) for k, n in rows]
    report = condition71_check(h_r, h_l, pairs, args.C, args.alpha)
    emit_report(asdict(report), path=args.out)
    return 0 if report.all_pass else 1


def cmd_xs_experiment(args) -> int:
    from .approx import ApproxParams, optimality_experiment

    spec = _load_schedule_space(args.schedule)
    params = [
        ApproxParams(alpha, q)
        for alpha in _parse_float_list(args.alpha)
        for q in _parse_float_list(args.q)
    ]
    runs = optimality_experiment(spec.schedule, args.s, params)
    blob = {"runs": [run.to_json() for run in runs]}
    keys = [{k: out[k] for k in ("s", "alpha", "q")} for out in blob["runs"]]
    bad = [key for key, run in zip(keys, runs)
           if not all(map(math.isfinite, run.a + run.g + run.ratio_bounds))]
    if bad:
        _diag("xs-experiment: a non-finite A, G, ratio or bracket is not JSON compliant", runs=bad)
        return 1
    emit_report(blob, path=args.out)
    failed = [{**key, "failed": sorted(k for k, ok in run.checks.items() if not ok)}
              for key, run in zip(keys, runs) if not all(run.checks.values())]
    if failed:
        _diag("xs-experiment: a check failed", runs=failed)
        return 1
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    known = [number for number, *_ in acceptance.CRITERIA]
    unknown = sorted(set(args.only or ()).difference(known))
    if unknown:  # a subset that names no criterion would pass having checked nothing
        build_parser().error(f"verify --only: no criterion {', '.join(map(str, unknown))} "
                             f"(the criteria are {', '.join(map(str, known))})")
    results = acceptance.run_all(only=args.only)
    return 0 if all(r.passed for r in results) else 1


def _diag(message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": message, **extra}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def _global_flags(suppress: bool) -> argparse.ArgumentParser:
    """Shared flags, accepted both before and after the subcommand.

    The subcommand copies use SUPPRESS defaults so they never clobber a
    value parsed at the top level (argparse applies subparser defaults to
    a fresh namespace); the top level and the subcommands get separate
    holder instances, so they share no action objects.
    """
    holder = argparse.ArgumentParser(add_help=False)
    holder.add_argument(
        "--out", default=argparse.SUPPRESS if suppress else None,
        help="output path (default stdout)",
    )
    return holder


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    ``parse_args`` keeps no state between calls."""
    common = _global_flags(suppress=True)
    parser = argparse.ArgumentParser(
        prog="greedylab",
        description="Greedy-approximation quantities for block sequence spaces.",
        parents=[_global_flags(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norm", help="space norm of a vector", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--vector", required=True)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("sigma", help="best N-term error", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--vector", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("gamma", help="worst-case greedy error", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--vector", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("errors", help="full sigma/gamma table as CSV", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--vector", required=True)
    sp.add_argument("--max-k", type=int, default=None)
    sp.set_defaults(func=cmd_errors)

    sp = sub.add_parser("demfun", help="democracy-function table as CSV", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--max-N", type=int, required=True)
    sp.set_defaults(func=cmd_demfun)

    sp = sub.add_parser("doubling-scan", help="h_l doubling ratios per block", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--k", type=_parse_int_list, required=True,
                    help="block indices, e.g. 1..3 or 1,2")
    sp.set_defaults(func=cmd_doubling_scan)

    sp = sub.add_parser("prefix-check", help="h_l vs first-N-unit-vectors norm", parents=[common])
    sp.add_argument("--space", required=True)
    sp.add_argument("--max-N", type=int, required=True)
    sp.set_defaults(func=cmd_prefix_check)

    sp = sub.add_parser("cghm", help="construct 7.1 witness sequences", parents=[common])
    sp.add_argument("--hl", required=True)
    sp.add_argument("--hr", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--c-doubling", type=float, default=2.0)
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--probe-limit", type=int, default=2**63)
    sp.set_defaults(func=cmd_cghm)

    sp = sub.add_parser("check71", help="check the 7.1 condition on pairs", parents=[common])
    sp.add_argument("--hl", required=True)
    sp.add_argument("--hr", required=True)
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.set_defaults(func=cmd_check71)

    sp = sub.add_parser("xs-experiment", help="optimality-ratio experiment", parents=[common])
    sp.add_argument("--schedule", required=True)
    sp.add_argument("--s", type=_parse_int_list, required=True, help="comma list, e.g. 2,3,4 or 2..6")
    sp.add_argument("--alpha", required=True, help="comma list of alphas")
    sp.add_argument("--q", required=True, help="comma list, inf allowed")
    sp.add_argument("--mode", choices=("exact", "bounds"), default="exact",
                    help="ignored: every report carries A, G and ratio as float values "
                         "and A_bounds, G_bounds and ratio_bounds, the same sums "
                         "bracketed by their certified error")
    sp.set_defaults(func=cmd_xs_experiment)

    sp = sub.add_parser("verify", help="run the acceptance suite", parents=[common])
    sp.add_argument("--only", type=_parse_int_list, default=None,
                    help="criteria subset, e.g. 1,3,7")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact powers print in full (3.10.7+)
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GreedyLabError, ValueError, ArithmeticError, OSError, KeyError) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
