"""Command-line front end.

Subcommands:

* ``betti``   - exact Betti number of a finite cover, with the independent
                character-method cross-check for abelian deck groups.
* ``density`` - spectral density estimate as CSV (``lambda,F``), optionally
                with a decay-rate estimate appended.
* ``bounds``  - evaluate a bound regime (gap / ns / sublog / raw) and report
                every constant plus SATISFIED or VIOLATED.
* ``verify``  - run the randomized cross-check suites.

Exit codes: 0 success, 1 user/validation error, 2 cross-check mismatch,
3 theorem violation (an implementation falsifier).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import List, Optional

import numpy as np

from .caps import Caps
from .covers import CoverInstance
from .document import parse_complex, parse_subgroup
from .errors import CrossCheckMismatch, DocumentError, L2GrowthError
from .exact import check_bytes
from .groups import FreeAbelian, LatticeSubgroup, quotient, short_length
from .pattern import betti_by_characters
from .spectral import (betti_bound_general, density_by_quotients, density_zn,
                       estimate_ns, gap_bound, ns_bound, sublog_bound)
from .verify import SUITES

# bytes a --grid point costs: float64 grid, values and temporaries, and its
# CSV line as a str and in the joined text
_GRID_POINT_BYTES = 160


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract reserves 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="l2growth",
                     description="Betti numbers of finite covers and spectral growth bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="Betti number of a finite cover")
    p_betti.add_argument("complex", help="path to a complex document (JSON)")
    p_betti.add_argument("--subgroup", required=True,
                         help="subgroup spec: rows '2 0; 0 3' or 'mod m'")
    p_betti.add_argument("--dim", type=int, required=True)

    p_density = sub.add_parser("density", help="spectral density estimate as CSV")
    p_density.add_argument("complex")
    p_density.add_argument("--dim", type=int, required=True)
    p_density.add_argument("--samples", type=int, default=65536,
                           help="character sample count (>= 1000)")
    p_density.add_argument("--grid", default=None, help="lo:hi:step for the CSV grid")
    p_density.add_argument("--seed", type=int, default=0)
    p_density.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_density.add_argument("--ns", action="store_true",
                           help="append a decay-rate estimate row")
    p_density.add_argument("--quotients", default=None,
                           help="comma-separated cyclic cover orders to use instead "
                                "of character quadrature (deck group Z only)")

    p_bounds = sub.add_parser("bounds", help="evaluate a bound regime")
    p_bounds.add_argument("complex")
    p_bounds.add_argument("--subgroup", default=None,
                          help="single subgroup spec (or use --family)")
    p_bounds.add_argument("--dim", type=int, required=True)
    p_bounds.add_argument("--regime", required=True,
                          choices=["gap", "ns", "sublog", "raw"])
    p_bounds.add_argument("--lambda0", type=float, default=None,
                          help="gap regime: verified spectral floor")
    p_bounds.add_argument("--beta", type=float, default=None,
                          help="ns regime: density decay exponent")
    p_bounds.add_argument("--c-density", type=float, default=None, dest="c_density",
                          help="ns regime: density constant (fitted from the "
                               "density when omitted, reported as fitted)")
    p_bounds.add_argument("--z", type=float, default=0.25,
                          help="raw regime: comparison window")
    p_bounds.add_argument("--samples", type=int, default=65536)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--family", default=None,
                          help="pipe-separated subgroup specs; emits CSV "
                               "index,short,betti,bound over the family")
    p_bounds.add_argument("--out", default=None,
                          help="CSV output path for --family (default stdout)")

    p_verify = sub.add_parser("verify", help="run randomized cross-check suites")
    p_verify.add_argument("--suite", default="all",
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=None)

    return parser


def _parse_with_dim(args):
    """The complex at ``args.complex``, once ``--dim`` is checked against it."""
    cx = parse_complex(args.complex)
    if not 0 <= args.dim <= cx.top_dim:
        raise DocumentError(f"--dim must be in [0, {cx.top_dim}]")
    return cx


def _write_lines(out: Optional[str], lines: List[str]) -> None:
    """Write the lines to the file ``out``, or to stdout when it is None."""
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_betti(args, caps: Caps) -> int:
    cx = _parse_with_dim(args)
    sub = parse_subgroup(cx.group, args.subgroup)
    quot = quotient(cx.group, sub, caps)
    b = CoverInstance(cx, quot, caps).betti(args.dim)
    s = short_length(cx.group, sub, caps=caps)
    print(f"b={b} index={quot.order} short={s}")
    if isinstance(cx.group, FreeAbelian):
        b_char, _report = betti_by_characters(cx, quot, args.dim, caps,
                                              cross_check=False)
        agree = b_char == b
        print(f"characters: b={b_char} agreement={'ok' if agree else 'MISMATCH'}")
        if not agree:
            return 2
    return 0


def _parse_grid(spec: Optional[str], k: float) -> np.ndarray:
    if spec is None:
        return np.linspace(0.0, k, 401)
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise DocumentError(f"bad --grid {spec!r}; expected lo:hi:step")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise DocumentError(f"bad --grid {spec!r}")
    points = float(np.ceil((hi + step * 0.5 - lo) / step))  # as many as np.arange makes
    check_bytes(points * _GRID_POINT_BYTES, f"--grid {spec!r} with {points:.4g} points")
    return np.arange(lo, hi + step * 0.5, step)


def _cmd_density(args, caps: Caps) -> int:
    cx = _parse_with_dim(args)
    if args.quotients:
        if not (isinstance(cx.group, FreeAbelian) and cx.group.rank == 1):
            raise DocumentError("--quotients expects a rank-one deck group")
        try:
            orders = [int(x) for x in args.quotients.split(",") if x.strip()]
        except ValueError:
            raise DocumentError(f"bad --quotients {args.quotients!r}")
        quots = [quotient(cx.group, LatticeSubgroup([[i]]), caps) for i in orders]
        density = density_by_quotients(cx, args.dim, quots)
    else:
        density = density_zn(cx, args.dim, sample_count=args.samples, seed=args.seed)
    grid = _parse_grid(args.grid, density.K)
    values = density.to_grid(grid)
    lines = ["lambda,F"]
    for lam, val in zip(grid, values):
        lines.append(f"{lam:.10g},{val:.10g}")
    if args.ns:
        est = estimate_ns(density)
        lines.append("alpha_hat,gap" if est.gap_detected
                     else f"alpha_hat,{est.alpha_hat:.10g}")
    _write_lines(args.out, lines)
    return 0


def _one_bound(args, cx, quot, density, caps: Caps):
    if args.regime == "gap":
        if args.lambda0 is None:
            raise DocumentError("gap regime requires --lambda0")
        return gap_bound(cx, quot, args.dim, args.lambda0, density=density,
                         caps=caps)
    if args.regime == "ns":
        if args.beta is None:
            raise DocumentError("ns regime requires --beta")
        return ns_bound(cx, quot, args.dim, args.beta, args.c_density, density,
                        caps=caps)
    if args.regime == "sublog":
        return sublog_bound(cx, quot, args.dim, density, caps=caps)
    return betti_bound_general(cx, quot, args.dim, density, args.z, caps=caps)


def _cmd_bounds(args, caps: Caps) -> int:
    cx = _parse_with_dim(args)
    density = density_zn(cx, args.dim, sample_count=args.samples, seed=args.seed)
    if not args.family and args.subgroup is None:
        raise DocumentError("bounds needs --subgroup or --family")
    specs = args.family.split("|") if args.family else [args.subgroup]
    reports = [_one_bound(args, cx, quotient(cx.group, parse_subgroup(cx.group, spec), caps),
                          density, caps) for spec in specs]
    if args.family:
        _write_lines(args.out, ["index,short,betti,bound"] + [
            f"{r.constants['index']},{r.constants['short']},{r.betti},{r.bound:.10g}"
            for r in reports])
    else:
        print(" ".join(reports[0].lines()))
    return 0 if all(r.satisfied for r in reports) else 3


def _cmd_verify(args, caps: Caps) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    kwargs = {} if args.seed is None else {"seed": args.seed}
    ok = True
    for name in names:
        result = SUITES[name](caps=caps, **kwargs)
        print(result.summary())
        for note in result.notes:
            print(f"  {note}")
        for failure in result.failures[:10]:
            print(f"  FAIL: {failure}")
        ok = ok and result.ok
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "betti": _cmd_betti,
        "density": _cmd_density,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, Caps.from_env())
    except CrossCheckMismatch as e:
        print(f"cross-check mismatch: {e}", file=sys.stderr)
        return 2
    except (L2GrowthError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
