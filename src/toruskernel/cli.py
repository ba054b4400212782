"""Command-line front end.

Subcommands: validate, rho, grid, oracle, compare, cylinder, extrema,
rigidity, offdiag, hol.  Bundle data comes from a JSON config
(--config); numeric knobs are flags.  Output goes to stdout or --out.
All floats print with 17 significant digits and CSV layouts are fixed,
so reruns on the same inputs are byte-identical.  Exit codes: 0 on
success, 1 on validation/config errors, 2 on numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import cylinder as cyl
from .config import load_bundle
from .errors import NumericError, ValidationError
from .extrema import compare_bundles, find_extrema, localization_sweep
from .holonomy import hol_closed, hol_ode
from .kernel import (_check_power, _check_resolution, integral_check, offdiag_bound, rho_diag,
                     rho_grid)
from .lattice import Semicharacter, TorusPoint, validate
from .theta import build_basis, build_gram, rho_oracle


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_floats(text, count, what):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated float list")
    if len(parts) != count:
        raise ValidationError(f"{what} needs {count} entries, got {len(parts)}")
    return parts


def _parse_ints(text, count, what):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated integer list")
    if len(parts) != count:
        raise ValidationError(f"{what} needs {count} entries, got {len(parts)}")
    return parts


def _point(args, bundle, flag="point"):
    raw = getattr(args, flag, None)
    if raw is None:
        raise ValidationError(f"--{flag.replace('_', '')} is required for this subcommand")
    coords = _parse_floats(raw, 2 * bundle.torus.n, f"--{flag}")
    return TorusPoint.from_coords(bundle.torus, np.array(coords))


def _power(args, bundle):
    """The --k override, validated, or else the config's power."""
    if args.k is None:
        return bundle.k
    _check_power(args.k)
    return args.k


def _out_stream(args):
    if args.out:
        return open(args.out, "w", newline="")
    return None


def _emit(args, lines):
    fh = _out_stream(args)
    target = fh or sys.stdout
    for line in lines:
        print(line, file=target)
    if fh:
        fh.close()


def _csv_rows(args, header, rows):
    fh = _out_stream(args)
    target = fh or sys.stdout
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) if isinstance(x, float) else str(x) for x in row])
    if fh:
        fh.close()


def _cmd_validate(args):
    bundle = load_bundle(args.config)
    report = validate(bundle.torus)
    _emit(args, report.lines())
    return 0


def _cmd_rho(args):
    bundle = load_bundle(args.config)
    k = _power(args, bundle)
    res = rho_diag(bundle.torus, bundle.chi, k, _point(args, bundle), eps=args.eps,
                   radius=args.radius)
    _emit(args, [
        f"value = {_fmt(res.value)}",
        f"radius = {_fmt(res.radius)}",
        f"tail = {_fmt(res.tail)}",
        f"density_halfwidth = {_fmt(res.density_halfwidth(bundle.torus.n, k))}",
        f"terms = {res.terms}",
    ])
    return 0


def _cmd_grid(args):
    bundle = load_bundle(args.config)
    k = _power(args, bundle)
    field = rho_grid(bundle.torus, bundle.chi, k, args.res, eps=args.eps, radius=args.radius)
    fh = _out_stream(args)
    field.write_csv(fh or sys.stdout)
    if fh:
        fh.close()
    return 0


def _cmd_oracle(args):
    bundle = load_bundle(args.config)
    if bundle.torus.n != 1:
        raise ValidationError("the oracle subcommand needs an n = 1 config")
    k = _power(args, bundle)
    _check_resolution(args.res, 1)
    tau = complex(bundle.torus.basis[1, 0] / bundle.torus.basis[0, 0])
    d = bundle.torus.pfaffian_abs()
    basis = build_basis(tau, d, bundle.chi, k)
    gram = build_gram(basis)
    rows = []
    for i in range(args.res):
        for j in range(args.res):
            p = TorusPoint.from_coords(bundle.torus, np.array([i / args.res, j / args.res]))
            exact = rho_diag(bundle.torus, bundle.chi, k, p, eps=args.eps).value
            orc = rho_oracle(basis, gram, TorusPoint.from_coords(basis.torus,
                                                                 np.array(p.coords)))
            rows.append((i / args.res, j / args.res, exact, orc, abs(exact - orc)))
    _csv_rows(args, ["x1", "x2", "rho_exact", "rho_oracle", "absdiff"], rows)
    return 0


def _cmd_compare(args):
    bundle = load_bundle(args.config)
    if args.chi2 is None:
        raise ValidationError("--chi2 phases are required for compare")
    phases = _parse_floats(args.chi2, 2 * bundle.torus.n, "--chi2")
    k = _power(args, bundle)
    cmp = compare_bundles(bundle.torus, bundle.chi, Semicharacter(tuple(phases)), k,
                          resolution=args.res, eps=args.eps)
    lines = [
        f"verdict = {cmp.verdict}",
        f"max_diff = {_fmt(cmp.max_diff)}",
        f"threshold = {_fmt(cmp.threshold)}",
    ]
    if cmp.witness is not None:
        lines.append("witness = " + ",".join(_fmt(c) for c in cmp.witness.coords))
    if cmp.recovered is not None:
        for i, (pa, pb) in enumerate(cmp.recovered):
            lines.append(f"recovered_basis_{i + 1} = {_fmt(pa)} {_fmt(pb)}")
    _emit(args, lines)
    return 0


def _cmd_cylinder(args):
    _check_resolution(args.res, 1)
    ts = np.linspace(args.tmin, args.tmax, args.res)
    rows = []
    for t in ts:
        params = cyl.CylinderParams(eta=args.eta, alpha=args.alpha,
                                    k=1 if args.k is None else args.k,
                                    t=float(t))
        a = cyl.rho_cyl_direct(params)
        b = cyl.rho_cyl_poisson(params)
        rows.append((float(t), a, b, abs(a - b)))
    _csv_rows(args, ["t", "rho_direct", "rho_poisson", "absdiff"], rows)
    return 0


def _cmd_extrema(args):
    bundle = load_bundle(args.config)
    k = _power(args, bundle)
    mx, mn = find_extrema(bundle.torus, bundle.chi, k, resolution=args.res)
    lines = []
    for rep in (mx, mn):
        lines.append(f"{rep.kind}_value = {_fmt(rep.value)}")
        lines.append(f"{rep.kind}_location = " + ",".join(_fmt(c) for c in rep.location.coords))
        lines.append(f"{rep.kind}_distance_to_prediction = {_fmt(rep.distance)}")
        lines.append(f"{rep.kind}_multiplicity = {len(rep.tied_locations)}")
    _emit(args, lines)
    return 0


def _cmd_rigidity(args):
    bundle = load_bundle(args.config)
    if args.kmax < args.kmin:
        raise ValidationError(f"--kmax must be at least --kmin, got {args.kmax} < {args.kmin}")
    rows = localization_sweep(bundle.torus, bundle.chi, range(args.kmin, args.kmax + 1),
                              resolution=args.res)
    _csv_rows(args, ["k", "dist", "bound", "ratio"],
              [(r.k, r.dist, r.bound, r.ratio) for r in rows])
    return 0


def _cmd_offdiag(args):
    bundle = load_bundle(args.config)
    k = _power(args, bundle)
    x = _point(args, bundle, "point")
    y = _point(args, bundle, "point2")
    res = offdiag_bound(bundle.torus, k, x, y, eps=args.eps, radius=args.radius)
    _emit(args, [
        f"bound = {_fmt(res.value)}",
        f"radius = {_fmt(res.radius)}",
        f"tail = {_fmt(res.tail)}",
        f"terms = {res.terms}",
    ])
    return 0


def _cmd_hol(args):
    bundle = load_bundle(args.config)
    k = _power(args, bundle)
    p = _point(args, bundle)
    if args.vector is None:
        raise ValidationError("--vector coordinates are required for hol")
    coords = _parse_ints(args.vector, 2 * bundle.torus.n, "--vector")
    closed = hol_closed(bundle.torus, bundle.chi, k, p, coords)
    ode = hol_ode(bundle.torus, bundle.chi, k, p, coords, steps=args.steps)
    _emit(args, [
        f"closed_value = {_fmt(closed.value.real)} {_fmt(closed.value.imag)}",
        f"closed_alpha = {_fmt(closed.alpha)}",
        f"ode_value = {_fmt(ode.value.real)} {_fmt(ode.value.imag)}",
        f"ode_alpha = {_fmt(ode.alpha)}",
        f"disagreement = {_fmt(abs(closed.value - ode.value))}",
    ])
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "rho": _cmd_rho,
    "grid": _cmd_grid,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "cylinder": _cmd_cylinder,
    "extrema": _cmd_extrema,
    "rigidity": _cmd_rigidity,
    "offdiag": _cmd_offdiag,
    "hol": _cmd_hol,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="toruskernel",
                                     description="Bergman densities on polarized tori")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON bundle config")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--k", type=int, default=None, help="power override")
        p.add_argument("--eps", type=float, default=1e-10, help="series tail target")
        p.add_argument("--res", type=int, default=32, help="grid resolution")
        p.add_argument("--radius", type=float, default=None,
                       help="override the series truncation radius")
        p.add_argument("--point", help="comma-separated lattice coordinates")
        if name == "offdiag":
            p.add_argument("--point2", help="second point coordinates")
        if name == "hol":
            p.add_argument("--vector", help="comma-separated integer loop coordinates")
            p.add_argument("--steps", type=int, default=None,
                           help="transport RK4 steps (default: scaled to the loop)")
        if name == "compare":
            p.add_argument("--chi2", help="second semicharacter phases")
        if name == "cylinder":
            p.add_argument("--eta", type=float, default=1.0)
            p.add_argument("--alpha", type=float, default=0.0)
            p.add_argument("--tmin", type=float, default=-1.0)
            p.add_argument("--tmax", type=float, default=1.0)
        if name == "rigidity":
            p.add_argument("--kmin", type=int, default=2)
            p.add_argument("--kmax", type=int, default=6)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    needs_config = args.command != "cylinder"
    try:
        if needs_config and not args.config:
            raise ValidationError("--config is required for this subcommand")
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
