"""Command-line front end.

Subcommands: validate, rho, grid, oracle, compare, cylinder, extrema,
rigidity, offdiag, hol.  Bundle data comes from a JSON config
(--config); numeric knobs are flags, and each subcommand accepts only
the flags it reads (``_COMMANDS``), unabbreviated.  Output goes to
stdout or --out.  All floats print with 17 significant digits and CSV
layouts are fixed, so reruns on the same inputs are byte-identical.
Exit codes: 0 on success; 1 on a ValidationError, usage errors included
(an unknown or abbreviated flag, a malformed value, no subcommand) and
an unwritable --out; 2 on a NumericError.  ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

import numpy as np

from . import cylinder as cyl
from .config import load_bundle
from .errors import NumericError, ValidationError, check_count
from .extrema import compare_bundles, find_extrema, localization_sweep
from .holonomy import hol_closed, hol_ode
from .kernel import DEFAULT_EPS, offdiag_bound, rho_diag, rho_grid
from .lattice import Semicharacter, TorusPoint, validate
from .theta import build_basis, build_gram, rho_oracle


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_list(text, count, what, kind=float):
    try:
        parts = [kind(p) for p in text.split(",")]
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated {kind.__name__} list")
    if len(parts) != count:
        raise ValidationError(f"{what} needs {count} entries, got {len(parts)}")
    return parts


def _point(args, bundle, flag="point"):
    raw = getattr(args, flag)
    if raw is None:
        raise ValidationError(f"--{flag} is required for this subcommand")
    coords = _parse_list(raw, 2 * bundle.torus.n, f"--{flag}")
    return TorusPoint.from_coords(bundle.torus, np.array(coords))


def _power(args, bundle):
    """The --k override, or else the config's power; the library checks it."""
    return bundle.k if args.k is None else args.k


@contextlib.contextmanager
def _output(args):
    """The --out file, closed on any exit, or stdout; a path that cannot
    be written is a ValidationError."""
    if not args.out:
        yield sys.stdout
        return
    try:
        with open(args.out, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write --out: {exc}") from None


def _emit(args, lines):
    with _output(args) as fh:
        for line in lines:
            print(line, file=fh)


def _csv_rows(args, header, rows):
    with _output(args) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, float) else str(x) for x in row])


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
    with _output(args) as fh:
        field.write_csv(fh)
    return 0


def _cmd_oracle(args):
    bundle = load_bundle(args.config)
    if bundle.torus.n != 1:
        raise ValidationError("the oracle subcommand needs an n = 1 config")
    k = _power(args, bundle)
    check_count(args.res, 1, "--res")
    tau = complex(bundle.torus.basis[1, 0] / bundle.torus.basis[0, 0])
    d = bundle.torus.pfaffian_abs()
    basis = build_basis(tau, d, bundle.chi, k)
    gram = build_gram(basis)
    rows = []
    for i in range(args.res):
        for j in range(args.res):
            p = TorusPoint.from_coords(bundle.torus, np.array([i / args.res, j / args.res]))
            exact = rho_diag(bundle.torus, bundle.chi, k, p, eps=args.eps).value
            orc = rho_oracle(basis, gram, p)
            rows.append((i / args.res, j / args.res, exact, orc, abs(exact - orc)))
    _csv_rows(args, ["x1", "x2", "rho_exact", "rho_oracle", "absdiff"], rows)
    return 0


def _cmd_compare(args):
    bundle = load_bundle(args.config)
    if args.chi2 is None:
        raise ValidationError("--chi2 phases are required for compare")
    phases = _parse_list(args.chi2, 2 * bundle.torus.n, "--chi2")
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
    check_count(args.res, 1, "--res")
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
    coords = _parse_list(args.vector, 2 * bundle.torus.n, "--vector", int)
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


_FLAGS = {
    "config": dict(help="JSON bundle config"),
    "out": dict(help="output file (default stdout)"),
    "k": dict(type=int, default=None, help="power override"),
    "eps": dict(type=float, default=DEFAULT_EPS, help="series tail target"),
    "res": dict(type=int, default=32, help="grid resolution"),
    "radius": dict(type=float, default=None, help="override the series truncation radius"),
    "point": dict(help="comma-separated lattice coordinates"),
    "point2": dict(help="second point coordinates"),
    "vector": dict(help="comma-separated integer loop coordinates"),
    "steps": dict(type=int, default=None,
                  help="transport RK4 steps (default: scaled to the loop)"),
    "chi2": dict(help="second semicharacter phases"),
    "eta": dict(type=float, default=1.0),
    "alpha": dict(type=float, default=0.0),
    "tmin": dict(type=float, default=-1.0),
    "tmax": dict(type=float, default=1.0),
    "kmin": dict(type=int, default=2),
    "kmax": dict(type=int, default=6),
}

# subcommand -> (handler, the flags it reads)
_COMMANDS = {
    "validate": (_cmd_validate, ("config", "out")),
    "rho": (_cmd_rho, ("config", "out", "k", "eps", "radius", "point")),
    "grid": (_cmd_grid, ("config", "out", "k", "eps", "res", "radius")),
    "oracle": (_cmd_oracle, ("config", "out", "k", "eps", "res")),
    "compare": (_cmd_compare, ("config", "out", "k", "eps", "res", "chi2")),
    "cylinder": (_cmd_cylinder, ("out", "k", "res", "eta", "alpha", "tmin", "tmax")),
    "extrema": (_cmd_extrema, ("config", "out", "k", "res")),
    "rigidity": (_cmd_rigidity, ("config", "out", "res", "kmin", "kmax")),
    "offdiag": (_cmd_offdiag, ("config", "out", "k", "eps", "radius", "point", "point2")),
    "hol": (_cmd_hol, ("config", "out", "k", "point", "vector", "steps")),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValidationError: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"ValidationError: {message}\n")


def build_parser():
    parser = _Parser(prog="toruskernel", description="Bergman densities on polarized tori",
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, flags = _COMMANDS[args.command]
    try:
        if "config" in flags and not args.config:
            raise ValidationError("--config is required for this subcommand")
        return handler(args)
    except (ValidationError, NumericError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2


if __name__ == "__main__":
    sys.exit(main())
