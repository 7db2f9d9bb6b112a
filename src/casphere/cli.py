"""Command-line driver for sphere-sphere Casimir calculations.

Verbs: `energy` (single point), `sweep` (distance grid), `series`
(large-distance coefficients), `pfa` (proximity-force baseline),
`signmap` (force-sign classification over Robin impedances), and
`nbody` (N collinear spheres).

Each option is declared once, in `OPTIONS`, and each verb in `VERBS`
lists exactly the options it reads.  The parser, `--help` and the
configuration echoed at the head of every output all come from that
list, so a verb refuses an option it would not read (argparse's
"unrecognized arguments", exit 2).

Outputs are CSV tables or JSON records.  Every output starts with the
parsed configuration, so a file identifies the run that produced it;
reruns with the same configuration are bitwise identical apart from the
timestamp line, for any worker count.  Energies are reported
dimensionless, in units of hbar c / R_1.  `E_over_PFA` is nan (null in
JSON) where E_PFA underflows to 0.

Exit codes: 0 success, 2 configuration error, 3 numerical domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from .energy import (
    REAL_SCALAR,
    DomainError,
    FieldKind,
    Geometry,
    QuadSpec,
    casimir_energy,
    casimir_energy_nbody,
    suggest_l_max,
)
from .tmatrix import (
    Dielectric,
    Dirichlet,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
    is_em_law,
    is_scalar_law,
)

SCHEMA_VERSION = 1

SWEEP_COLUMNS = ("d_over_R", "L_over_R", "E", "E_over_PFA", "l_max_used",
                 "delta", "series_value", "abs_err_estimate")
PFA_COLUMNS = ("d_over_R", "L_over_R", "amplitude_case", "E_pfa")
SERIES_COLUMNS = ("index", "coefficient", "exact", "certified")
NBODY_COLUMNS = ("n_spheres", "E", "l_max_used", "delta", "abs_err_estimate")
SIGNMAP_COLUMNS = ("zeta1", "zeta2", "sign_small_L", "sign_large_L",
                   "n_zeros", "zeros", "summary")

_BC_HELP = ("dirichlet | neumann | robin:<zeta> | dielectric:<eps>,<mu> | "
            "pec  (robin:0 and robin:inf canonicalize to dirichlet/neumann)")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def parse_law(text):
    """Boundary/material law from its command-line spelling."""
    t = text.strip().lower()
    if t == "dirichlet":
        return Dirichlet()
    if t == "neumann":
        return Neumann()
    if t == "pec":
        return PerfectConductor()
    if t.startswith("robin:"):
        raw = t.split(":", 1)[1]
        try:
            zeta = math.inf if raw in ("inf", "infinity") else float(raw)
        except ValueError:
            zeta = math.nan
        if zeta != zeta:
            raise argparse.ArgumentTypeError(
                "robin impedance %r is not a number" % raw)
        if zeta == 0.0:
            return Dirichlet()
        if math.isinf(zeta) and zeta > 0:
            return Neumann()
        return Robin(zeta)
    if t.startswith("dielectric:"):
        raw = t.split(":", 1)[1]
        try:
            eps, mu = (float(x) for x in raw.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "dielectric spec %r is not <eps>,<mu>" % raw)
        return Dielectric(eps, mu)
    raise argparse.ArgumentTypeError(
        "unrecognized boundary/material %r; expected %s" % (text, _BC_HELP))


def parse_grid(text):
    """Distance grid from 'start:stop:count[:log]'."""
    parts = text.split(":")
    if len(parts) == 4 and parts[3] == "log":
        spaced = np.geomspace
    elif len(parts) == 3:
        spaced = np.linspace
    else:
        raise argparse.ArgumentTypeError(
            "grid %r is not start:stop:count[:log]" % text)
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("bad grid numbers in %r" % text)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(
            "grid bounds must be finite, got %r" % text)
    if spaced is np.geomspace and start <= 0.0:
        raise argparse.ArgumentTypeError("log grid requires start > 0")
    if count < 0:
        raise argparse.ArgumentTypeError("grid count must be >= 0")
    if count == 0:
        return np.empty(0)
    if count == 1:
        return np.array([start])
    return spaced(start, stop, count)


def parse_lmax(text):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--lmax must be an integer or auto")
    if value < 0:
        raise argparse.ArgumentTypeError("--lmax must be >= 0")
    return value


def parse_workers(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "--workers must be an integer >= 1, got %r" % text)
    return value


def _parse_zetas(text):
    """(raw label, law) for each comma-separated Robin impedance."""
    return [(raw.strip(), parse_law("robin:" + raw))
            for raw in text.split(",")]


def _parse_sphere(text):
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "sphere %r is not <center>:<radius>:<bc>" % text)
    try:
        center, radius = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("bad sphere numbers in %r" % text)
    return center, radius, parse_law(parts[2])


def _check_field(field, laws):
    """Refuse laws the field does not scatter: the scalar fields take
    Robin-family laws, em takes materials."""
    scalar = field != "em"
    if not all(map(is_scalar_law if scalar else is_em_law, laws)):
        kind = "Robin-family" if scalar else "material (dielectric/pec)"
        raise ValueError("field %r requires %s laws on every sphere"
                         % (field, kind))


# Every option, declared once: flag -> (key in the echoed config, text of
# the parsed value there, argparse keywords).  The output path and worker
# count have no key: they are not echoed, so that equivalent runs produce
# identical headers.
OPTIONS = {
    "--field": ("field", str, dict(
        choices=("scalar-real", "scalar-complex", "em"),
        default="scalar-real")),
    "--bc1": ("bc1", str, dict(help=_BC_HELP)),
    "--bc2": ("bc2", str, dict(help="law of sphere 2 (defaults to --bc1)")),
    "--zetas1": ("zetas1", str, dict(
        required=True,
        help="comma list of zeta values for sphere 1 (inf ok)")),
    "--zetas2": ("zetas2", str, dict(
        required=True, help="comma list of zeta values for sphere 2")),
    "--sphere": ("spheres", ";".join, dict(
        action="append", required=True, metavar="CENTER:RADIUS:BC",
        help="repeat once per sphere, centers increasing")),
    "--radius": ("radius", repr, dict(
        type=float, default=1.0, help="common sphere radius R")),
    "--d": ("d", repr, dict(
        type=float, required=True, help="center-to-center distance")),
    "--d-grid": ("d_grid", str, dict(
        required=True, help="start:stop:count[:log] center distances")),
    "--lmax": ("lmax", lambda v: "auto" if v is None else str(v), dict(
        type=parse_lmax, default="auto",
        help="multipole truncation, integer or auto")),
    "--qtol": ("qtol", repr, dict(
        type=float, default=1e-9, help="quadrature relative tolerance")),
    "--format": ("format", str, dict(
        choices=("csv", "json"),
        help="csv for tables, json for records (verb-dependent default)")),
    "--out": (None, None, dict(
        default="-", help="output path, - for stdout (default)")),
    "--workers": (None, None, dict(
        type=parse_workers, default=1,
        help="worker processes for grid dispatch")),
}


def _resolve_bcs(args):
    """(law1, law2) of a pair verb.  The default spellings are written
    back to `args`, so the echoed config names the laws used."""
    if args.bc1 is None:
        args.bc1 = "pec" if args.field == "em" else "dirichlet"
    if args.bc2 is None:
        args.bc2 = args.bc1
    laws = parse_law(args.bc1), parse_law(args.bc2)
    # run law validation (e.g. negative Robin) before any computation
    for law in laws:
        SphereSpec(args.radius, law)
    _check_field(args.field, laws)
    return laws


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _utc_stamp():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if value == value else "nan"
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and value != value:
        return None
    return value


def _write_csv(out, verb, config, columns, rows, extra_lines):
    out.write("# casphere %s schema=%d\n" % (verb, SCHEMA_VERSION))
    for key, text in config:
        out.write("# config: %s=%s\n" % (key, text))
    for line in extra_lines:
        out.write("# %s\n" % line)
    out.write("# timestamp: %s\n" % _utc_stamp())
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])


def _write_json(out, verb, config, columns, rows, record):
    doc = {"tool": "casphere", "schema": SCHEMA_VERSION,
           "verb": verb, "config": dict(config),
           "timestamp": _utc_stamp()}
    if record is not None:
        doc["result"] = record
    else:
        doc["columns"] = list(columns)
        doc["rows"] = [{c: _jsonable(r[c]) for c in columns} for r in rows]
    json.dump(doc, out, indent=2)
    out.write("\n")


def _emit(args, columns, rows, record=None, extra_lines=()):
    """Write a table, or in JSON the record when there is one, headed by
    the verb's echoed config."""
    config = _config(args)
    path = args.out
    stream = sys.stdout if path in (None, "-") else \
        open(path, "w", encoding="utf-8", newline="")
    try:
        if args.format == "csv":
            _write_csv(stream, args.verb, config, columns, rows, extra_lines)
        else:
            _write_json(stream, args.verb, config, columns, rows, record)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


# ---------------------------------------------------------------------------
# shared computations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _series_for(field, law1, law2):
    """Large-distance series for the pair, or None when not available."""
    # the series engine and the PFA/sign tools are imported where they
    # are used, so a CLI start that needs neither never loads them
    from .asymptotics import (expand_em_dielectric, expand_em_metal,
                              expand_scalar)
    unit1, unit2 = SphereSpec(1.0, law1), SphereSpec(1.0, law2)
    try:
        if field in ("scalar-real", "scalar-complex"):
            return expand_scalar(unit1, unit2, p_max=4, l_cut=3)
        if isinstance(law1, PerfectConductor) and \
                isinstance(law2, PerfectConductor):
            return expand_em_metal()
        if isinstance(law1, Dielectric) and law1 == law2:
            return expand_em_dielectric(unit1, unit2)
    except ValueError:
        return None
    return None


def _field_factor(field):
    """2.0 for the complex scalar, twice the real-scalar energy at equal
    blocks, else 1.0: the ratio of the field prefactors."""
    return FieldKind(field).prefactor / REAL_SCALAR.prefactor


def _series_value(field, law1, law2, radius, d):
    from .asymptotics import eval_series
    series = _series_for(field, law1, law2)
    if series is None:
        return math.nan
    return eval_series(series, radius, d).value * radius \
        * _field_factor(field)


def _pfa_dimensionless(field, law1, law2, radius, d):
    """(case label, E_PFA in hbar c / R units)."""
    from .pfa_sign import amplitude_case, pfa_energy, pfa_energy_em
    if field == "em":
        return "em", pfa_energy_em(radius, d) * radius
    case = amplitude_case(law1, law2)
    return case, pfa_energy(radius, d, case) * radius * _field_factor(field)


def _estimate_cells(est, l_max):
    """The cells every energy row shares.  The error estimate is the
    quadrature error plus the extrapolation error, when there is one."""
    err = est.quad_error
    if est.extrap_error == est.extrap_error:
        err += est.extrap_error
    return {"E": est.value, "l_max_used": l_max, "delta": est.delta_fit,
            "abs_err_estimate": err}


def _record(columns, row, est, **extra):
    """JSON record of one energy: its row's cells, `extra`, then the
    l_max history."""
    record = {c: _jsonable(row[c]) for c in columns}
    record.update(extra, history=[[l, e] for l, e in est.history])
    return record


def _checked_grid(text, radius):
    """`parse_grid`, refusing any distance at or below contact."""
    grid = parse_grid(text)
    for d in grid:
        if d <= 2.0 * radius:
            raise ValueError("grid touches contact: d=%g <= 2R=%g"
                             % (d, 2.0 * radius))
    return grid


def _point_row(field, law1, law2, radius, d, lmax_arg, qtol):
    """(sweep row, estimate, (PFA case, E_PFA)) at one distance."""
    geometry = Geometry.pair(SphereSpec(radius, law1),
                             SphereSpec(radius, law2), d)
    quad = QuadSpec(rel_tol=qtol)
    l_max = suggest_l_max(geometry, field) if lmax_arg is None else lmax_arg
    est = casimir_energy(geometry, field, l_max, quad)
    pfa = _pfa_dimensionless(field, law1, law2, radius, d)
    # E_PFA underflows to 0 at extreme scales, where the ratio means nothing
    row = {
        "d_over_R": d / radius,
        "L_over_R": (d - 2.0 * radius) / radius,
        "E_over_PFA": est.value / pfa[1] if pfa[1] else math.nan,
        "series_value": _series_value(field, law1, law2, radius, d),
        **_estimate_cells(est, l_max),
    }
    return row, est, pfa


def _sweep_task(task):
    return _point_row(*task)[0]


def _map_tasks(fn, tasks, workers):
    """[fn(t) for t in tasks], in task order, over `workers` processes."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported only here: the pool machinery costs every CLI start
    from concurrent.futures import ProcessPoolExecutor
    # the fork start method launches every worker up front, so never
    # ask for more than there are tasks
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_energy(args):
    law1, law2 = _resolve_bcs(args)
    row, est, (case, e_pfa) = _point_row(args.field, law1, law2,
                                         args.radius, args.d, args.lmax,
                                         args.qtol)
    record = _record(SWEEP_COLUMNS, row, est, pfa_case=case, E_pfa=e_pfa,
                     quad_error=est.quad_error,
                     extrap_error=_jsonable(est.extrap_error))
    return _emit(args, SWEEP_COLUMNS, [row], record)


def cmd_sweep(args):
    law1, law2 = _resolve_bcs(args)
    grid = _checked_grid(args.d_grid, args.radius)
    tasks = [(args.field, law1, law2, args.radius, float(d),
              args.lmax, args.qtol) for d in grid]
    rows = _map_tasks(_sweep_task, tasks, args.workers)
    return _emit(args, SWEEP_COLUMNS, rows)


def cmd_series(args):
    from .asymptotics import eval_series
    law1, law2 = _resolve_bcs(args)
    series = _series_for(args.field, law1, law2)
    if series is None:
        raise ValueError("no large-distance series for this pair "
                         "(needs equal radii and matching material type)")
    rows = [{"index": j,
             "coefficient": float(series.coeffs[j]),
             "exact": str(series.coeffs[j]),
             "certified": series.certified[j]}
            for j in sorted(series.coeffs)]
    extra = ["series: " + " ".join(
        "%s=%s" % (key, getattr(series, key))
        for key in ("form", "prefactor_power", "provenance"))]
    evaluation = None
    if args.d is not None:
        sval = eval_series(series, args.radius, args.d)
        evaluation = {"d": args.d, "value": sval.value * args.radius
                      * _field_factor(args.field),
                      "n_terms": len(sval.terms),
                      "first_growing": sval.first_growing}
        extra.append("eval: d=%s value=%s n_terms=%d first_growing=%s"
                     % (repr(args.d), repr(evaluation["value"]),
                        evaluation["n_terms"], evaluation["first_growing"]))
    record = {"form": series.form,
              "prefactor_power": series.prefactor_power,
              "provenance": series.provenance,
              "coefficients": {str(r["index"]): {"value": r["coefficient"],
                                                 "exact": r["exact"],
                                                 "certified": r["certified"]}
                               for r in rows},
              "eval": evaluation}
    return _emit(args, SERIES_COLUMNS, rows, record, extra)


def cmd_pfa(args):
    law1, law2 = _resolve_bcs(args)
    case, e_pfa = _pfa_dimensionless(args.field, law1, law2,
                                     args.radius, args.d)
    row = {"d_over_R": args.d / args.radius,
           "L_over_R": (args.d - 2.0 * args.radius) / args.radius,
           "amplitude_case": case, "E_pfa": e_pfa}
    return _emit(args, PFA_COLUMNS, [row], dict(row))


def _signmap_lmax(radius, d, lmax_arg):
    if lmax_arg is not None:
        return lmax_arg
    return max(8, min(28, int(math.ceil(14.0 * radius / (d - 2.0 * radius)))))


def _signmap_row(task):
    from .pfa_sign import (RatioCurve, amplitude_case, find_zero_force,
                           pfa_energy, pfa_force_sign, series_force_sign)
    (raw1, law1, raw2, law2, radius, grid, lmax_arg, qtol) = task
    s1, s2 = SphereSpec(radius, law1), SphereSpec(radius, law2)
    small = pfa_force_sign(law1, law2)
    large = series_force_sign(s1, s2)
    row = {"zeta1": raw1, "zeta2": raw2,
           "sign_small_L": small, "sign_large_L": large,
           "n_zeros": "", "zeros": ""}
    if grid is None:
        row["summary"] = ("%s for all L" % small) if small == large \
            else "%s => %s" % (small, large)
        return row
    case = amplitude_case(law1, law2)
    quad = QuadSpec(rel_tol=qtol)
    ratios = []
    for d in grid:
        l_max = _signmap_lmax(radius, float(d), lmax_arg)
        est = casimir_energy(Geometry.pair(s1, s2, float(d)), "scalar-real",
                             l_max, quad)
        ratios.append(est.value / (radius * pfa_energy(radius, float(d),
                                                       case)))
    curve = RatioCurve(d=tuple(float(x) for x in grid), ratio=tuple(ratios),
                       pfa_sign=1 if case == "unlike" else -1,
                       parameters=(raw1, raw2))
    profile = find_zero_force(curve, radius)
    marks = {"attractive": "-", "repulsive": "+"}
    row["n_zeros"] = len(profile.zeros)
    row["zeros"] = "|".join("%.6g:%s" % (d0, direction)
                            for d0, direction in profile.zeros)
    row["summary"] = " => ".join(marks[s] for _, s in profile.regimes)
    return row


def cmd_signmap(args):
    pairs1 = _parse_zetas(args.zetas1)
    pairs2 = _parse_zetas(args.zetas2)
    for _, law in pairs1 + pairs2:
        SphereSpec(args.radius, law)  # radius and negative-zeta rejection
    grid = None
    if args.d_grid is not None:
        from .pfa_sign import _check_samples
        grid = _checked_grid(args.d_grid, args.radius)
        if grid.size == 0:
            grid = None
        else:
            # refused before any cell computes an energy on it
            _check_samples(grid, "--d-grid")
    tasks = []
    for raw1, law1 in pairs1:
        for raw2, law2 in pairs2:
            tasks.append((raw1, law1, raw2, law2, args.radius,
                          None if grid is None else tuple(grid),
                          args.lmax, args.qtol))
    # rows without a grid are classification only, not worth a process
    rows = _map_tasks(_signmap_row, tasks,
                      1 if grid is None else args.workers)
    return _emit(args, SIGNMAP_COLUMNS, rows)


def cmd_nbody(args):
    spheres = [_parse_sphere(s) for s in args.sphere]
    if len(spheres) < 2:
        raise ValueError("need at least two --sphere arguments")
    geometry = Geometry(tuple(SphereSpec(r, law) for _, r, law in spheres),
                        tuple(c for c, _, _ in spheres))
    _check_field(args.field, [law for _, _, law in spheres])
    quad = QuadSpec(rel_tol=args.qtol)
    l_max = args.lmax
    if l_max is None:
        l_max = suggest_l_max(geometry, args.field)
    est = casimir_energy_nbody(geometry, args.field, l_max, quad)
    row = {"n_spheres": geometry.n_spheres, **_estimate_cells(est, l_max)}
    return _emit(args, NBODY_COLUMNS, [row], _record(NBODY_COLUMNS, row, est))


# The options every verb takes, after its own; --workers dispatches grid
# points, which only sweep and signmap have today.
_EVERY_VERB = ("--format", "--out", "--workers")
_PAIR = ("--field", "--bc1", "--bc2", "--radius")

# Each verb: (function, default format, help, the options it reads in the
# order they are echoed).  A (flag, help) entry is optional for that verb:
# it defaults to None, which is not echoed.
VERBS = {
    "energy": (cmd_energy, "json", "single-point energy record",
               _PAIR + ("--d", "--lmax", "--qtol")),
    "sweep": (cmd_sweep, "csv", "distance sweep table",
              _PAIR + ("--d-grid", "--lmax", "--qtol")),
    "series": (cmd_series, "csv", "large-distance series coefficients",
               _PAIR + (("--d", "optionally evaluate the series at this "
                                "distance"),)),
    "pfa": (cmd_pfa, "json", "proximity-force baseline energy",
            _PAIR + ("--d",)),
    "signmap": (cmd_signmap, "csv",
                "force-sign classification over (zeta1, zeta2)",
                ("--zetas1", "--zetas2", "--radius",
                 ("--d-grid", "optional start:stop:count[:log] distances "
                              "for the zero-force search"),
                 "--lmax", "--qtol")),
    "nbody": (cmd_nbody, "json", "N collinear spheres",
              ("--field", "--sphere", "--lmax", "--qtol")),
}


def _options_of(verb):
    """(flag, help when optional for `verb`, else None) of each option
    the verb reads, in echo order."""
    for entry in VERBS[verb][3] + _EVERY_VERB:
        yield (entry, None) if isinstance(entry, str) else entry


def _config(args):
    """(key, text) pairs echoed at the head of every output."""
    config = []
    for flag, optional in _options_of(args.verb):
        key, show, _ = OPTIONS[flag]
        value = getattr(args, flag[2:].replace("-", "_"))
        if key is not None and not (optional and value is None):
            config.append((key, show(value)))
    return config


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="casphere",
        description="Casimir energies and forces between spheres "
                    "(multipole scattering determinants)")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, fmt, text, _) in VERBS.items():
        p = sub.add_parser(verb, help=text)
        for flag, optional in _options_of(verb):
            kwargs = OPTIONS[flag][2]
            if optional:
                kwargs = dict(kwargs, required=False, help=optional)
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, format=fmt)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print("casphere: numerical domain error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print("casphere: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
