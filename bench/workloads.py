"""The benchmark's workloads, their items, cache fill and accuracy gate.

A pass runs every item of a workload once, in an order drawn from the
seeded generator.  Energy items are checked against the references
pinned from the seed code in ``references.json``; the l=32 integrand
probes, whose kappa the seed picks, must be finite and negative; the
sweep's CSV must parse into one row per grid point, each within the
row's own error of its reference.

The items are smaller than the ROADMAP baselines (lower l_max, fewer
grid points) so that one pass takes a few seconds and a run of the
benchmark's length holds several passes; each keeps the mechanism it
was chosen for.
"""

import csv
import math

WORKLOADS = ("scalar-sweep", "em-pair", "nbody")

# l = 32 probe: EM PEC-PEC integrand nodes at d/R = 2.5, the 132-row
# determinant regime, without the cost of a full l = 32 integral
PROBE_L = 32
PROBE_D = 2.5
PROBE_KAPPA = (0.05, 10.0)
PROBES_PER_PASS = 4

SWEEP_BCS = ("--field", "scalar-real", "--bc1", "dirichlet",
             "--bc2", "robin:10")
# two points on either side of the sign change of E/E_PFA: one accepted
# and one rejected extrapolation fit, auto l_max 17 and 14
SWEEP_POINTS = 2
SWEEP_ARGV = ("sweep",) + SWEEP_BCS + ("--d-grid", "4:8:%d" % SWEEP_POINTS,
                                       "--lmax", "auto", "--format", "csv")
# order of the probe run suggest_l_max makes before each sweep point
SUGGEST_PROBE_L = 10

# the same D-D pair through the N-body and the two-sphere path
N2_ITEMS = ("dd_d3_l8_nbody", "dd_d3_l8_pair")


def _pair(law1, law2, d):
    import casphere
    return casphere.Geometry.pair(casphere.SphereSpec(1.0, law1),
                                  casphere.SphereSpec(1.0, law2), d)


def _triple(law):
    import casphere
    sph = casphere.SphereSpec(1.0, law)
    return casphere.Geometry((sph, sph, sph), (0.0, 3.0, 6.0))


class Item:
    """One unit of work of a pass; `call()` runs it.

    kind is "energy" (an EnergyEstimate checked against a pinned
    reference), "probe" (one integrand value) or "sweep" (the CLI's CSV
    rows, one solve per row).  geometry is a two-sphere geometry whose
    integrand at (field, l_max) touches the caches the item uses.
    """

    def __init__(self, name, kind, call, field, l_max, geometry, solves=1):
        self.name = name
        self.kind = kind
        self.call = call
        self.field = field
        self.l_max = l_max
        self.geometry = geometry
        self.solves = solves


def _energy_item(name, fn_name, geometry, field, l_max):
    import casphere

    def call():
        # looked up per call, so a tracing wrapper installed later is used
        return getattr(casphere, fn_name)(geometry, field, l_max)
    pair = geometry if geometry.n_spheres == 2 else casphere.Geometry(
        geometry.spheres[:2], geometry.centers[:2])
    return Item(name, "energy", call, field, l_max, pair)


def _probe_item(index, kappa):
    import casphere
    pec = casphere.PerfectConductor()
    geometry = _pair(pec, pec, PROBE_D)

    def call():
        from casphere import energy
        return energy.integrand(geometry, "em", kappa, PROBE_L)
    return Item("probe%d" % index, "probe", call, "em", PROBE_L, geometry)


def _sweep_item(out_path):
    import casphere

    def call():
        from casphere import cli
        code = cli.main(list(SWEEP_ARGV) + ["--out", str(out_path)])
        if code != 0:
            raise RuntimeError("casphere sweep exited with %r" % (code,))
        with open(out_path, encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        return list(csv.DictReader(lines))
    geometry = _pair(casphere.Dirichlet(), casphere.Robin(10.0), 4.0)
    return Item("sweep", "sweep", call, "scalar-real", None, geometry,
                solves=SWEEP_POINTS)


def build(workload, rng, scratch):
    """Items of `workload`; the probes' kappa come from `rng`."""
    import casphere
    if workload == "scalar-sweep":
        return [_sweep_item(scratch / "sweep.csv")]
    if workload == "em-pair":
        pec = casphere.PerfectConductor()
        diel = casphere.Dielectric(4.0, 1.0)
        items = [
            _energy_item("pec_d3_l8", "casimir_energy",
                         _pair(pec, pec, 3.0), "em", 8),
            _energy_item("diel4_d4_l4", "casimir_energy",
                         _pair(diel, diel, 4.0), "em", 4),
        ]
        return items + [_probe_item(i, rng.uniform(*PROBE_KAPPA))
                        for i in range(PROBES_PER_PASS)]
    if workload == "nbody":
        dirichlet = casphere.Dirichlet()
        pec = casphere.PerfectConductor()
        dd = _pair(dirichlet, dirichlet, 3.0)
        return [
            _energy_item("dir3_l6", "casimir_energy_nbody",
                         _triple(dirichlet), "scalar-real", 6),
            _energy_item("pec3_l1", "casimir_energy_nbody", _triple(pec),
                         "em", 1),
            _energy_item(N2_ITEMS[0], "casimir_energy_nbody", dd,
                         "scalar-real", 8),
            _energy_item(N2_ITEMS[1], "casimir_energy", dd, "scalar-real", 8),
        ]
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------------------
# set-up: fill the caches the timed passes use
# ---------------------------------------------------------------------------

def cache_keys(items, references):
    """Distinct (field, l_max) of the items, with a geometry for each.

    Sweep orders come from the pinned rows (auto l_max) plus the order of
    suggest_l_max's probe.
    """
    keys = {}
    for item in items:
        if item.kind == "sweep":
            orders = [row["l_max_used"]
                      for row in references[item.name]["rows"]]
            orders.append(SUGGEST_PROBE_L)
        elif item.kind == "energy":
            orders = [references[item.name]["l_max_used"]]
        else:
            orders = [item.l_max]
        for l_max in orders:
            keys.setdefault((item.field, l_max), item.geometry)
    return keys


def fill_caches(items, references, scratch):
    """One cold integrand node per (field, l_max), plus the CLI series.

    Fills the 3j/W tensors, the EM recoupling weights and, for the sweep,
    the CLI's large-distance series cache.
    """
    from casphere import cli, energy
    for (field, l_max), geometry in sorted(
            cache_keys(items, references).items(), key=lambda kv: kv[0]):
        energy.integrand(geometry, field, 1.0, l_max)
    if any(item.kind == "sweep" for item in items):
        code = cli.main(["series"] + list(SWEEP_BCS)
                        + ["--format", "json",
                           "--out", str(scratch / "series.json")])
        if code != 0:
            raise RuntimeError("casphere series exited with %r" % (code,))


# ---------------------------------------------------------------------------
# accuracy gate
# ---------------------------------------------------------------------------

def _finite(x):
    return isinstance(x, float) and math.isfinite(x)


def _allowed(ref, own_error):
    """max(1e-12 |E_ref|, the run's own error)."""
    return max(1e-12 * abs(ref), own_error if _finite(own_error) else 0.0)


def energy_record(est):
    return {"E": est.value, "l_max_used": est.l_max,
            "quad_error": est.quad_error, "extrap_error": est.extrap_error}


def check(item, result, references):
    """Failure messages for one item's result, one per failed solve."""
    if item.kind == "probe":
        if not (_finite(result) and result < 0.0):
            return ["%s: integrand %r is not finite and negative"
                    % (item.name, result)]
        return []
    ref = references.get(item.name)
    if ref is None:
        return ["%s: no pinned reference" % item.name] * item.solves
    if item.kind == "energy":
        rec = energy_record(result)
        err = rec["quad_error"] + (rec["extrap_error"]
                                   if _finite(rec["extrap_error"]) else 0.0)
        tol = _allowed(ref["E"], err)
        if rec["l_max_used"] != ref["l_max_used"] or not _finite(rec["E"]) \
                or abs(rec["E"] - ref["E"]) > tol:
            return ["%s: E=%r l_max=%r vs pinned E=%r l_max=%r (allowed %.3g)"
                    % (item.name, rec["E"], rec["l_max_used"], ref["E"],
                       ref["l_max_used"], tol)]
        return []
    rows, pins = result, ref["rows"]
    if len(rows) != len(pins):
        return ["%s: CSV has %d rows, expected %d"
                % (item.name, len(rows), len(pins))] * item.solves
    fails = []
    for row, pin in zip(rows, pins):
        try:
            d = float(row["d_over_R"])
            e = float(row["E"])
            l_used = int(row["l_max_used"])
            tol = _allowed(pin["E"], float(row["abs_err_estimate"]))
        except (KeyError, TypeError, ValueError) as exc:
            fails.append("%s: unparsable row %r (%s)" % (item.name, row, exc))
            continue
        if d != pin["d_over_R"] or l_used != pin["l_max_used"] \
                or not _finite(e) or abs(e - pin["E"]) > tol:
            fails.append("%s: d/R=%r E=%r l_max=%r vs pinned d/R=%r E=%r "
                         "l_max=%r (allowed %.3g)"
                         % (item.name, d, e, l_used, pin["d_over_R"],
                            pin["E"], pin["l_max_used"], tol))
    return fails


def record(item, result):
    """What pin.py stores for an item."""
    if item.kind == "energy":
        return energy_record(result)
    return {"rows": [{"d_over_R": float(r["d_over_R"]), "E": float(r["E"]),
                      "l_max_used": int(r["l_max_used"]),
                      "abs_err_estimate": float(r["abs_err_estimate"])}
                     for r in result]}
