"""Tests for the command-line driver: schemas, values, exit codes."""

import argparse
import concurrent.futures
import json
import math
import warnings

import pytest

from casphere import cli, pfa_sign
from casphere.asymptotics import eval_series, expand_em_metal
from casphere.energy import DomainError, Geometry, suggest_l_max
from casphere.tmatrix import Dielectric, Dirichlet, Neumann, Robin, SphereSpec


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def run_csv(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    return out.read_text()


def csv_body(text):
    """Non-comment lines: header row plus data rows."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def test_parse_law():
    assert cli.parse_law("dirichlet") == Dirichlet()
    assert cli.parse_law("robin:0") == Dirichlet()
    assert cli.parse_law("robin:inf") == Neumann()
    assert cli.parse_law("robin:2.5") == Robin(2.5)
    assert cli.parse_law("dielectric:2,1.5") == Dielectric(2.0, 1.5)
    for bad in ("bogus", "robin:x", "dielectric:2"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_law(bad)


def test_parse_law_rejects_nan_robin(capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="not a number"):
        cli.parse_law("robin:nan")
    # rejected while parsing, before any energy is attempted
    assert cli.main(["energy", "--field", "scalar-real", "--bc1", "robin:nan",
                     "--bc2", "dirichlet", "--d", "3", "--lmax", "4"]) == 2
    assert capsys.readouterr().err == \
        "casphere: robin impedance 'nan' is not a number\n"


def test_energy_rejects_infinite_dielectric(capsys):
    # refused by the sphere spec, before any Bessel chain sees the infinity
    assert cli.main(["energy", "--field", "em", "--bc1", "dielectric:inf,1",
                     "--d", "3", "--lmax", "4"]) == 2
    assert "finite" in capsys.readouterr().err


def test_energy_rejects_huge_dielectric(capsys):
    # finite, but its Bessel argument n kappa R is refused, not computed
    assert cli.main(["energy", "--field", "em", "--bc1", "dielectric:1e300,1",
                     "--d", "3", "--lmax", "2"]) == 2
    assert "bessel argument" in capsys.readouterr().err


def test_energy_rejects_infinite_distance(capsys):
    # refused by the geometry, before any kappa node is t / (2 inf) = 0
    assert cli.main(["energy", "--bc1", "dirichlet", "--d", "inf",
                     "--lmax", "4"]) == 2
    assert capsys.readouterr().err == \
        "casphere: center 1 must be finite, got inf\n"


def test_energy_rejects_an_infinite_radius(capsys):
    # refused by the sphere spec, not as an overlap with a gap of -inf or
    # a grid point below 2R = inf
    for argv in (["energy", "--d", "3"], ["sweep", "--d-grid", "4:8:2"],
                 ["pfa", "--d", "3"],
                 ["signmap", "--zetas1", "0", "--zetas2", "1",
                  "--d-grid", "4:8:8"]):
        assert cli.main(argv + ["--radius", "inf"]) == 2
        assert capsys.readouterr().err == \
            "casphere: radius must be finite and > 0, got inf\n"


def test_energy_rejects_an_infinite_tolerance(capsys):
    # refused like nan, 0 and -1, not run on the initial partition alone
    for qtol in ("inf", "nan", "0", "-1"):
        assert cli.main(["energy", "--qtol", qtol, "--d", "3",
                         "--lmax", "4"]) == 2
        assert capsys.readouterr().err == \
            "casphere: quad tolerance must be finite and > 0, got %r\n" \
            % float(qtol)


def test_parse_grid():
    lin = cli.parse_grid("4:6:3")
    assert list(lin) == [4.0, 5.0, 6.0]
    log = cli.parse_grid("1:100:3:log")
    assert log == pytest.approx([1.0, 10.0, 100.0])
    assert cli.parse_grid("4:6:0").size == 0
    assert list(cli.parse_grid("4:6:1")) == [4.0]
    for bad in ("4:6", "4:6:3:geo", "4:6:-1", "0:6:3:log", "0:6:1:log",
                "-5:6:1:log"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_grid(bad)


@pytest.mark.parametrize("grid", ["4:inf:2", "nan:8:2", "inf:8:1",
                                  "4:-inf:0", "1:inf:3:log"])
def test_grid_rejects_non_finite_bounds(grid, capsys):
    # refused by the grid parser, before numpy spaces them or a geometry
    # sees a non-finite center
    for argv in (["sweep", "--d-grid", grid],
                 ["signmap", "--zetas1", "0", "--zetas2", "1",
                  "--d-grid", grid]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        assert capsys.readouterr().err == \
            "casphere: grid bounds must be finite, got %r\n" % grid


# ---------------------------------------------------------------------------
# energy / pfa records
# ---------------------------------------------------------------------------

def test_energy_record_dirichlet(tmp_path):
    doc = run_json(tmp_path, [
        "energy", "--field", "scalar-real", "--bc1", "dirichlet",
        "--d", "2.5", "--lmax", "12"])
    assert doc["verb"] == "energy"
    assert doc["config"]["bc1"] == "dirichlet"
    assert doc["config"]["bc2"] == "dirichlet"  # mirrors bc1
    assert doc["config"]["lmax"] == "12"
    res = doc["result"]
    assert res["E"] < 0.0
    assert res["pfa_case"] == "like"
    assert len(res["history"]) == 13
    assert res["E_over_PFA"] == pytest.approx(res["E"] / res["E_pfa"])


def test_energy_em_metal_far(tmp_path):
    doc = run_json(tmp_path, [
        "energy", "--field", "em", "--bc1", "pec", "--d", "10.0"])
    res = doc["result"]
    three = eval_series(expand_em_metal(), 1.0, 10.0, n_terms=3).value
    assert res["E"] == pytest.approx(three, rel=0.02)
    assert res["series_value"] == pytest.approx(res["E"], rel=0.02)


def test_energy_vacuum_dielectric_is_zero(tmp_path):
    doc = run_json(tmp_path, [
        "energy", "--field", "em", "--bc1", "dielectric:1,1",
        "--d", "4.0", "--lmax", "3"])
    assert doc["result"]["E"] == 0.0


def test_energy_csv_row(tmp_path):
    text = run_csv(tmp_path, [
        "energy", "--bc1", "neumann", "--d", "6.0", "--lmax", "8",
        "--format", "csv"])
    header, row = csv_body(text)
    assert header == ",".join(cli.SWEEP_COLUMNS)
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["E"]) < 0.0
    assert cells["l_max_used"] == "8"


def test_pfa_record(tmp_path):
    doc = run_json(tmp_path, [
        "pfa", "--bc1", "dirichlet", "--bc2", "neumann", "--d", "3.0"])
    res = doc["result"]
    assert res["amplitude_case"] == "unlike"
    assert res["E_pfa"] == pytest.approx(7.0 * math.pi ** 3 / 23040.0,
                                         rel=1e-12)
    em = run_json(tmp_path, ["pfa", "--field", "em", "--d", "3.0"])
    assert em["result"]["amplitude_case"] == "em"
    assert em["result"]["E_pfa"] == pytest.approx(-math.pi ** 3 / 1440.0,
                                                  rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["pfa", "--d", "inf"],
    ["pfa", "--field", "em", "--d", "inf"],
    ["series", "--bc1", "dirichlet", "--d", "inf", "--format", "json"],
    ["series", "--field", "em", "--bc1", "pec", "--d", "inf",
     "--format", "json"],
])
def test_an_infinite_distance_is_refused(argv, tmp_path, capsys):
    # the record would carry d = Infinity, which is not JSON, next to an
    # energy of 0
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "finite d" in err or "d must be finite" in err


def _numbers(value):
    """Every number in a JSON value, nested containers included."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


@pytest.mark.parametrize("argv", [
    ["pfa", "--d", "1e300"],
    ["energy", "--d", "1e300", "--lmax", "4"],
    ["energy", "--field", "em", "--bc1", "pec", "--d", "1e60", "--lmax", "2"],
    ["series", "--field", "em", "--bc1", "pec", "--d", "1e100",
     "--format", "json"],
    ["energy", "--d", "3", "--lmax", "4", "--radius", "1e-200"],
], ids=" ".join)
def test_extreme_scales_give_finite_records(argv, tmp_path):
    # the squared gap, d**7 in the EM series and E/E_PFA leave the float
    # range here: each ended in a traceback instead of a record
    res = run_json(tmp_path, argv)["result"]
    assert all(math.isfinite(x) for x in _numbers(res))
    if "E_over_PFA" in res:
        assert (res["E_over_PFA"] is None) == (res["E_pfa"] == 0.0)


def test_e_over_pfa_is_nan_where_e_pfa_underflows(tmp_path):
    # E_PFA in units of hbar c / R is about 1e-402 here, which is 0.0
    argv = ["energy", "--d", "3", "--lmax", "4", "--radius", "1e-200"]
    assert run_json(tmp_path, argv)["result"]["E_over_PFA"] is None
    header, row = csv_body(run_csv(tmp_path, argv + ["--format", "csv"]))
    assert dict(zip(header.split(","), row.split(",")))["E_over_PFA"] == "nan"


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------

def test_sweep_schema_and_values(tmp_path):
    text = run_csv(tmp_path, [
        "sweep", "--bc1", "dirichlet", "--d-grid", "4:6:3", "--lmax", "8"])
    body = csv_body(text)
    assert body[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(body) == 4
    for line in body[1:]:
        cells = dict(zip(body[0].split(","), line.split(",")))
        assert float(cells["E"]) < 0.0
        assert 0.0 < float(cells["E_over_PFA"]) < 1.0
        # series agrees to a few percent this far out
        assert float(cells["series_value"]) == pytest.approx(
            float(cells["E"]), rel=0.05)
    assert [line.split(",")[0] for line in body[1:]] == ["4.0", "5.0", "6.0"]


def test_sweep_json_columns_and_rows(tmp_path):
    argv = ["sweep", "--bc1", "dirichlet", "--d-grid", "4:6:3", "--lmax", "8"]
    doc = run_json(tmp_path, argv + ["--format", "json"])
    assert doc["verb"] == "sweep"
    assert doc["columns"] == list(cli.SWEEP_COLUMNS)
    # the rows of the csv table, one object per row keyed by column
    body = csv_body(run_csv(tmp_path, argv))
    assert len(doc["rows"]) == len(body) - 1 == 3
    for row, line in zip(doc["rows"], body[1:]):
        assert list(row) == list(cli.SWEEP_COLUMNS)
        assert [float(row[c]) for c in cli.SWEEP_COLUMNS] == \
            [float(cell) for cell in line.split(",")]


def test_sweep_without_series_writes_null(tmp_path):
    # no large-distance series for PEC against a dielectric
    doc = run_json(tmp_path, [
        "sweep", "--field", "em", "--bc1", "pec", "--bc2", "dielectric:4,1",
        "--d-grid", "4:5:2", "--lmax", "3", "--format", "json"])
    assert [row["series_value"] for row in doc["rows"]] == [None, None]
    assert all(row["E"] < 0.0 for row in doc["rows"])


def test_sweep_reproducible_and_worker_independent(tmp_path):
    argv = ["sweep", "--bc1", "dirichlet", "--bc2", "neumann",
            "--d-grid", "5:7:3", "--lmax", "6"]
    strip = lambda t: [ln for ln in t.splitlines()
                       if not ln.startswith("# timestamp")]
    one = run_csv(tmp_path, argv, "a.csv")
    two = run_csv(tmp_path, argv, "b.csv")
    par = run_csv(tmp_path, argv + ["--workers", "3"], "c.csv")
    assert strip(one) == strip(two)
    assert strip(one) == strip(par)


def test_map_tasks_caps_workers_at_tasks(monkeypatch):
    # the pool is asked for no more workers than there are tasks; the
    # recording stand-in maps serially, so no process is started
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert cli._map_tasks(abs, [-1, 2, -3], 64) == [1, 2, 3]
    assert cli._map_tasks(abs, [-1, 2, -3, 4], 2) == [1, 2, 3, 4]
    assert cli._map_tasks(abs, [-5], 64) == [5]
    assert asked == [3, 2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_refused(workers, capsys, monkeypatch):
    # refused while parsing, with the option named, on a verb that never
    # dispatches; no pool may be started either way
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli.main(["pfa", "--d", "3", "--workers", workers]) == 2
    assert "--workers must be an integer >= 1, got %r" % workers \
        in capsys.readouterr().err


def test_sweep_empty_grid(tmp_path):
    text = run_csv(tmp_path, [
        "sweep", "--bc1", "dirichlet", "--d-grid", "4:6:0"])
    body = csv_body(text)
    assert body == [",".join(cli.SWEEP_COLUMNS)]
    assert "# config: d_grid=4:6:0" in text


# (argv, the verb's default format, echoed (key, value) pairs before
# "format"): non-default values, defaults that mirror other options, and
# each optional key present and absent; --out and --workers are never
# echoed
CONFIG_ECHO = [
    (["energy", "--field", "scalar-complex", "--bc1", "robin:2",
      "--radius", "1", "--d", "4", "--lmax", "2", "--qtol", "1e-6",
      "--workers", "2"], "json",
     [("field", "scalar-complex"), ("bc1", "robin:2"), ("bc2", "robin:2"),
      ("radius", "1.0"), ("d", "4.0"), ("lmax", "2"), ("qtol", "1e-06")]),
    (["sweep", "--field", "em", "--d-grid", "4:6:0"], "csv",
     [("field", "em"), ("bc1", "pec"), ("bc2", "pec"), ("radius", "1.0"),
      ("d_grid", "4:6:0"), ("lmax", "auto"), ("qtol", "1e-09")]),
    (["series", "--bc1", "dirichlet", "--bc2", "robin:10"], "csv",
     [("field", "scalar-real"), ("bc1", "dirichlet"), ("bc2", "robin:10"),
      ("radius", "1.0")]),
    (["series", "--field", "em", "--d", "10"], "csv",
     [("field", "em"), ("bc1", "pec"), ("bc2", "pec"), ("radius", "1.0"),
      ("d", "10.0")]),
    (["pfa", "--bc1", "neumann", "--bc2", "dirichlet", "--radius", "0.5",
      "--d", "3", "--workers", "2"], "json",
     [("field", "scalar-real"), ("bc1", "neumann"), ("bc2", "dirichlet"),
      ("radius", "0.5"), ("d", "3.0")]),
    (["signmap", "--zetas1", "0,inf", "--zetas2", "1"], "csv",
     [("zetas1", "0,inf"), ("zetas2", "1"), ("radius", "1.0"),
      ("lmax", "auto"), ("qtol", "1e-09")]),
    (["signmap", "--zetas1", "0", "--zetas2", "inf", "--d-grid", "4:6:0",
      "--lmax", "4", "--qtol", "1e-6"], "csv",
     [("zetas1", "0"), ("zetas2", "inf"), ("radius", "1.0"),
      ("d_grid", "4:6:0"), ("lmax", "4"), ("qtol", "1e-06")]),
    (["nbody", "--sphere", "0:1:dirichlet", "--sphere", "3:1:neumann",
      "--lmax", "2"], "json",
     [("field", "scalar-real"), ("spheres", "0:1:dirichlet;3:1:neumann"),
      ("lmax", "2"), ("qtol", "1e-09")]),
]


@pytest.mark.parametrize("argv, default, pairs", CONFIG_ECHO,
                         ids=["-".join(c[0][:1] + c[0][-2:])
                              for c in CONFIG_ECHO])
def test_config_echo_of_every_verb(argv, default, pairs, tmp_path):
    # the run of the verb's default format omits --format
    for fmt in ("csv", "json"):
        run = argv if fmt == default else argv + ["--format", fmt]
        expected = pairs + [("format", fmt)]
        if fmt == "csv":
            text = run_csv(tmp_path, run)
            assert [ln for ln in text.splitlines()
                    if ln.startswith("# config: ")] == \
                ["# config: %s=%s" % kv for kv in expected]
        else:
            doc = run_json(tmp_path, run)
            assert list(doc["config"].items()) == expected


def test_sweep_rejects_contact():
    assert cli.main(["sweep", "--bc1", "dirichlet",
                     "--d-grid", "2:6:3"]) == 2


# ---------------------------------------------------------------------------
# series tables
# ---------------------------------------------------------------------------

def test_series_scalar_csv(tmp_path):
    text = run_csv(tmp_path, ["series", "--bc1", "dirichlet",
                              "--format", "csv"])
    body = csv_body(text)
    assert body[0] == ",".join(cli.SERIES_COLUMNS)
    rows = {int(r.split(",")[0]): r.split(",") for r in body[1:]}
    assert rows[3][2] == "-1/4"
    assert rows[7][2] == "-29837/2880"
    assert all(r[3] == "true" for r in rows.values())
    assert "# series: form=scalar-b prefactor_power=3 provenance=computed" \
        in text


def test_series_em_eval_json(tmp_path):
    doc = run_json(tmp_path, [
        "series", "--field", "em", "--bc1", "pec", "--d", "10.0",
        "--format", "json"])
    res = doc["result"]
    assert res["form"] == "em-c"
    assert res["provenance"] == "computed"
    assert res["coefficients"]["0"]["exact"] == "143/16"
    assert res["eval"]["first_growing"] == 6
    assert res["eval"]["value"] == pytest.approx(
        eval_series(expand_em_metal(), 1.0, 10.0).value, rel=1e-12)


def test_series_dielectric_is_derived(tmp_path):
    text = run_csv(tmp_path, ["series", "--field", "em",
                              "--bc1", "dielectric:4,1"])
    assert "# series: form=em-c prefactor_power=7 provenance=computed" \
        in text
    body = csv_body(text)
    assert body[0] == ",".join(cli.SERIES_COLUMNS)
    rows = {int(r.split(",")[0]): r.split(",") for r in body[1:]}
    assert {j: r[2] for j, r in rows.items()} == {
        0: "23/16", 1: "0", 2: "7437/880", 3: "245/32"}
    assert all(r[3] == "true" for r in rows.values())


def test_series_unavailable_pair():
    assert cli.main(["series", "--field", "em", "--bc1", "pec",
                     "--bc2", "dielectric:2,1"]) == 2


# ---------------------------------------------------------------------------
# signmap
# ---------------------------------------------------------------------------

def test_signmap_classification_only(tmp_path):
    text = run_csv(tmp_path, [
        "signmap", "--zetas1", "0,inf", "--zetas2", "0,inf"])
    body = csv_body(text)
    assert body[0] == ",".join(cli.SIGNMAP_COLUMNS)
    rows = {tuple(r.split(",")[:2]): r.split(",") for r in body[1:]}
    assert len(rows) == 4
    assert rows[("0", "0")][2:4] == ["-", "-"]
    assert rows[("0", "inf")][2:4] == ["+", "+"]
    assert rows[("inf", "inf")][6] == "- for all L"
    assert rows[("0", "inf")][6] == "+ for all L"


def test_signmap_zero_search(tmp_path):
    # both impedances finite: two force zeros bracketing a repulsive window
    text = run_csv(tmp_path, [
        "signmap", "--zetas1", "10", "--zetas2", "1",
        "--d-grid", "2.8:8.8:13"])
    row = csv_body(text)[1].split(",")
    assert row[2:4] == ["-", "-"]
    assert row[4] == "2"
    assert row[6] == "- => + => -"
    zeros = [float(z.split(":")[0]) for z in row[5].split("|")]
    assert 3.4 < zeros[0] < 4.4
    assert 4.7 < zeros[1] < 5.7


def _count_signmap_energies(monkeypatch, grid):
    """(exit code, calls of cli.casimir_energy) of a signmap on grid."""
    calls = []
    real = cli.casimir_energy

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "casimir_energy", counting)
    return cli.main(["signmap", "--zetas1", "0,10", "--zetas2", "1",
                     "--d-grid", grid]), calls


@pytest.mark.parametrize("grid", ["3:6:1", "3:6:5", "3:6:7"])
def test_signmap_refuses_a_short_grid_before_any_energy(grid, capsys,
                                                         monkeypatch):
    # the zero search needs pfa_sign.MIN_SAMPLES distances: a shorter grid
    # is refused before a single energy of any cell is computed
    assert _count_signmap_energies(monkeypatch, grid) == (2, [])
    assert capsys.readouterr().err == (
        "casphere: --d-grid needs at least %d distances for the zero-force "
        "search, got %d\n" % (pfa_sign.MIN_SAMPLES, int(grid.split(":")[2])))


@pytest.mark.parametrize("grid", ["6:3:8", "3:3:8"])
def test_signmap_refuses_an_unordered_grid_before_any_energy(grid, capsys,
                                                             monkeypatch):
    # descending or repeated distances fail the zero search's rule, taken
    # from pfa_sign, before a single energy of any cell is computed
    assert _count_signmap_energies(monkeypatch, grid) == (2, [])
    assert capsys.readouterr().err == \
        "casphere: --d-grid must be strictly increasing\n"


def test_signmap_rejects_bound_state_zeta():
    assert cli.main(["signmap", "--zetas1", "-0.5", "--zetas2", "0"]) == 2


# ---------------------------------------------------------------------------
# nbody
# ---------------------------------------------------------------------------

def test_nbody_record(tmp_path):
    doc = run_json(tmp_path, [
        "nbody", "--sphere", "0:1:dirichlet", "--sphere", "3:1:dirichlet",
        "--sphere", "6:1:dirichlet", "--lmax", "6"])
    res = doc["result"]
    assert res["n_spheres"] == 3
    assert res["E"] < 0.0
    assert doc["config"]["spheres"] == \
        "0:1:dirichlet;3:1:dirichlet;6:1:dirichlet"


def test_nbody_auto_lmax_is_suggested_for_the_geometry(tmp_path):
    doc = run_json(tmp_path, [
        "nbody", "--sphere", "0:1:dirichlet", "--sphere", "3:1:dirichlet",
        "--sphere", "6.5:1:dirichlet", "--lmax", "auto"])
    dirichlet = SphereSpec(1.0, Dirichlet())
    pair = Geometry.pair(dirichlet, dirichlet, 3.0)
    assert doc["config"]["lmax"] == "auto"
    assert doc["result"]["l_max_used"] == suggest_l_max(pair, "scalar-real")


def test_nbody_csv_writes_nan_for_a_missing_fit(tmp_path):
    # two history points leave no extrapolation fit: nan, as in a sweep
    header, row = csv_body(run_csv(tmp_path, [
        "nbody", "--sphere", "0:1:dirichlet", "--sphere", "3:1:dirichlet",
        "--lmax", "1", "--format", "csv"]))
    assert header == ",".join(cli.NBODY_COLUMNS)
    assert row.split(",")[3] == "nan"


def test_nbody_rejects_overlap():
    assert cli.main(["nbody", "--sphere", "0:1:dirichlet",
                     "--sphere", "1.5:1:dirichlet", "--lmax", "4"]) == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, option", [
    (["series", "--bc1", "dirichlet"], ["--lmax", "4"]),
    (["series", "--bc1", "dirichlet"], ["--qtol", "1e-6"]),
    (["pfa", "--d", "3"], ["--lmax", "4"]),
    (["pfa", "--d", "3"], ["--qtol", "1e-6"]),
    (["signmap", "--zetas1", "0", "--zetas2", "1"], ["--bc1", "dirichlet"]),
    (["signmap", "--zetas1", "0", "--zetas2", "1"], ["--bc2", "neumann"]),
    (["signmap", "--zetas1", "0", "--zetas2", "1"],
     ["--field", "scalar-real"]),
], ids=lambda a: a[0])
def test_options_a_verb_does_not_read_are_refused(argv, option, capsys):
    # each verb takes only the options it reads: these were accepted and
    # then ignored
    assert cli.main(argv + option) == 2
    assert "unrecognized arguments: %s" % " ".join(option) \
        in capsys.readouterr().err


def test_exit_codes(tmp_path, monkeypatch):
    assert cli.main(["energy", "--bc1", "bogus", "--d", "3"]) == 2
    assert cli.main(["energy", "--bc1", "robin:-0.5", "--d", "3"]) == 2
    assert cli.main(["energy", "--field", "em", "--bc1", "dirichlet",
                     "--d", "3"]) == 2
    assert cli.main(["no-such-verb"]) == 2
    assert cli.main([]) == 2

    def boom(*a, **k):
        raise DomainError("determinant lost positivity")
    monkeypatch.setattr(cli, "casimir_energy", boom)
    assert cli.main(["energy", "--bc1", "dirichlet", "--d", "2.5",
                     "--lmax", "6"]) == 3
