"""Start-up cost: the package, its energies and the CLI load no scipy module,
and no series engine or PFA/sign tools until they are used.

scipy's import alone costs several times a small energy, so only the
sign-map zero search (`find_zero_force`) may import it, on first use;
likewise the CLI imports its process pool only when it makes one.
`import casphere`, `import casphere.cli` and an energy leave
`casphere.asymptotics` and `casphere.pfa_sign` unloaded: the package
resolves their names on first access and the CLI imports them in the
functions that use them.  They leave `fractions` and `decimal` unloaded
too: only the exact series helpers of `tmatrix` import them.  The exact
large-distance series run on `fractions` alone and load no sympy.  Each
check runs in a fresh interpreter, since the test session itself has
these modules loaded.
"""

import os
import subprocess
import sys
import textwrap

import casphere

SCRIPT = textwrap.dedent("""
    import sys


    def check(stage):
        mods = sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))
        assert not mods, (stage, len(mods), mods[:3])


    def check_lazy(stage):
        mods = [m for m in ("casphere.asymptotics", "casphere.pfa_sign",
                            "fractions", "decimal")
                if m in sys.modules]
        assert not mods, (stage, mods)


    import casphere
    check("import casphere")
    check_lazy("import casphere")
    import casphere.cli
    from casphere import energy
    check("import casphere.cli")
    check_lazy("import casphere.cli")
    # the process pool is imported only by a run with --workers > 1
    assert "concurrent.futures.process" not in sys.modules

    # record the Bessel argument of every chain row of one energy
    chain_rows = energy._chain_rows
    seen = []


    def spy(l_max, z):
        seen.extend(z.tolist())
        return chain_rows(l_max, z)


    energy._chain_rows = spy
    dirichlet = casphere.SphereSpec(1.0, casphere.Dirichlet())
    est = casphere.casimir_energy(
        casphere.Geometry.pair(dirichlet, dirichlet, 3.0), "scalar-real", 4)
    energy._chain_rows = chain_rows
    assert est.value < 0.0
    assert max(seen) >= 8.0, max(seen)
    check("energy")
    check_lazy("energy")
    # building the 3j tables loads no numpy.ma (np.unique would)
    assert "numpy.ma" not in sys.modules

    code = casphere.cli.main(["sweep", "--bc1", "dirichlet",
                              "--d-grid", "4:5:2", "--lmax", "4",
                              "--out", sys.argv[1]])
    assert code == 0
    check("sweep")
    print("ok")
""")


def test_energy_and_cli_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(casphere.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


SERIES_SCRIPT = textwrap.dedent("""
    import sys

    from casphere import Dielectric, SphereSpec
    from casphere.asymptotics import expand_em_dielectric, expand_em_metal

    metal = expand_em_metal(n_max=5)
    assert all(metal.certified.values())
    spec = SphereSpec(1.0, Dielectric(4.0, 1.0))
    expand_em_dielectric(spec, spec)
    mods = sorted(m for m in sys.modules
                  if m == "sympy" or m.startswith("sympy."))
    assert not mods, (len(mods), mods[:3])
    print("ok")
""")


def test_exact_em_series_load_no_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(casphere.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SERIES_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


LAZY_SCRIPT = textwrap.dedent("""
    import sys

    import casphere

    for name in ("casphere.asymptotics", "casphere.pfa_sign"):
        assert name not in sys.modules, name
    # first access loads the defining module and returns its object
    assert casphere.expand_scalar is casphere.asymptotics.expand_scalar
    assert casphere.pfa_energy is casphere.pfa_sign.pfa_energy
    # no copy is kept in the package: a name rebound in its module is seen
    assert "expand_scalar" not in vars(casphere)
    saved = casphere.asymptotics.expand_scalar
    casphere.asymptotics.expand_scalar = marker = object()
    assert casphere.expand_scalar is marker
    casphere.asymptotics.expand_scalar = saved
    assert casphere.expand_scalar is saved

    for name in casphere.__all__:
        getattr(casphere, name)
    assert set(casphere.__all__) <= set(dir(casphere))
    namespace = {}
    exec("from casphere import *", namespace)
    assert set(casphere.__all__) <= set(namespace)
    try:
        casphere.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("unknown name resolved")
    print("ok")
""")


def test_series_and_pfa_names_resolve_on_first_use():
    src = os.path.dirname(os.path.dirname(os.path.abspath(casphere.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LAZY_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
