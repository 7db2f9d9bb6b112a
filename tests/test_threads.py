"""Reruns are bit-identical whatever the BLAS thread count.

The leading-minor elimination updates each block's trailing window by a
BLAS matmul, so an energy must not depend on how many threads the BLAS
library splits it over.  Each run is a fresh interpreter, since the
thread count is read when numpy loads its BLAS library.
"""

import os
import subprocess
import sys
import textwrap

import casphere

SCRIPT = textwrap.dedent("""
    import casphere
    from casphere import energy

    pec = casphere.SphereSpec(1.0, casphere.PerfectConductor())
    dirichlet = casphere.SphereSpec(1.0, casphere.Dirichlet())
    # one l = 32 EM node: 132-row m-blocks
    print(repr(energy.integrand(casphere.Geometry.pair(pec, pec, 2.5), "em",
                                0.8, 32)))
    est = casphere.casimir_energy_nbody(
        casphere.Geometry((dirichlet,) * 3, (0.0, 3.0, 6.0)),
        "scalar-real", 6)
    print(repr(est.value), repr(est.quad_error), repr(est.history))
""")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _run(**threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(casphere.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_energies_equal_for_one_and_default_blas_threads():
    one = _run(OPENBLAS_NUM_THREADS="1")
    assert one.count("\n") == 2
    assert _run() == one
