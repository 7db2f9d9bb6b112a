"""Casimir interaction energies and forces between spheres.

Exact multipole scattering determinants for scalar fields with
Robin-family boundary conditions and for the electromagnetic field with
dielectric or perfectly conducting spheres, plus large-separation series
and proximity-force comparators.

`import casphere` loads the energy layers only: `energy`, `tmatrix`,
`translation` and `specfun`.  The names of the large-separation series
(`asymptotics`) and of the proximity-force and force-sign tools
(`pfa_sign`) are listed in `__all__` like the rest, but their module is
imported on first access to one of them (PEP 562), so an energy never
compiles or runs those modules.
"""

import importlib

from .energy import (
    COMPLEX_SCALAR,
    ELECTROMAGNETIC,
    REAL_SCALAR,
    DomainError,
    EnergyEstimate,
    FieldKind,
    Geometry,
    LMaxClampWarning,
    PivotFallbackWarning,
    QuadSpec,
    QuadratureWarning,
    casimir_energy,
    casimir_energy_nbody,
    suggest_l_max,
)
from .tmatrix import (
    Dielectric,
    Dirichlet,
    Dispersive,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
)

__version__ = "0.1.0"

# the public names of the modules loaded on first use, by module
_LAZY = {
    **dict.fromkeys(("SeriesExpansion", "SeriesValue", "eval_series",
                     "expand_em_dielectric", "expand_em_metal",
                     "expand_scalar"), "asymptotics"),
    **dict.fromkeys(("PHI0_LIKE", "PHI0_UNLIKE", "RatioCurve", "SignProfile",
                     "amplitude_case", "find_zero_force", "pfa_energy",
                     "pfa_energy_em", "pfa_force_sign", "series_force_sign"),
                    "pfa_sign"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    # read the module's attribute on every access and keep no copy here,
    # so a name rebound there (a tracing wrapper, say) is seen at once
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "COMPLEX_SCALAR",
    "Dielectric",
    "Dirichlet",
    "Dispersive",
    "DomainError",
    "ELECTROMAGNETIC",
    "EnergyEstimate",
    "FieldKind",
    "Geometry",
    "LMaxClampWarning",
    "Neumann",
    "PHI0_LIKE",
    "PHI0_UNLIKE",
    "PerfectConductor",
    "PivotFallbackWarning",
    "QuadSpec",
    "QuadratureWarning",
    "RatioCurve",
    "REAL_SCALAR",
    "Robin",
    "SeriesExpansion",
    "SeriesValue",
    "SignProfile",
    "SphereSpec",
    "amplitude_case",
    "casimir_energy",
    "casimir_energy_nbody",
    "eval_series",
    "expand_em_dielectric",
    "expand_em_metal",
    "expand_scalar",
    "find_zero_force",
    "pfa_energy",
    "pfa_energy_em",
    "pfa_force_sign",
    "series_force_sign",
    "suggest_l_max",
]
