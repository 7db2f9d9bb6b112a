"""Casimir interaction energies and forces between spheres.

Exact multipole scattering determinants for scalar fields with
Robin-family boundary conditions and for the electromagnetic field with
dielectric or perfectly conducting spheres, plus large-separation series
and proximity-force comparators.
"""

from .asymptotics import (
    SeriesExpansion,
    SeriesValue,
    eval_series,
    expand_em_dielectric,
    expand_em_metal,
    expand_scalar,
)
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
from .pfa_sign import (
    PHI0_LIKE,
    PHI0_UNLIKE,
    RatioCurve,
    SignProfile,
    amplitude_case,
    find_zero_force,
    pfa_energy,
    pfa_energy_em,
    pfa_force_sign,
    series_force_sign,
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
