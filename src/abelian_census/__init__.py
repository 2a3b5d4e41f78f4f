"""Exact census of abelian number-field extensions by ramification profile.

Fields with abelian Galois group G correspond to surjections from the idele
class units onto G; this package enumerates them exactly below a bound of a
multiplicative invariant built from per-prime ramification parameters,
slices the counts by how many tame primes meet a distinguished subset of G,
and bounds the counting series from both sides.

Layering:

* ``groups``        -- abelian groups, power classes, parameter vectors
* ``local_counts``  -- exact local hom/sur counts at a single prime
* ``sieve``         -- prime tables with a validated disk cache
* ``profiles``      -- the exact census engine over ramification profiles
* ``constants``     -- structure constants, witnesses, partitions
* ``series``        -- generating-series bounds and asymptotic shapes
* ``cli``           -- configuration files and deterministic CSV/JSON output
"""

from __future__ import annotations

from .constants import (
    GeneratingFamily,
    StructureReport,
    TauWitness,
    admissible_partitions,
    conjecture_classifier,
    delta_x,
    gamma_x,
    realize_family,
    structure_report,
    tau_witness,
)
from .errors import (
    CacheError,
    CensusError,
    ConfigError,
    DomainError,
    FitError,
    GroupError,
    LatticeCapError,
    NotApplicableError,
    OmegaError,
    ParamError,
    ResourceCapError,
    UndefinedMinimumError,
    WitnessNotFoundError,
)
from .groups import (
    AbelianGroup,
    ClassPoset,
    OmegaSet,
    ParamVector,
    PowerClass,
    Subgroup,
    beta_aggregate,
    beta_of_class_set,
    euler_phi,
    make_group,
    make_params,
    omega_from_classes,
    omega_of_type,
    power_classes,
    validate_omega,
    x_of_subgroup,
    xi_classes,
)
from .local_counts import (
    LocalUnitModel,
    SurTable,
    hom_count,
    local_unit_model,
    sur_count,
    wild_images,
)
from .profiles import (
    CensusContext,
    CensusTable,
    IndexValue,
    RamificationProfile,
    count_by_index,
    enumerate_census,
    geometric_checkpoints,
    indicator_gamma,
    is_generating,
    merge_task_table,
    scaled_threshold,
    theta,
    weight,
)
from .series import (
    AsymptoticShape,
    FitResult,
    GeneratingSeries,
    RatioTrend,
    SingularityData,
    convolution_counts,
    convolution_table,
    delange_shape,
    fit_exponents,
    mu_series,
    pi_series,
    psi_series,
    ratio_R,
    scaling_check,
    series_violations,
    singularity_data,
    tau_series,
)
from .sieve import PrimeTable, load_prime_table, sieve_primes, validate_prime_table

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # groups
    "AbelianGroup",
    "Subgroup",
    "PowerClass",
    "ClassPoset",
    "ParamVector",
    "OmegaSet",
    "make_group",
    "make_params",
    "power_classes",
    "validate_omega",
    "omega_from_classes",
    "omega_of_type",
    "x_of_subgroup",
    "beta_of_class_set",
    "beta_aggregate",
    "xi_classes",
    "euler_phi",
    # local counts
    "LocalUnitModel",
    "local_unit_model",
    "hom_count",
    "sur_count",
    "wild_images",
    "SurTable",
    # sieve
    "PrimeTable",
    "sieve_primes",
    "load_prime_table",
    "validate_prime_table",
    # profiles
    "RamificationProfile",
    "IndexValue",
    "CensusTable",
    "CensusContext",
    "theta",
    "indicator_gamma",
    "weight",
    "is_generating",
    "enumerate_census",
    "merge_task_table",
    "count_by_index",
    "scaled_threshold",
    "geometric_checkpoints",
    # constants
    "GeneratingFamily",
    "TauWitness",
    "StructureReport",
    "delta_x",
    "gamma_x",
    "tau_witness",
    "admissible_partitions",
    "conjecture_classifier",
    "realize_family",
    "structure_report",
    # series
    "GeneratingSeries",
    "SingularityData",
    "AsymptoticShape",
    "FitResult",
    "RatioTrend",
    "mu_series",
    "pi_series",
    "psi_series",
    "tau_series",
    "convolution_counts",
    "convolution_table",
    "singularity_data",
    "delange_shape",
    "fit_exponents",
    "ratio_R",
    "scaling_check",
    "series_violations",
    # errors
    "CensusError",
    "GroupError",
    "OmegaError",
    "ParamError",
    "DomainError",
    "UndefinedMinimumError",
    "NotApplicableError",
    "WitnessNotFoundError",
    "LatticeCapError",
    "ResourceCapError",
    "FitError",
    "ConfigError",
    "CacheError",
]
