"""decolab: a numerical laboratory for dephasing and quantum measurement.

The package bundles a small set of tightly tested building blocks:

* :mod:`decolab.states` — dense state vectors, density matrices, tensor
  algebra, partial traces, and basis-resolved coherence norms.
* :mod:`decolab.spin_bath` — a central qubit dephased by a bath of
  non-interacting spins, solved in closed form.
* :mod:`decolab.oracle` — brute-force diagonal/dense propagators used as an
  independent cross-check of every closed-form result.
* :mod:`decolab.measurement` — projective and Kraus-operator measurement
  updates, Born sampling, and POVM bookkeeping.
* :mod:`decolab.pointer` — pointer-basis diagnostics: tripartite branch
  states, basis-rotation correlation decay, a predictability sieve, and a
  many-outcome apparatus dephasing model with a closed form for mixtures of
  exponential kernels.
* :mod:`decolab.fock` — truncated oscillator spaces, photon counting,
  coherent-state POVMs on quadrature grids, and an Ehrenfest-relation check.
* :mod:`decolab.cli` — reproducible experiment runner with CSV/JSON output.
"""

__version__ = "0.1.0"

from .states import (
    BasisSpec,
    DensityMatrix,
    DimensionCapError,
    StateVector,
    offdiag_norm,
    partial_trace,
    purity,
    reduced_density,
    tensor,
)
from .spin_bath import (
    DecoherenceTrace,
    FitWindowError,
    GaussianFit,
    SpinBathConfig,
    decoherence_factor,
    decoherence_trace,
    environment_branch,
    fit_gaussian_decay,
    recurrence_scan,
    reduced_state_A,
    time_averaged_r2,
)
from .oracle import (
    DiagonalHamiltonian,
    UndefinedRatioError,
    dephasing_hamiltonian,
    evolve_dense,
    evolve_dense_grid,
    evolve_diagonal,
    oracle_r,
)
from .measurement import (
    ImpossibleOutcomeError,
    KrausReport,
    KrausSet,
    MeasurementRecord,
    Projector,
    born_probability,
    collapse_sample,
    kraus_update,
    luders_update,
    outcome_distribution,
    povm_probabilities,
    premeasure_cnot,
    sample_outcomes,
    validate_kraus,
)
from .pointer import (
    ApparatusModel,
    TriConfig,
    apparatus_dephasing,
    apparatus_reduced_state,
    basis_correlation_decay,
    predictability_sieve,
    tridecompose_state,
)
from .fock import (
    CoherentGrid,
    EhrenfestReport,
    FockSpace,
    TruncationError,
    coherent_completeness_deviation,
    coherent_measurement_set,
    coherent_state,
    default_coherent_grid,
    ehrenfest_check,
    photon_counting_set,
    polar_grid,
)
