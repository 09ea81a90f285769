"""Every public float input must be finite.

One table lists each callable exported by ``decolab`` that takes a float or
an array of floats, with one valid call.  Each float argument is poisoned in
turn with NaN, +inf and -inf, and the call must raise a ``ValueError`` whose
message names that argument.  Poisoned with the huge or tiny finite values
+1e308, -1e308 and 1e-308, the call must either raise such a ``ValueError``
or return only finite numbers.  A scan keeps the table complete: every
exported callable is either in the table or exempt, with the reason.
"""

import inspect
import re

import numpy as np
import pytest

import decolab
from decolab import (
    ApparatusModel,
    BasisSpec,
    DiagonalHamiltonian,
    FockSpace,
    KrausSet,
    SpinBathConfig,
    StateVector,
    TriConfig,
    coherent_state,
)

BATH = SpinBathConfig.balanced([0.4, 0.9])
TRI = TriConfig(0.6, 0.8, BATH)
QUBIT = StateVector((2,), [0.6, 0.8])
SPACE = FockSpace(20)
Z_PAIR = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _kappa(i, j, t, mix):
    return 1.0 if i == j else 0.5


# callable: (one valid call as keyword arguments,
#            {float argument: the word its error message names it by})
FLOAT_INPUTS = {
    # states
    "StateVector": (dict(dims=(2,), amps=[0.6, 0.8]), {"amps": "amps"}),
    "DensityMatrix": (
        dict(dims=(2,), mat=[[0.5, 0.0], [0.0, 0.5]]), {"mat": "matrix"}
    ),
    "BasisSpec": (dict(subsystem=0, matrix=np.eye(2)), {"matrix": "matrix"}),
    # spin_bath
    "SpinBathConfig": (
        dict(a=0.6, b=0.8, g=[0.4, 0.9], alpha=[0.6, 0.8], beta=[0.8, 0.6]),
        {"a": "a", "b": "b", "g": "g", "alpha": "alpha", "beta": "beta"},
    ),
    "DecoherenceTrace": (dict(t=[0.0, 1.0], r=[1.0, 0.5]), {"t": "t", "r": "r"}),
    "GaussianFit": (
        dict(gamma=1.0, r_squared=0.9, t_max=2.0),
        {"gamma": "gamma", "r_squared": "r_squared", "t_max": "t_max"},
    ),
    "decoherence_factor": (dict(cfg=BATH, t=[0.0, 1.0]), {"t": "t"}),
    "decoherence_trace": (dict(cfg=BATH, t_grid=[0.0, 1.0]), {"t_grid": "t_grid"}),
    "environment_branch": (dict(cfg=BATH, t=1.0), {"t": "t"}),
    "reduced_state_A": (dict(cfg=BATH, t=1.0), {"t": "t"}),
    "time_averaged_r2": (
        dict(cfg=BATH, t_grid=np.linspace(0.0, 10.0, 100)), {"t_grid": "t_grid"}
    ),
    "recurrence_scan": (
        dict(cfg=BATH, horizon=5.0, eps=0.01, step=0.01),
        {"horizon": "horizon", "eps": "eps", "step": "step"},
    ),
    # oracle
    "DiagonalHamiltonian": (
        dict(dims=(2,), energies=[0.5, -0.5]), {"energies": "energies"}
    ),
    "dephasing_hamiltonian": (dict(couplings=[0.4, 0.9]), {"couplings": "couplings"}),
    "evolve_diagonal": (
        dict(ham=DiagonalHamiltonian((2,), [0.5, -0.5]), psi0=QUBIT, t=0.5), {"t": "t"}
    ),
    "evolve_dense": (
        dict(h=[[0.0, 1.0], [1.0, 0.0]], psi0=QUBIT, t=0.5),
        {"h": "Hamiltonian", "t": "t"},
    ),
    "evolve_dense_grid": (
        dict(h=[[0.0, 1.0], [1.0, 0.0]], psi0=QUBIT, t_grid=[0.0, 0.5]),
        {"h": "Hamiltonian", "t_grid": "t_grid"},
    ),
    "oracle_r": (dict(cfg=BATH, t=[0.5, 1.0]), {"t": "t"}),
    # measurement
    "KrausSet": (
        dict(operators=Z_PAIR, completeness_tol=1e-10),
        {"operators": "operators", "completeness_tol": "completeness_tol"},
    ),
    "Projector": (dict(mat=np.diag([1.0, 0.0])), {"mat": "projector"}),
    "validate_kraus": (dict(kraus=KrausSet(Z_PAIR), tol=1e-10), {"tol": "tol"}),
    # pointer
    "TriConfig": (dict(a=0.6, b=0.8, bath=BATH), {"a": "a", "b": "b"}),
    "tridecompose_state": (dict(cfg=TRI, t=0.5), {"t": "t"}),
    "basis_correlation_decay": (
        dict(cfg=TRI, theta=0.3, t_grid=[0.0, 1.0]), {"theta": "theta", "t_grid": "t_grid"}
    ),
    "predictability_sieve": (
        dict(candidates=[BasisSpec(0, np.eye(2)), BasisSpec(0, HADAMARD)], cfg=TRI,
             t_grid=[0.0, 1.0]),
        {"t_grid": "t_grid"},
    ),
    "ApparatusModel": (
        dict(amplitudes=[0.6, 0.8], kappa=_kappa, weights=[0.25, 0.75]),
        {"amplitudes": "amplitudes", "weights": "weights"},
    ),
    "apparatus_reduced_state": (
        dict(model=ApparatusModel([0.6, 0.8], _kappa), t=0.5), {"t": "t"}
    ),
    "apparatus_dephasing": (
        dict(amplitudes=[0.6, 0.8], decay_rates=[0.5, 1.0], weights=[0.3, 0.7],
             t_grid=[0.0, 1.0]),
        # the rates' messages predate this table and spell the name in words
        {"amplitudes": "amplitudes", "decay_rates": "decay rates", "weights": "weights",
         "t_grid": "t_grid"},
    ),
    # fock
    "CoherentGrid": (
        dict(points=[0.5, 0.5j], weights=[1.0, 1.0], radius=2.0),
        {"points": "points", "weights": "weights", "radius": "radius"},
    ),
    "polar_grid": (dict(radius=2.0), {"radius": "radius"}),
    "coherent_state": (dict(space=SPACE, alpha=0.5), {"alpha": "alpha"}),
    "ehrenfest_check": (
        dict(space=SPACE, initial=coherent_state(SPACE, 0.5), omega=1.0, mass=1.0,
             t_grid=[0.0, 0.01, 0.02]),
        {"omega": "omega", "mass": "mass", "t_grid": "t_grid"},
    ),
}

_CHECKED = "takes only objects that were checked when they were built"
EXEMPT = {
    "DimensionCapError": "an exception",
    "FitWindowError": "an exception",
    "ImpossibleOutcomeError": "an exception",
    "TruncationError": "an exception",
    "UndefinedRatioError": "an exception",
    "EhrenfestReport": "a result record, filled by ehrenfest_check from checked values",
    "KrausReport": "a result record, filled by validate_kraus from checked values",
    "MeasurementRecord": "a result record, filled by the updates from checked values",
    "FockSpace": "takes an integer n_max",
    "partial_trace": "takes a density matrix and integer subsystem indices",
    "reduced_density": "takes a state and integer subsystem indices",
    "kraus_update": "takes a state, a Kraus set and an integer outcome index",
    "collapse_sample": "takes a state, a basis and a seed",
    "sample_outcomes": "takes a state, a basis, an integer shot count and a seed",
    "tensor": _CHECKED,
    "purity": _CHECKED,
    "offdiag_norm": _CHECKED,
    "fit_gaussian_decay": _CHECKED,
    "born_probability": _CHECKED,
    "luders_update": _CHECKED,
    "outcome_distribution": _CHECKED,
    "povm_probabilities": _CHECKED,
    "premeasure_cnot": _CHECKED,
    "photon_counting_set": _CHECKED,
    "default_coherent_grid": _CHECKED,
    "coherent_measurement_set": _CHECKED,
    "coherent_completeness_deviation": _CHECKED,
}

BAD_VALUES = {"nan": float("nan"), "+inf": float("inf"), "-inf": float("-inf")}


def _poisoned(value, bad):
    """``value`` with ``bad`` in place of a scalar, or of an array's last entry."""
    if np.ndim(value) == 0:
        return bad
    arr = np.array(value)
    arr = arr.astype(np.result_type(arr, float))
    arr.flat[-1] = bad
    return arr


def test_every_exported_callable_is_listed_once():
    exported = {
        name for name, obj in vars(decolab).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
    }
    assert not set(FLOAT_INPUTS) & set(EXEMPT)
    assert exported == set(FLOAT_INPUTS) | set(EXEMPT)


@pytest.mark.parametrize("name", sorted(FLOAT_INPUTS))
def test_valid_call_runs(name):
    kwargs, floats = FLOAT_INPUTS[name]
    assert set(floats) <= set(inspect.signature(getattr(decolab, name)).parameters)
    getattr(decolab, name)(**kwargs)


CASES = [
    (name, arg, label)
    for name, (_, floats) in sorted(FLOAT_INPUTS.items())
    for arg in floats
    for label in BAD_VALUES
]


@pytest.mark.parametrize(
    "name, arg, label", CASES, ids=[f"{n}-{a}-{lab}" for n, a, lab in CASES]
)
def test_non_finite_float_input_raises_naming_the_argument(name, arg, label):
    kwargs, floats = FLOAT_INPUTS[name]
    bad = dict(kwargs, **{arg: _poisoned(kwargs[arg], BAD_VALUES[label])})
    with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
        getattr(decolab, name)(**bad)
    assert re.search(rf"(?<!\w){re.escape(floats[arg])}(?!\w)", str(info.value)), (
        str(info.value)
    )


HUGE_VALUES = {"+1e308": 1e308, "-1e308": -1e308, "1e-308": 1e-308}


def _all_finite(obj) -> bool:
    """Every float or complex that ``obj`` holds is finite: in arrays,
    sequences, dataclass fields and instance attributes (callables and
    integers are not numbers here)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind not in "fc" or bool(np.isfinite(obj).all())
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        return bool(np.isfinite(obj))
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(x) for x in obj)
    if callable(obj) or not hasattr(obj, "__dict__"):
        return True
    return all(_all_finite(x) for x in vars(obj).values())


HUGE_CASES = [
    (name, arg, label)
    for name, (_, floats) in sorted(FLOAT_INPUTS.items())
    for arg in floats
    for label in HUGE_VALUES
]


@pytest.mark.parametrize(
    "name, arg, label", HUGE_CASES, ids=[f"{n}-{a}-{lab}" for n, a, lab in HUGE_CASES]
)
def test_huge_or_tiny_finite_input_raises_naming_the_argument_or_returns_finite(
    name, arg, label
):
    # a float that overflows an intermediate (a square, a phase 2 g t) must
    # not escape as OverflowError or come back as inf or NaN
    kwargs, floats = FLOAT_INPUTS[name]
    bad = dict(kwargs, **{arg: _poisoned(kwargs[arg], HUGE_VALUES[label])})
    try:
        with np.errstate(all="ignore"):
            result = getattr(decolab, name)(**bad)
    except ValueError as exc:
        assert re.search(rf"(?<!\w){re.escape(floats[arg])}(?!\w)", str(exc)), str(exc)
    else:
        assert _all_finite(result), result
