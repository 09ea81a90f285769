"""Seeded workload generator.

Each workload is a list of CLI invocations run one after another; one run of
the list is a *pass*.  The generator writes every config (and the Kraus file)
into a scratch directory, so the CLI receives only generated files.  The
workload seed selects the configs' ``"seed"``, the couplings, amplitudes and
Kraus operators; every size is fixed, so all seeds ask for the same work.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("closed_form", "dense_oracle", "povm_fock")


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def _unit_pair(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    """A normalized qubit (a, b) with both branches clearly populated."""
    theta = float(rng.uniform(0.25, 0.75)) * math.pi / 2
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    a = [math.cos(theta), 0.0]
    b = [math.sin(theta) * math.cos(phase), math.sin(theta) * math.sin(phase)]
    return a, b


def _kraus_pair(rng: np.random.Generator, dim: int) -> dict:
    """Two-outcome Kraus set M0 = U sqrt(L) U^dag, M1 = U sqrt(1 - L) U^dag."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(raw)
    lam = rng.uniform(0.1, 0.9, dim)
    ops = [u @ np.diag(np.sqrt(w)) @ u.conj().T for w in (lam, 1.0 - lam)]
    return {
        "shape": [dim, dim],
        "labels": [0, 1],
        "completeness_tol": 1e-10,
        "operators": [
            [[float(z.real), float(z.imag)] for z in m.reshape(-1)] for m in ops
        ],
    }


def _closed_form(rng):
    return [
        ("spin-bath", ["trace.csv", "scaling.csv", "gaussian_fit.csv", "recurrence.csv"], {
            "experiment": "spin-bath",
            "seed": _config_seed(rng),
            "trace": {"n_spins": 40, "ensemble": "random", "t_max": 20.0,
                      "samples": 100001},
            "scaling": {"n_values": list(range(4, 15)), "span_periods": 400,
                        "samples": 200001},
            "gaussian_fit": {"n_spins": 200, "n_seeds": 200, "samples": 2000},
            "recurrence": {"couplings": [float(g) for g in rng.uniform(0.2, 1.0, 10)],
                           "horizon": 2000.0, "epsilon": 0.01},
        }),
    ]


def _dense_oracle(rng):
    a, b = _unit_pair(rng)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    return [
        ("pointer", ["correlation.csv", "sieve.csv", "apparatus.csv"], {
            "experiment": "pointer",
            "seed": _config_seed(rng),
            "branch_amplitudes": {"a": a, "b": b},
            "environment": {"n_spins": 13, "ensemble": "random"},
            "correlation": {"thetas": [0.0, math.pi / 8, math.pi / 4],
                            "t_max": 6.0, "samples": 121},
            "sieve": {"t_max": 8.0, "samples": 401},
            "apparatus": {"amplitudes": [[float(z.real), float(z.imag)] for z in c],
                          "decay_rates": [0.4, 1.6], "weights": [0.25, 0.75],
                          "t_max": 5.0, "samples": 2001},
        }),
        ("oracle-compare", ["oracle_compare.csv"], {
            "experiment": "oracle-compare",
            "seed": _config_seed(rng),
            "n_values": [8, 12, 14],
            "trials": 10,
            "times_per_trial": 20,
            "t_max": 20.0,
            "tolerance": 1e-10,
        }),
    ]


def _povm_fock(rng):
    a, b = _unit_pair(rng)
    alpha = 1.5 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return [
        ("fock", ["counting.csv", "completeness.csv", "ehrenfest.csv"], {
            "experiment": "fock",
            "seed": _config_seed(rng),
            "n_max": 48,
            "counting": {"alpha": [float(alpha.real), float(alpha.imag)]},
            "completeness": {"densities": [[8, 8], [16, 16], [32, 32]]},
            "ehrenfest": {"alpha": [float(alpha.imag), float(alpha.real)],
                          "omega": 1.0, "mass": 1.0, "t_max": 5.0, "dt": 0.001},
        }),
        ("measure", ["outcomes.csv", "premeasured_state.json", "reduced_system.json",
                     "povm.csv"], {
            "experiment": "measure",
            "seed": _config_seed(rng),
            "system": {"a": a, "b": b},
            "shots": 2_000_000,
            "kraus_file": "kraus.json",
            "dump_states": True,
        }),
        ("check", ["check.json"], {"experiment": "check", "seed": _config_seed(rng)}),
    ]


_BUILDERS = {
    "closed_form": _closed_form,
    "dense_oracle": _dense_oracle,
    "povm_fock": _povm_fock,
}


def generate(workload: str, seed: int, directory: str):
    """Write the workload's inputs into ``directory``.

    Returns ``(steps, setup)``: ``steps`` lists one pass as
    ``(subcommand, config file, expected artifacts)`` and ``setup`` is the
    same triple for the smallest valid run, a ``measure`` with one shot and no
    state dumps.  File names are relative to
    ``directory``, which is the CLI's working directory, so a config reads the
    same wherever the checkout is.
    """
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    os.makedirs(directory, exist_ok=True)
    _dump(directory, "kraus.json", _kraus_pair(rng, 4))
    steps = []
    for sub, artifacts, config in _BUILDERS[workload](rng):
        steps.append((sub, _dump(directory, f"{sub}.json", config), artifacts))
    a, b = _unit_pair(rng)
    setup = _dump(directory, "setup.json", {
        "experiment": "measure",
        "seed": _config_seed(rng),
        "system": {"a": a, "b": b},
        "shots": 1,
        "dump_states": False,
    })
    return steps, ("measure", setup, ["outcomes.csv"])


def _dump(directory: str, name: str, payload: dict) -> str:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return name
