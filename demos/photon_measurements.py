"""Photon measurements on a truncated oscillator.

Counts photons in a coherent state (Poisson statistics), shows that the
counting operators destroy what they detect, quantifies how a coherent-
outcome measurement family approaches completeness as its grid refines,
and closes with a finite-difference audit of the Ehrenfest relation.
"""

import argparse

import numpy as np

from decolab import (
    FockSpace,
    StateVector,
    coherent_completeness_deviation,
    coherent_state,
    ehrenfest_check,
    kraus_update,
    photon_counting_set,
    polar_grid,
    povm_probabilities,
)


def poisson_counting(alpha):
    print(f"=== photon counting on a coherent state, alpha = {alpha} ===")
    space = FockSpace(20)
    psi = coherent_state(space, alpha)
    probs = povm_probabilities(psi.density(), photon_counting_set(space))
    mu = abs(alpha) ** 2
    print(f"{'n':>3s} {'measured':>10s} {'Poisson':>10s}")
    reference = np.exp(-mu)
    for n in range(6):
        print(f"{n:3d} {probs[n]:10.6f} {reference:10.6f}")
        reference *= mu / (n + 1)
    print(f"mean count = {float(np.arange(space.dim) @ probs):.4f} "
          f"(|alpha|^2 = {mu:.4f})")
    print()


def destruction():
    print("=== the counter destroys what it detects ===")
    space = FockSpace(12)
    kset = photon_counting_set(space)
    amps = np.zeros(space.dim)
    amps[2] = 1.0
    rec = kraus_update(StateVector((space.dim,), amps).density(), kset, 2)
    print(f"input |n=2>: outcome 2 arrives with probability {rec.probability:.1f}")
    print(f"post-state vacuum population: {rec.post_state.mat[0, 0].real:.1f}")
    rerun = povm_probabilities(rec.post_state, kset)
    print(f"counting again: P(0) = {rerun[0]:.1f} — the photons are gone")
    print()


def completeness_ladder():
    print("=== coherent-outcome family vs grid density ===")
    space = FockSpace(10)
    radius = float(np.ceil(2.5 * np.sqrt(space.n_max)))
    print(f"n_max = {space.n_max}, disc radius = {radius:g}")
    print(f"{'grid':>9s} {'completeness deviation':>23s}")
    for n in (8, 16, 32, 64):
        dev = coherent_completeness_deviation(space, polar_grid(radius, n, n))
        print(f"{n:4d} x {n:<3d} {dev:23.3e}")
    print("each doubling sharpens the quadrature until the float noise floor;")
    print("64 x 64 is the default")
    print()


def ehrenfest_audit():
    print("=== Ehrenfest relation, harmonic trap ===")
    space = FockSpace(20)
    psi = coherent_state(space, 1.0)
    print("d<p>/dt + m w^2 <x> audited by centered differences:")
    print(f"{'dt':>8s} {'max residual':>13s}")
    prev = None
    for dt in (4e-3, 2e-3, 1e-3):
        report = ehrenfest_check(space, psi, 1.0, 1.0, np.arange(0.0, 1.0 + dt / 2, dt))
        note = "" if prev is None else f"   ({prev / report.max_residual:.2f}x smaller)"
        print(f"{dt:8.0e} {report.max_residual:13.3e}{note}")
        prev = report.max_residual
    print("the residual falls fourfold per halving: pure second-order")
    print("finite-difference error, no dynamics violation")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.3,
                        help="coherent amplitude for the counting section")
    args = parser.parse_args()

    poisson_counting(args.alpha)
    destruction()
    completeness_ladder()
    ehrenfest_audit()


if __name__ == "__main__":
    main()
