"""How the environment picks out a preferred apparatus basis.

Couples a system-pointer pair to a spin environment and shows that the
monitored basis keeps its correlations while rotated bases lose theirs,
that a purity-based sieve ranks the monitored basis first, and that a
many-outcome apparatus approaches diagonal form at the kernel's rate, both
from the dense pointer matrix and from the closed form the CLI uses.
"""

import argparse

import numpy as np

from decolab import (
    ApparatusModel,
    BasisSpec,
    SpinBathConfig,
    TriConfig,
    apparatus_dephasing,
    apparatus_reduced_state,
    basis_correlation_decay,
    decoherence_factor,
    offdiag_norm,
    predictability_sieve,
    purity,
    reduced_density,
    tridecompose_state,
)

Z_BASIS = BasisSpec(0, np.eye(2))
X_BASIS = BasisSpec(0, np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))


def correlation_contrast(rng):
    print("=== readout correlations vs basis angle ===")
    bath = SpinBathConfig.balanced(rng.uniform(0.1, 1.0, 8))
    cfg = TriConfig(0.6, 0.8, bath)
    t_grid = np.linspace(0.0, 5.0, 6)
    rows = {
        theta: basis_correlation_decay(cfg, theta, t_grid)
        for theta in (0.0, np.pi / 8, np.pi / 4)
    }
    print(f"{'t':>5s} {'theta=0':>9s} {'pi/8':>9s} {'pi/4':>9s} {'|a||b||r|':>10s}")
    for i, t in enumerate(t_grid):
        envelope = 0.48 * abs(decoherence_factor(bath, float(t)))
        print(f"{t:5.1f} {rows[0.0][i]:9.4f} {rows[np.pi / 8][i]:9.4f} "
              f"{rows[np.pi / 4][i]:9.4f} {envelope:10.4f}")
    print("theta=0 stays at |a||b| = 0.48; theta=pi/4 decays with |r(t)|;")
    print("intermediate angles settle in between")

    # the suppressed coherence lives in the joint system-pointer state
    rho_sa = reduced_density(tridecompose_state(cfg, 3.0), keep=(0, 1))
    coh = offdiag_norm(rho_sa, BasisSpec(0, np.eye(4)))
    print(f"joint off-diagonal weight at t=3: {coh:.4f} "
          f"(= 2|a||b||r| = {0.96 * abs(decoherence_factor(bath, 3.0)):.4f})")
    print()


def sieve_ranking(rng):
    print("=== predictability sieve ===")
    bath = SpinBathConfig.balanced(rng.uniform(0.1, 1.0, 8))
    cfg = TriConfig(1 / np.sqrt(2.0), 1 / np.sqrt(2.0), bath)
    t_grid = np.linspace(0.0, 8.0, 401)
    ranked = predictability_sieve([X_BASIS, Z_BASIS], cfg, t_grid)
    names = {id(Z_BASIS): "monitored (z)", id(X_BASIS): "conjugate (x)"}
    for basis, score in ranked:
        print(f"  {names[id(basis)]:>14s}: time-averaged purity = {score:.6f}")
    print("states of the monitored basis never entangle with the bath, so the")
    print("sieve scores them exactly 1; the conjugate pair dephases and loses")
    print()


def apparatus_diagonalization():
    print("=== many-outcome apparatus ===")
    c = np.array([0.5, 0.5j, np.sqrt(0.5)])
    lam = 0.9
    model = ApparatusModel(c, lambda i, j, t, mix: 1.0 if i == j else np.exp(-lam * t))
    print("three outcome branches; environment overlaps decay as exp(-0.9 t)")
    print("dense: one (n+1)x(n+1) matrix per time; closed form: one pass over")
    print("the grid with sum |c_i|, sum |c_i|^2 and sum |c_i|^4")
    print(f"{'t':>5s} {'offdiag (dense)':>15s} {'(closed)':>9s} "
          f"{'purity (dense)':>14s} {'(closed)':>9s}")
    kept = BasisSpec(0, np.eye(model.dim))
    t_grid = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    offdiag, pure = apparatus_dephasing(c, [lam], None, t_grid)
    for t, off_k, pure_k in zip(t_grid, offdiag, pure):
        rho = apparatus_reduced_state(model, t)
        print(f"{t:5.1f} {offdiag_norm(rho, kept):15.5f} {off_k:9.5f} "
              f"{purity(rho):14.4f} {pure_k:9.4f}")
    plateau = float(np.sum(np.abs(c) ** 4))
    print(f"purity settles at sum |c_i|^4 = {plateau:.4f}: a classical mixture")
    print("of readings, diagonal in the outcome basis")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3, help="bath coupling seed")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    correlation_contrast(rng)
    sieve_ranking(rng)
    apparatus_diagonalization()


if __name__ == "__main__":
    main()
