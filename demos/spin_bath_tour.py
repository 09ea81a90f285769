"""Tour of the spin-bath dephasing model.

Walks through the main behaviors of a single qubit coupled to a bath of
non-interacting spins: the decay of the decoherence factor r(t), the
Gaussian envelope for large baths, the 2^-N plateau of the long-time
average, and the recurrences that survive for commensurate couplings.
Every closed-form number is spot-checked against the dense brute-force
propagator.
"""

import argparse

import numpy as np

from decolab import (
    SpinBathConfig,
    decoherence_factor,
    decoherence_trace,
    fit_gaussian_decay,
    oracle_r,
    recurrence_scan,
    time_averaged_r2,
)


def small_bath_trace(rng):
    print("=== r(t) for a 4-spin bath ===")
    cfg = SpinBathConfig.random(4, rng)
    print(f"couplings g = {np.round(cfg.g, 3)}")
    print(f"{'t':>6s} {'Re r':>9s} {'Im r':>9s} {'|r|':>9s}")
    t_grid = np.linspace(0.0, 6.0, 13)
    closed = decoherence_factor(cfg, t_grid)
    for t, r in zip(t_grid, closed):
        print(f"{t:6.2f} {r.real:9.4f} {r.imag:9.4f} {abs(r):9.4f}")
    # the dense propagator rebuilds the same numbers from the full 2^(N+1)
    # dimensional joint state, evolved to every time of the grid
    brute = oracle_r(cfg, t_grid)
    print(f"closed form vs dense evolution on the grid: "
          f"max |difference| = {np.abs(closed - brute).max():.2e}")
    print()


def gaussian_envelope(rng):
    print("=== Gaussian decay envelope, N = 50 ===")
    g = rng.uniform(0.0, 1.0, 50)
    cfg = SpinBathConfig.balanced(g)
    gamma0 = 2.0 * np.sqrt(float(g @ g))
    trace = decoherence_trace(cfg, np.linspace(0.0, 5.0 / gamma0, 1200))
    fit = fit_gaussian_decay(trace)
    print(f"predicted width  2*sqrt(sum g^2) = {gamma0:.4f}")
    print(f"fitted width     Gamma           = {fit.gamma:.4f}")
    print(f"goodness of fit  r_squared       = {fit.r_squared:.6f}")
    print()


def size_scaling(rng):
    print("=== long-time average of |r|^2 vs bath size ===")
    print("balanced spins: the time average settles near 2^-N")
    print(f"{'N':>3s} {'mean |r|^2':>12s} {'log2(mean)':>11s}")
    for n in (4, 6, 8, 10, 12):
        g = rng.uniform(0.0, 1.0, n)
        cfg = SpinBathConfig.balanced(g)
        horizon = max(6e4, 400.0 / float(g.min()))
        mean = time_averaged_r2(cfg, np.linspace(0.0, horizon, 400001))
        print(f"{n:3d} {mean:12.3e} {np.log2(mean):11.3f}")
    print()


def recurrences(rng):
    print("=== recurrences ===")
    cfg = SpinBathConfig.balanced([1.0, 2.0, 3.0])
    intervals = recurrence_scan(cfg, horizon=7.0, eps=0.01)
    print("g = (1, 2, 3): |r| returns above 0.99 on the intervals")
    for lo, hi in intervals:
        print(f"  [{lo:.3f}, {hi:.3f}]   (pi = {np.pi:.3f}, 2 pi = {2 * np.pi:.3f})")
    random_cfg = SpinBathConfig.random(20, rng)
    none = recurrence_scan(random_cfg, horizon=1e3, eps=0.01)
    print(f"random 20-spin bath scanned to t = 1e3: {len(none)} revivals found")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="bath ensemble seed")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    small_bath_trace(rng)
    gaussian_envelope(rng)
    size_scaling(rng)
    recurrences(rng)


if __name__ == "__main__":
    main()
