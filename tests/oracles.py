"""Independent brute-force references used by the test suite.

Everything here is written from the problem statement alone: plain
itertools enumeration and a dense generalized eigensolve per subset. No
code is shared with the library so agreement is meaningful.
"""

import itertools

import numpy as np
import scipy.linalg

TIE_TOL = 1e-12


def oracle_steering(n, spacing, doa_deg):
    phase = 2.0 * np.pi * spacing * np.cos(np.deg2rad(doa_deg))
    return np.exp(1j * phase * np.arange(n))


def oracle_covariances(n, spacing, desired_doa, desired_power,
                       interferer_doas, interferer_powers, noise_power):
    s = oracle_steering(n, spacing, desired_doa)
    r_s = desired_power * np.outer(s, s.conj())
    r_sn = noise_power * np.eye(n, dtype=complex)
    for doa, pw in zip(interferer_doas, interferer_powers):
        v = oracle_steering(n, spacing, doa)
        r_sn = r_sn + pw * np.outer(v, v.conj())
    return r_s, r_sn


def oracle_subset_sinr(r_s, r_sn, indices):
    """Max SINR of one subarray: top eigenvalue of the (R_s, R_sn) pencil."""
    idx = list(indices)
    a = r_s[np.ix_(idx, idx)]
    b = r_sn[np.ix_(idx, idx)]
    vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    return float(vals[-1])


def oracle_best_subset(r_s, r_sn, p):
    """Exhaustive search; ties resolve to the first subset in sorted order."""
    combos = list(itertools.combinations(range(r_s.shape[0]), p))
    vals = [oracle_subset_sinr(r_s, r_sn, c) for c in combos]
    top = max(vals)
    for c, v in zip(combos, vals):
        if v >= top / (1.0 + TIE_TOL):
            return c, v
    raise AssertionError("unreachable")


def oracle_worst_subset(r_s, r_sn, p):
    combos = list(itertools.combinations(range(r_s.shape[0]), p))
    vals = [oracle_subset_sinr(r_s, r_sn, c) for c in combos]
    bottom = min(vals)
    for c, v in zip(combos, vals):
        if v <= bottom * (1.0 + TIE_TOL):
            return c, v
    raise AssertionError("unreachable")


def random_oracle_case(rng, n_grid, max_interferers=4, desired_pool=None):
    """Draw scenario parameters the way the reference search expects them."""
    l_count = int(rng.integers(1, max_interferers + 1))
    pool = desired_pool if desired_pool is not None else np.arange(20.0, 161.0)
    desired = float(rng.choice(pool))
    grid = [d for d in np.arange(10.0, 171.0) if d != desired]
    doas = [float(d) for d in rng.choice(grid, size=l_count, replace=False)]
    powers = [float(10.0 ** (db / 10.0)) for db in rng.uniform(10.0, 20.0, l_count)]
    return desired, doas, powers


def oracle_autocorr_spectrum(rows, k):
    """K-point power spectrum of each row, lag by lag.

    Builds the conjugate-symmetric deterministic autocorrelation of each row
    (lags wrapped into a K-point buffer, K >= 2N-1 so none alias), takes its
    DFT and keeps the real part, clamped at zero.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    m, n = rows.shape
    assert k >= 2 * n - 1
    buf = np.zeros((m, k), dtype=complex)
    for lag in range(n):
        a = np.sum(rows[:, lag:] * rows[:, : n - lag].conj(), axis=1)
        buf[:, lag] = a
        if lag > 0:
            buf[:, k - lag] = a.conj()
    return np.maximum(np.fft.fft(buf, axis=1).real, 0.0)


def oracle_omega(masks, spacing, desired_doa, desired_power,
                 interferer_doas, interferer_powers, k):
    """Spectral overlap of each mask row: desired spectrum times each
    interferer spectrum, power weighted, summed over bins and interferers."""
    masks = np.atleast_2d(np.asarray(masks, dtype=float))
    n = masks.shape[1]
    des = desired_power * oracle_autocorr_spectrum(
        masks * oracle_steering(n, spacing, desired_doa), k)
    total = np.zeros(masks.shape[0])
    for doa, pw in zip(interferer_doas, interferer_powers):
        spec = oracle_autocorr_spectrum(masks * oracle_steering(n, spacing, doa), k)
        total += np.sum(des * (pw * spec), axis=1)
    return total


def oracle_greedy_steps(n, p, k, spacing, desired_doa, desired_power,
                        interferer_doas, interferer_powers):
    """Greedy overlap search from every start: per start, the list of
    (chosen index, objective) as each step adds the unselected index of least
    overlap, near-ties (TIE_TOL) going to the lowest index."""
    traces = []
    for start in range(n):
        selected = [start]
        steps = []
        for _ in range(p - 1):
            cand = [i for i in range(n) if i not in selected]
            masks = np.zeros((len(cand), n))
            for row, c in enumerate(cand):
                masks[row, selected + [c]] = 1.0
            vals = oracle_omega(masks, spacing, desired_doa, desired_power,
                                interferer_doas, interferer_powers, k)
            floor = min(vals)
            j = next(r for r, v in enumerate(vals)
                     if v <= floor + TIE_TOL * max(abs(floor), 1.0))
            selected.append(cand[j])
            steps.append((cand[j], float(vals[j])))
        traces.append(steps)
    return traces
