"""Independent brute-force references used by the test suite.

Everything here is written from the problem statement alone: plain
itertools enumeration and a dense generalized eigensolve per subset. No
code is shared with the library so agreement is meaningful; files are
rendered with the standard csv module. The one exception is
oracle_evaluate, the per-scene evaluation loop that the two-pass
harness.evaluate replaced: it calls the library's selectors and scorer,
and pins the order in which they run and the streams they draw from.
Its random baseline comes from oracle_random_masks, one Generator.shuffle
call per mask, which harness.random_masks makes in one Generator.permuted
call.
oracle_toeplitz_average averages one diagonal pair at a time with np.mean,
the bits snapshots.toeplitz_average must reproduce. Four more call the
library to pin what a rewrite of it must reproduce: oracle_scan_subsets,
the search over every C(N, P) subset that enumeration.scan_subsets narrowed
to one configuration per translate-and-mirror class; oracle_steering_rows
and oracle_correlation_matrices, one np.exp per source; and
oracle_perturb_scenario, one rng.normal draw and one dataclasses.replace
per source.
"""

import csv
import dataclasses
import itertools
import math

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


def oracle_dense_subset_sinr(n, spacing, desired_doa, desired_power,
                             interferer_doas, interferer_powers, noise_power, masks):
    """Max SINR of each 0/1 mask row: sigma_d^2 s_J^H (R_sn,J)^-1 s_J, one
    P x P solve per subset."""
    s = oracle_steering(n, spacing, desired_doa)
    _, r_sn = oracle_covariances(n, spacing, desired_doa, desired_power,
                                 interferer_doas, interferer_powers, noise_power)
    out = []
    for mask in np.atleast_2d(masks):
        idx = np.flatnonzero(mask)
        x = np.linalg.solve(r_sn[np.ix_(idx, idx)], s[idx])
        out.append(desired_power * float(np.vdot(s[idx], x).real))
    return np.array(out)


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


def oracle_sbsa_select(n, p, weights):
    """The greedy overlap search from masks, as the reference for the
    library's lag-count increments: every step builds each start's candidate
    masks, counts their lags with one einsum per lag and sums c_d^2 * w_d one
    lag at a time. `weights` are the scene's lag weights w_0..w_{N-1}, so the
    objectives compare bit for bit. Returns each start's (chosen index,
    objective) steps and its 0/1 mask, near-ties (TIE_TOL) going to the
    lowest index."""
    rows = np.arange(n)
    chosen = np.eye(n, dtype=bool)
    steps = [[] for _ in range(n)]
    for step in range(p - 1):
        n_cand = n - 1 - step
        cand = np.nonzero(~chosen)[1].reshape(n, n_cand)
        masks = np.repeat(chosen[:, None, :], n_cand, axis=1)
        masks[rows[:, None], np.arange(n_cand), cand] = True
        z = masks.reshape(-1, n).astype(float)
        counts = np.empty((len(z), n))
        for d in range(n):
            counts[:, d] = np.einsum("ij,ij->i", z[:, d:], z[:, :n - d])
        counts *= counts
        total = counts[:, 0] * weights[0]
        for d in range(1, n):
            total += counts[:, d] * weights[d]
        vals = total.reshape(n, n_cand)
        floor = vals.min(axis=1, keepdims=True)
        j = np.argmax(vals <= floor + TIE_TOL * np.maximum(np.abs(floor), 1.0), axis=1)
        for s in range(n):
            steps[s].append((int(cand[s, j[s]]), float(vals[s, j[s]])))
        chosen[rows, cand[rows, j]] = True
    return steps, chosen.astype(int)


def oracle_train_steps(x, y, hidden, seed, batch_size, keep_prob, lr, n_steps):
    """The float64 training loop, step by step, with no validation split.

    Xavier-uniform init from default_rng(seed); each row divided by its
    leading (power) feature, then standardized per feature over all rows;
    one rng = default_rng(seed) draws every epoch's shuffle and, during
    each forward pass, every hidden layer's keep mask (rng.random(shape) <
    keep_prob); inverted dropout after ReLU; MSE loss; ADAM (0.9, 0.999,
    1e-8) with bias correction. Returns one (standardized batch rows, keep
    masks, loss) per step for the first n_steps steps.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sizes = [x.shape[1], *hidden, y.shape[1]]
    init = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(init.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    params = weights + biases
    moments = [[np.zeros_like(p) for p in params] for _ in range(2)]

    lead = x[:, :1]
    x = x / np.where(np.abs(lead) < 1e-12, 1.0, lead)
    x = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-12)

    rng = np.random.default_rng(seed)
    steps = []
    while len(steps) < n_steps:
        order = rng.permutation(x.shape[0])
        for lo in range(0, x.shape[0], batch_size):
            sel = order[lo:lo + batch_size]
            acts, pres, keeps = [x[sel]], [], []
            for i, (w, b) in enumerate(zip(weights, biases)):
                z = acts[-1] @ w + b
                pres.append(z)
                if i == len(weights) - 1:
                    acts.append(z)
                    continue
                keep = rng.random(z.shape) < keep_prob
                keeps.append(keep)
                acts.append(np.maximum(z, 0.0) * keep.astype(float) / keep_prob)
            diff = acts[-1] - y[sel]
            loss = float(np.mean(diff * diff))
            grad_w, grad_b = [None] * len(weights), [None] * len(weights)
            dz = 2.0 * diff / diff.size
            for i in range(len(weights) - 1, -1, -1):
                grad_w[i] = acts[i].T @ dz
                grad_b[i] = dz.sum(axis=0)
                if i > 0:
                    da = (dz @ weights[i].T) * keeps[i - 1] / keep_prob
                    dz = da * (pres[i - 1] > 0.0)
            t = len(steps) + 1
            for p, g, m, v in zip(params, grad_w + grad_b, *moments):
                m[...] = 0.9 * m + 0.1 * g
                v[...] = 0.999 * v + 0.001 * (g * g)
                p -= lr * (m / (1.0 - 0.9 ** t)) / (
                    np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            steps.append((acts[0], keeps, loss))
            if len(steps) == n_steps:
                break
    return steps


def csv_writer_bytes(path, header, rows) -> bytes:
    """The bytes csv.writer writes for these rows, as the reference the
    column writer must match."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def oracle_read_dataset(path):
    """(features, labels, scenario_ids) of a dataset CSV, read row by row with
    csv.reader and float(), with every check the library reader makes and the
    same messages, as the reference its one-pass parse must match."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n_feat = len(header) - 3
        if n_feat < 1 or n_feat % 2 == 0 \
                or header[:2] != ["scenario_id", "look_doa_deg"] \
                or header[-1] != "label_mask_bits":
            raise ValueError("unrecognized dataset header")
        n = (n_feat + 1) // 2
        weight = None
        numbers, labels, ids = [], [], []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != n_feat + 3:
                raise ValueError(f"{where}: {len(row)} fields, expected {n_feat + 3}")
            try:
                values = [float(v) for v in row[1:-1]]
            except ValueError:
                raise ValueError(f"{where}: non-numeric field") from None
            if not all(map(math.isfinite, values[1:])):
                raise ValueError(f"{where}: non-finite feature")
            bits = row[-1]
            if len(bits) != n or set(bits) - {"0", "1"}:
                raise ValueError(f"{where}: label {bits!r} is not {n} bits of 0/1")
            if weight is None:
                weight = bits.count("1")
            elif bits.count("1") != weight:
                raise ValueError(f"{where}: label {bits!r} selects "
                                 f"{bits.count('1')} sensors, earlier rows {weight}")
            numbers.append(values)
            labels.append(bits)
            ids.append(row[0])
    if not ids:
        raise ValueError(f"{path}: no data rows")
    y = np.array([[float(b) for b in bits] for bits in labels])
    return np.array(numbers)[:, 1:], y, ids


def oracle_toeplitz_average(r):
    """Each diagonal pair's np.mean, one pair at a time."""
    r = np.asarray(r)
    n = r.shape[0]
    out = np.empty_like(r, dtype=complex)
    for k in range(n):
        vals = np.concatenate([np.diagonal(r, offset=k), np.diagonal(r, offset=-k).conj()])
        mean = vals[0] if np.all(vals == vals[0]) else np.mean(vals)
        if k == 0:
            mean = complex(mean.real, 0.0)
        idx = np.arange(n - k)
        out[idx, idx + k] = mean
        out[idx + k, idx] = np.conj(mean)
    return out


def oracle_random_masks(n_grid, p, n_draws, rng):
    """n_draws rows of p ones and n_grid - p zeros, each shuffled in turn
    by one rng.shuffle call."""
    out = np.zeros((n_draws, n_grid), dtype=int)
    out[:, :p] = 1
    for row in out:
        rng.shuffle(row)
    return out


def oracle_evaluate(cfg, methods, models=None, nnc_index=None, part="test", n_random=100):
    """(rows, summaries) of harness.evaluate from one pass per scene: every
    method picks its mask scene by scene (the networks in one batch over
    all scenes), the random baseline draws from the (seed, 2, scene index)
    stream, and the optimum and the masks are scored in `methods` order.
    The summaries are built from per-method accumulators."""
    from sparsebeam import beamformer, harness, mlp

    models = models or {}
    geom, p = cfg.geometry, cfg.n_select
    records = list(harness.scenario_stream(cfg, part, label_source="enumeration"))
    features = np.array([rec.features for rec in records])
    model_masks = {m: mlp.predict_selection(models[m], features, p)
                   for m in methods if m in models}
    rows = []
    gaps = {m: [] for m in methods}
    sinrs = {m: [] for m in methods}
    matches = {m: 0 for m in methods}
    for n_scn, rec in enumerate(records):
        scn = rec.scenario
        masks = {}
        for m in methods:
            if m in models:
                masks[m] = model_masks[m][n_scn]
            elif m == "nnc":
                masks[m] = np.asarray(nnc_index.predict(rec.features), dtype=int)
            elif m == "random":
                rng = np.random.default_rng((cfg.seed, 2, n_scn))
                masks[m] = oracle_random_masks(cfg.n_grid, p, n_random, rng)
            else:
                masks[m] = harness.method_mask(m, geom, scn, p)
        opt, vals = harness.score_methods(geom, scn, rec.label_mask, masks, rec.scenario_id)
        opt_db = float(beamformer.sinr_db(opt))
        row = {
            "scenario_id": rec.scenario_id,
            "look_doa_deg": rec.look_doa_deg,
            "n_interferers": scn.n_interferers,
            "opt_mask_bits": beamformer.mask_bits(rec.label_mask),
            "opt_sinr_db": opt_db,
        }
        for m in methods:
            m_db = float(np.mean(beamformer.sinr_db(vals[m])))
            if m == "random":
                row[f"{m}_mask_bits"] = ""
            else:
                row[f"{m}_mask_bits"] = beamformer.mask_bits(masks[m])
                matches[m] += np.array_equal(masks[m], rec.label_mask)
            row[f"{m}_sinr_db"] = m_db
            sinrs[m].append(m_db)
            gaps[m].append(opt_db - m_db)
        rows.append(row)
    summaries = {m: harness.MethodSummary(
        mean_sinr_db=float(np.mean(sinrs[m])),
        mean_gap_db=float(np.mean(gaps[m])),
        exact_match_rate=None if m == "random" else matches[m] / max(len(records), 1),
    ) for m in methods}
    return rows, summaries


def oracle_scan_subsets(geom, scn, p, worst=False):
    """(rank_id, int mask, linear SINR) of the best subset, or the worst, over
    every C(N, P) subset, scored block by block in rank order; the first
    subset within the relative tie band of a block's extreme stands against
    later blocks unless one beats it by more than the band."""
    from sparsebeam import beamformer, enumeration

    terms = beamformer.scene_terms(geom, scn)
    kept = None
    for start, masks in enumeration._subset_chunks(geom.n_grid, p):
        vals = beamformer.subset_sinr_batch(terms, masks)
        if worst:
            k = int(np.argmax(vals <= vals.min() * (1.0 + TIE_TOL)))
            wins = kept is None or vals[k] < kept[2] * (1.0 - TIE_TOL)
        else:
            k = int(np.argmax(vals >= vals.max() / (1.0 + TIE_TOL)))
            wins = kept is None or vals[k] > kept[2] * (1.0 + TIE_TOL)
        if wins:
            kept = (start + k, masks[k].astype(int), float(vals[k]))
    return kept


def oracle_steering_rows(geom, doas):
    """One steering vector per DOA, each from its own np.exp."""
    from sparsebeam import scene

    return [np.exp(1j * scene.phase_step(geom, doa) * np.arange(geom.n_grid)) for doa in doas]


def oracle_correlation_matrices(geom, scn):
    """(R_s, R_sn, R_xx) with each source's steering vector built alone."""
    s = oracle_steering_rows(geom, [scn.desired.doa_deg])[0]
    r_s = scn.desired.power * np.outer(s, s.conj())
    r_sn = scn.noise_power * np.eye(geom.n_grid, dtype=complex)
    for src in scn.interferers:
        v = oracle_steering_rows(geom, [src.doa_deg])[0]
        r_sn += src.power * np.outer(v, v.conj())
    return r_s, r_sn, r_s + r_sn


def oracle_perturb_scenario(scn, doa_variance_deg2, seed):
    """The scenario with each DOA jittered by its own rng.normal draw (the
    desired source first) and clamped to [0.5, 179.5] deg, one source at a
    time."""
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(doa_variance_deg2))

    def jitter(doa):
        return float(np.clip(doa + float(rng.normal(0.0, std)), 0.5, 179.5))

    desired = dataclasses.replace(scn.desired, doa_deg=jitter(scn.desired.doa_deg))
    interferers = tuple(dataclasses.replace(src, doa_deg=jitter(src.doa_deg))
                        for src in scn.interferers)
    return dataclasses.replace(scn, desired=desired, interferers=interferers)
