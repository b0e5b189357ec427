"""MaxSINR weights and output SINR for full or sparse configurations.

The optimum weight vector is the principal eigenvector of R_xx^-1 R_s (equal,
up to scale, to that of R_sn^-1 R_s). A scene has one desired source, so R_s
is rank one and that eigenvector is the Capon direction R_xx^-1 s, computed by
one np.linalg.solve after a condition-number check; a source matrix of higher
rank is a ValueError. Weights are normalized so w^H R_s w = 1 with the first
nonzero entry real-positive.

Subset scoring, the inner loop of every selector and the one scorer behind
every exact-scene SINR the package reports, never forms a P x P matrix:
subset_sinr_batch works in interferer space, with one real matmul of the 0/1
masks against a per-scene table (scene_terms) and an (L+1) x (L+1) LDL^H
factorization per subset, vectorized over subsets.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import scene

COND_LIMIT = 1e12
# two scores within this relative band count as tied: a configuration and its
# mirror image score the same in exact arithmetic but not in floats
REL_TIE_TOL = 1e-12
# rank-1 test for PSD matrices: frobenius norm equals trace iff rank <= 1
_RANK1_REL_TOL = 1e-9
_DENOM_FLOOR = 1e-15
_CSV_BLOCK_CELLS = 1 << 15


class SingularMatrixError(np.linalg.LinAlgError):
    pass


@dataclass(frozen=True)
class Sinr:
    """Output SINR; linear scale with a dB view."""

    linear: float

    @property
    def db(self) -> float:
        return float(sinr_db(self.linear))


def sinr_db(linear) -> np.ndarray:
    return 10.0 * np.log10(linear)


# --- selection vectors and CSV output -------------------------------------


def validate_mask(mask, n_grid=None) -> np.ndarray:
    """Check a 0/1 selection vector and return it as an int array."""
    z = np.asarray(mask, dtype=int)
    if z.ndim != 1:
        raise ValueError("selection mask must be one-dimensional")
    if not np.all((z == 0) | (z == 1)):
        raise ValueError("selection mask entries must be 0 or 1")
    p = int(z.sum())
    if not 1 <= p <= z.size:
        raise ValueError(f"selection mask must have between 1 and N ones, got {p}")
    if n_grid is not None and z.size != n_grid:
        raise ValueError(f"selection mask length {z.size} != grid size {n_grid}")
    return z


def mask_from_indices(indices, n_grid: int) -> np.ndarray:
    z = np.zeros(n_grid, dtype=int)
    z[np.asarray(indices, dtype=int)] = 1
    return z


def indices_from_mask(mask) -> np.ndarray:
    return np.flatnonzero(np.asarray(mask))


def mask_bits(masks):
    """The '0'/'1' string of a mask (nonzero entries are '1'), or the list of
    them for a (M, N) stack: the one formatter of every mask written out."""
    z = np.asarray(masks)
    chars = (z != 0).view(np.uint8) + ord("0")
    text = chars.view(f"S{z.shape[-1]}").ravel().astype(str).tolist()
    return text[0] if z.ndim == 1 else text


def write_csv(path, header, rows) -> int:
    """Write `header` and `rows` (any iterable of equal-width cell sequences,
    formatted as drawn and written _CSV_BLOCK_CELLS cells at a time) as CSV;
    returns the number of rows. The one format of every file the package
    writes: "," between cells, "\r\n" after every line, each cell its str()
    (an int or float, numpy float64 too, its repr) and nothing quoted, so no
    string may hold ",", '"' or a line break. When `rows` raises, the file
    is removed."""
    rows = map(tuple, rows)
    line = ",".join(["%s"] * len(header)) + "\r\n"
    per_block = max(1, _CSV_BLOCK_CELLS // len(header))
    count = 0
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(",".join(header) + "\r\n")
            while lines := list(map(line.__mod__, itertools.islice(rows, per_block))):
                fh.write("".join(lines))
                count += len(lines)
    except BaseException:
        os.remove(path)
        raise
    return count


# --- core operations -------------------------------------------------------


def subarray(r: np.ndarray, mask) -> np.ndarray:
    """Principal submatrix of `r` at the active indices, order preserved."""
    idx = indices_from_mask(validate_mask(mask, n_grid=np.asarray(r).shape[0]))
    return np.asarray(r)[np.ix_(idx, idx)]


def _is_rank_one(r: np.ndarray) -> bool:
    tr = np.trace(r).real
    fro = np.linalg.norm(r)
    return abs(tr - fro) <= _RANK1_REL_TOL * max(tr, fro, 1e-300)


def max_sinr_weights(r_s: np.ndarray, r_xx: np.ndarray, mask=None) -> np.ndarray:
    """MaxSINR weight vector for the (sub)array.

    With `mask` given, `r_s`/`r_xx` are the full N x N matrices; the solve runs
    on the active-index submatrices and the result is embedded back into an
    N-vector with zeros at inactive locations. Without `mask`, the inputs are
    taken as the active array and the weights have their size.
    """
    r_s = np.asarray(r_s, dtype=complex)
    r_xx = np.asarray(r_xx, dtype=complex)
    if mask is not None:
        z = validate_mask(mask, n_grid=r_s.shape[0])
        rs_sub = subarray(r_s, z)
        rxx_sub = subarray(r_xx, z)
    else:
        rs_sub, rxx_sub = r_s, r_xx

    if np.linalg.cond(rxx_sub) > COND_LIMIT:
        raise SingularMatrixError(
            f"covariance submatrix is numerically singular (cond > {COND_LIMIT:g})"
        )

    if not _is_rank_one(rs_sub):
        raise ValueError("source matrix must be rank one (one desired source)")
    # Capon direction: any nonzero column of the rank-1 R_s is ~ s
    col = int(np.argmax(np.linalg.norm(rs_sub, axis=0)))
    w = np.linalg.solve(rxx_sub, rs_sub[:, col])

    quad = (w.conj() @ rs_sub @ w).real
    if quad <= 0:
        raise ValueError("degenerate source matrix: w^H R_s w is not positive")
    w = w / math.sqrt(quad)
    k0 = int(np.flatnonzero(np.abs(w) > 1e-12 * np.abs(w).max())[0])
    w = w * (w[k0].conj() / abs(w[k0]))

    if mask is None:
        return w
    full = np.zeros(r_s.shape[0], dtype=complex)
    full[indices_from_mask(z)] = w
    return full


def output_sinr(w: np.ndarray, r_s: np.ndarray, r_sn: np.ndarray) -> Sinr:
    """Rayleigh-quotient SINR of weights `w`; invariant to complex scaling."""
    w = np.asarray(w, dtype=complex)
    if not np.any(np.abs(w) > 0):
        raise ValueError("weight vector is zero")
    num = (w.conj() @ r_s @ w).real
    den = (w.conj() @ r_sn @ w).real
    if den < _DENOM_FLOOR:
        raise ValueError("degenerate SINR denominator (interference+noise power ~ 0)")
    return Sinr(num / den)


# --- fast batched scoring ---------------------------------------------------
#
# For a rank-1 source matrix sigma_d^2 s s^H, the optimum SINR of subarray J is
# the closed form sigma_d^2 * s_J^H (R_sn,J)^-1 s_J. An exact scene has
# R_sn = sigma^2 I + A diag(p) A^H with a few interferers (the columns of A),
# so by the matrix inversion lemma
#     s_J^H R_J^-1 s_J = (|s_J|^2 - b_J^H (sigma^2 diag(p)^-1 + G_J)^-1 b_J) / sigma^2
# with G_J = A_J^H A_J and b_J = A_J^H s_J: an L x L problem per subset, not a
# P x P one. G_J, b_J and |s_J|^2 are sums over the selected sensors, so one
# real matmul of the 0/1 masks against a per-scene table gives them for every
# subset at once. The enumeration oracle, the SBSA multi-start ranking and the
# evaluation re-scorer all use this one scorer.


@dataclass(frozen=True)
class SceneTerms:
    """Per-sensor terms of an exact scene, the input of subset_sinr_batch.

    With u = (a_1, ..., a_L, s), interferer steering vectors then the desired
    one, column c of the complex table holds conj(u_i[n]) * u_j[n] for the
    c-th pair i >= j in row-major lower-triangle order; `table` is that
    (N, W) complex array viewed as (N, 2W) floats (real and imaginary parts
    interleaved). `ridge` is noise_power / p_l per interferer.
    """

    table: np.ndarray
    ridge: np.ndarray
    noise_power: float
    source_power: float


@functools.lru_cache(maxsize=8)
def _lower_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(size), cached per source count as read-only arrays."""
    pairs = np.tril_indices(size)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def scene_terms(geom, scn) -> SceneTerms:
    u = scene.steering_matrix(geom, [*(src.doa_deg for src in scn.interferers),
                                     scn.desired.doa_deg])
    i, j = _lower_pairs(len(u))
    table = np.ascontiguousarray((u[i].conj() * u[j]).T).view(np.float64)
    return SceneTerms(
        table=table,
        ridge=np.array([scn.noise_power / src.power for src in scn.interferers]),
        noise_power=scn.noise_power,
        source_power=scn.desired.power,
    )


# an aliasing, far-above-noise interferer pair leaves a pivot at rounding level;
# its division warnings are expected, and the result is checked instead
@np.errstate(divide="ignore", invalid="ignore")
def subset_sinr_batch(terms: SceneTerms, masks) -> np.ndarray:
    """Optimum linear SINR of each 0/1 mask row of an exact scene.

    The masks times the table give, per subset, the Gram matrix H of u on the
    selected sensors. With the ridge added to its first L diagonal entries it
    is [[sigma^2 diag(p)^-1 + G_J, b_J], [b_J^H, |s_J|^2]], and the last pivot
    of its LDL^H factorization, computed for all rows at once, is the Schur
    complement |s_J|^2 - b_J^H (sigma^2 diag(p)^-1 + G_J)^-1 b_J. A score that
    is not finite and positive (the pivot lost every digit) is a ValueError.
    A lone row is scored as a two-row product: numpy hands a one-row product
    to GEMV, whose last bits can differ from the row's score in a table.
    """
    masks = np.asarray(masks, dtype=float)
    h = (np.vstack([masks, masks]) if len(masks) == 1 else masks) @ terms.table
    h = h[:len(masks)].view(complex)
    size = len(terms.ridge) + 1
    scaled, unit, pivots = {}, {}, []   # L_ij * d_j, L_ij and d_i of H = L D L^H
    col = 0
    for i in range(size):
        for j in range(i):
            v = h[:, col]
            for k in range(j):
                v = v - scaled[i, k] * unit[j, k].conj()
            scaled[i, j] = v
            unit[i, j] = v / pivots[j]
            col += 1
        d = h[:, col].real + (terms.ridge[i] if i < size - 1 else 0.0)
        for k in range(i):
            d = d - (scaled[i, k] * unit[i, k].conj()).real
        pivots.append(d)
        col += 1
    sinrs = (terms.source_power / terms.noise_power) * pivots[-1]
    if not (sinrs.min() > 0.0 and sinrs.max() < np.inf):  # NaN fails both
        raise ValueError("scene is numerically degenerate: a subset's SINR is not finite "
                         "and positive (interferers alias at extreme power)")
    return sinrs


def masks_sinr(geom, scn, masks) -> np.ndarray:
    """Optimum linear SINR for each 0/1 mask row, exact scene."""
    masks = np.atleast_2d(np.asarray(masks, dtype=int))
    p = int(masks[0].sum())
    if not np.all(masks.sum(axis=1) == p):
        raise ValueError("all masks must share one cardinality")
    return subset_sinr_batch(scene_terms(geom, scn), masks)
