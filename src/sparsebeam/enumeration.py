"""Exhaustive search over all P-of-N configurations: the trusted oracle.

Subsets are visited in lexicographic order of their sorted index tuples, and
that order defines the stable rank_id used in files. Each scene is scored by
beamformer.subset_sinr_batch over blocks of 0/1 masks cut from one cached
table: with k the fewest leading indices whose completions fit _BLOCK_CELLS
mask cells, a block is the rows of the (P-k)-subsets of range(k, N) that lie
past one k-subset prefix, with the prefix's bits set (k = 0: the table
itself). The budget counts subsets, and on grids wider than BUDGET_GRID it
charges each subset N / BUDGET_GRID, so it bounds the mask cells an
enumeration touches as well. The reduction keeps the first configuration
within a 1e-12 relative tie band, so the argmax is the lexicographically
smallest optimal subset and is independent of the blocks.

The best and the worst need only one configuration per class of translates
and mirrors. In an exact scene (uncorrelated far-field sources in white noise
on a uniform grid) R_sn[m, n] depends on m - n alone, and translating a
subset J by t changes the desired steering vector by one phase, so
SINR(J + t) = SINR(J) in exact arithmetic; the mirror n -> N-1-n conjugates
the problem and keeps the SINR too. The subsets that hold sensor 0 rank
before all others (ranks below C(N-1, P-1)), and a class holds at most two
of them: any member shifted back to sensor 0, and its mirror shifted back.
So a class's first member holds sensor 0 and ranks no later than its
shifted mirror, and scan_subsets scores only such first members
(_class_table), so its winner holds sensor 0. Where the table they are cut
from, _subset_table(N, P, 1), would exceed one block, it scores instead the
blocks whose prefix starts with sensor 0: every subset that holds it. The
budget still charges C(N, P). A class's members differ in score by rounding
only, so its first member now wins where the full scan let rounding put a
later member ahead by more than the tie band.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import beamformer
from .beamformer import REL_TIE_TOL, Sinr, sinr_db

DEFAULT_BUDGET = 10_000_000
# a subset on a grid wider than this costs N / BUDGET_GRID of the budget, so
# the budget bounds the C(N,P) * N mask cells an enumeration touches
BUDGET_GRID = 64
# mask cells per block (16 MiB of float64)
_BLOCK_CELLS = 1 << 21


class BudgetExceededError(RuntimeError):
    def __init__(self, n: int, what: str, count: int, budget: int):
        wide = f" (each counted {n}/{BUDGET_GRID} times)" if n > BUDGET_GRID else ""
        super().__init__(f"{what}{wide} exceeds the enumeration budget of {budget}")
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class RankedConfiguration:
    rank_id: int
    mask: np.ndarray
    sinr: Sinr


@dataclass(frozen=True)
class Ranking:
    """Every configuration of one scene as columns, in sorted order."""

    n_grid: int
    rank_ids: np.ndarray
    subsets: np.ndarray
    sinr: np.ndarray
    omega: np.ndarray | None = None


def subset_rank(indices, n: int) -> int:
    """Rank of a sorted index tuple in lexicographic subset order."""
    indices = sorted(int(i) for i in indices)
    p = len(indices)
    if p == 0 or indices[0] < 0 or indices[-1] >= n:
        raise ValueError(f"subset indices must lie in [0, {n})")
    if len(set(indices)) != p:
        raise ValueError("subset indices must be distinct")
    rank = 0
    prev = -1
    for i, c in enumerate(indices):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, p - 1 - i)
        prev = c
    return rank


@functools.lru_cache(maxsize=8)
def _pascal(n: int, p: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """C(n, p) and the binomials `subset_unrank` reads: rows[b][v] = C(n-1-v, b)."""
    rows = tuple(tuple(math.comb(n - 1 - v, b) for v in range(n)) for b in range(p))
    return math.comb(n, p), rows


def subset_unrank(rank: int, n: int, p: int) -> tuple[int, ...]:
    """Sorted index tuple at `rank` in lexicographic subset order."""
    count, rows = _pascal(n, p) if 0 <= p <= n else (0, ())
    if not 0 <= rank < count:
        raise ValueError(f"rank {rank} out of range for C({n},{p})")
    out = []
    v = 0
    for left in range(p - 1, -1, -1):
        # skip every first index v whose C(n-1-v, left) completions all rank
        # below the target
        row = rows[left]
        while rank >= (c := row[v]):
            rank -= c
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


def charge_budget(n: int, count: int, budget: int, what: str) -> None:
    """Raise BudgetExceededError when `count` masks of `n` cells each, `what`,
    cost more than `budget`; a budget below 1 is a ValueError."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if count * max(n, BUDGET_GRID) > budget * BUDGET_GRID:
        raise BudgetExceededError(n, what, count, budget)


def _check_budget(n: int, p: int, budget: int) -> int:
    if not 1 <= p <= n:
        raise ValueError(f"P must satisfy 1 <= P <= N, got P={p}, N={n}")
    count = math.comb(n, p)
    charge_budget(n, count, budget, f"C({n},{p}) = {count} subsets of {n} sensors")
    return count


def _index_masks(subsets: np.ndarray, n: int) -> np.ndarray:
    masks = np.zeros((len(subsets), n))
    np.put_along_axis(masks, subsets, 1.0, axis=1)
    return masks


@functools.lru_cache(maxsize=4)
def _subset_table(n: int, p: int, k: int) -> np.ndarray:
    """Every (P-k)-subset of range(k, n) as read-only (C, N) float masks, in
    lexicographic order."""
    subsets = np.array(list(itertools.combinations(range(k, n), p - k)), dtype=np.intp)
    masks = _index_masks(subsets, n)
    masks.flags.writeable = False
    return masks


def _subset_chunks(n: int, p: int):
    """Yield (start_rank, float masks) blocks of every P-subset of range(n)
    in lexicographic order, each within max(_BLOCK_CELLS, n) mask cells; the
    k-subset prefixes of the module docstring, where k = p leaves one row."""
    k = next((k for k in range(p) if math.comb(n - k, p - k) * n <= _BLOCK_CELLS), p)
    table = _subset_table(n, p, k)
    if k == 0:
        yield 0, table
        return
    start = 0
    for prefix in itertools.combinations(range(n - p + k), k):
        block = table[len(table) - math.comb(n - 1 - prefix[-1], p - k):].copy()
        block[:, prefix] = 1.0
        yield start, block
        start += len(block)


@functools.lru_cache(maxsize=4)
def _class_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The first member of every translate-and-mirror class of P-subsets of
    range(n), as read-only rank ids and (C, N) float masks in rank order: the
    rows of _subset_table(n, p, 1), with sensor 0 added, whose index tuple
    is no later than its mirror's shifted back to sensor 0."""
    tail = _subset_table(n, p, 1)
    # the rank of a subset that holds sensor 0 is its row in `tail`
    idx = np.zeros((len(tail), p), dtype=np.intp)
    idx[:, 1:] = tail.nonzero()[1].reshape(len(tail), p - 1)
    diff = idx - (idx[:, -1:] - idx[:, ::-1])
    first = np.argmax(diff != 0, axis=1)
    rank_ids = np.flatnonzero(np.take_along_axis(diff, first[:, None], axis=1)[:, 0] <= 0)
    masks = tail[rank_ids]
    masks[:, 0] = 1.0
    for a in (rank_ids, masks):
        a.flags.writeable = False
    return rank_ids, masks


def _class_blocks(n: int, p: int):
    """Yield (rank ids, float masks) blocks holding the first member of every
    translate-and-mirror class (module docstring): _class_table when
    _subset_table(n, p, 1) fits one block, else the blocks of _subset_chunks
    that lie below rank C(n-1, p-1)."""
    held = math.comb(n - 1, p - 1)
    if held * n <= _BLOCK_CELLS:
        yield _class_table(n, p)
        return
    for start, masks in _subset_chunks(n, p):
        if start >= held:
            return
        yield range(start, start + len(masks)), masks


def scan_subsets(geom, scn, p: int, worst: bool = False,
                 budget: int = DEFAULT_BUDGET) -> RankedConfiguration:
    """The subset of highest output SINR, or the lowest with `worst`, scored
    block by block with beamformer.subset_sinr_batch over the first member
    of every translate-and-mirror class, so the winner holds sensor 0.

    Distinct subsets that score the same in exact arithmetic differ by
    ~1e-14 in floats, so the first subset in lexicographic order within the
    relative tie band of the extreme wins, whatever the blocks.
    """
    _check_budget(geom.n_grid, p, budget)
    terms = beamformer.scene_terms(geom, scn)
    kept = None
    for rank_ids, masks in _class_blocks(geom.n_grid, p):
        vals = beamformer.subset_sinr_batch(terms, masks)
        if worst:
            k = int(np.argmax(vals <= vals.min() * (1.0 + REL_TIE_TOL)))
            wins = kept is None or vals[k] < kept[2] * (1.0 - REL_TIE_TOL)
        else:
            k = int(np.argmax(vals >= vals.max() / (1.0 + REL_TIE_TOL)))
            wins = kept is None or vals[k] > kept[2] * (1.0 + REL_TIE_TOL)
        if wins:
            kept = (int(rank_ids[k]), masks[k].astype(int), float(vals[k]))
    return RankedConfiguration(rank_id=kept[0], mask=kept[1], sinr=Sinr(kept[2]))


def enumerate_best(geom, scn, p: int, budget: int = DEFAULT_BUDGET) -> RankedConfiguration:
    """Globally MaxSINR configuration; ties go to the smallest index tuple."""
    return scan_subsets(geom, scn, p, budget=budget)


def enumerate_worst(geom, scn, p: int, budget: int = DEFAULT_BUDGET) -> RankedConfiguration:
    """Globally minimum-SINR configuration (the worst-case baseline)."""
    return scan_subsets(geom, scn, p, worst=True, budget=budget)


def enumerate_all_ranked(geom, scn, p: int, with_objective: bool = False,
                         budget: int = DEFAULT_BUDGET) -> Ranking:
    """All C(N,P) configurations as a Ranking, sorted.

    With `with_objective`, the ranking carries the spectral-overlap objective
    and is sorted ascending by it (the diagnostic-plot x-axis); otherwise the
    sort is descending by SINR. Ties keep lexicographic subset order.
    """
    count = _check_budget(geom.n_grid, p, budget)
    from . import sbsa  # a top-level import would be circular
    terms = beamformer.scene_terms(geom, scn)
    sinrs = np.empty(count)
    omegas = np.empty(count) if with_objective else None
    weights = sbsa.overlap_weights(geom, scn) if with_objective else None
    for start, masks in _subset_chunks(geom.n_grid, p):
        sinrs[start:start + len(masks)] = beamformer.subset_sinr_batch(terms, masks)
        if with_objective:
            omegas[start:start + len(masks)] = sbsa.omega_batch(sbsa.lag_counts(masks), weights)
    # stable: equal keys keep ascending rank_id
    order = np.argsort(omegas if with_objective else -sinrs, kind="stable")
    n = geom.n_grid
    subsets = np.array([subset_unrank(r, n, p) for r in order.tolist()], dtype=np.intp)
    return Ranking(n, order, subsets, sinrs[order], omegas[order] if with_objective else None)


def write_ranked_csv(path, ranking: Ranking) -> None:
    """Dump a ranking as CSV: rank_id, mask_bits, sinr_db, omega (or empty)."""
    bits = beamformer.mask_bits(_index_masks(ranking.subsets, ranking.n_grid))
    omega = [""] * len(bits) if ranking.omega is None else ranking.omega.tolist()
    beamformer.write_csv(path, ["rank_id", "mask_bits", "sinr_db", "omega"], zip(
        ranking.rank_ids.tolist(), bits, sinr_db(ranking.sinr).tolist(), omega))
