"""Exhaustive search over all P-of-N configurations: the trusted oracle.

Subsets are visited in lexicographic order of their sorted index tuples, and
that order defines the stable rank_id used in files. Each scene is scored by
beamformer.subset_sinr_batch over blocks of 0/1 masks (one cached table per
(N, P) when all subsets fit in one block, and at most _BLOCK_CELLS mask
cells per block otherwise); the budget counts subsets, and on grids wider
than BUDGET_GRID it charges each subset N / BUDGET_GRID, so it bounds the
mask cells an enumeration touches as well. The reduction keeps the first
configuration within a 1e-12 relative tie band, so the argmax is the
lexicographically smallest optimal subset and is independent of chunking.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import beamformer
from .beamformer import REL_TIE_TOL, Sinr, mask_bits

DEFAULT_BUDGET = 10_000_000
# a subset on a grid wider than this costs N / BUDGET_GRID of the budget, so
# the budget bounds the C(N,P) * N mask cells an enumeration touches
BUDGET_GRID = 64
_CHUNK = 1 << 16
# mask cells per streamed block (16 MiB of float64): _CHUNK rows up to N = 32
_BLOCK_CELLS = 1 << 21


class BudgetExceededError(RuntimeError):
    def __init__(self, n: int, what: str, count: int, budget: int):
        wide = f" of {n} sensors (each counted {n}/{BUDGET_GRID} times)" if n > BUDGET_GRID else ""
        super().__init__(f"{what}{wide} exceeds the enumeration budget of {budget}")
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class RankedConfiguration:
    rank_id: int
    mask: np.ndarray
    sinr: Sinr
    objective: float | None = None


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
    """Raise BudgetExceededError when `count` masks of `n` sensors, `what`,
    cost more than `budget`."""
    if count * max(n, BUDGET_GRID) > budget * BUDGET_GRID:
        raise BudgetExceededError(n, what, count, budget)


def _check_budget(n: int, p: int, budget: int) -> int:
    if not 1 <= p <= n:
        raise ValueError(f"P must satisfy 1 <= P <= N, got P={p}, N={n}")
    count = math.comb(n, p)
    charge_budget(n, count, budget, f"C({n},{p}) = {count} subsets")
    return count


def _index_masks(subsets: np.ndarray, n: int) -> np.ndarray:
    masks = np.zeros((len(subsets), n))
    np.put_along_axis(masks, subsets, 1.0, axis=1)
    return masks


@functools.lru_cache(maxsize=4)
def _subset_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every P-subset of range(n) as read-only (C, P) indices and (C, N) float masks."""
    subsets = np.array(list(itertools.combinations(range(n), p)), dtype=np.intp)
    masks = _index_masks(subsets, n)
    subsets.flags.writeable = masks.flags.writeable = False
    return subsets, masks


def _subset_chunks(n: int, p: int):
    """Yield (start_rank, indices, float masks) blocks of at most _CHUNK
    subsets and _BLOCK_CELLS mask cells, in lexicographic order. An
    enumeration that fits in one block comes from the cached table; a bigger
    one is streamed."""
    rows = max(1, min(_CHUNK, _BLOCK_CELLS // n))
    if math.comb(n, p) <= rows:
        yield 0, *_subset_table(n, p)
        return
    it = itertools.combinations(range(n), p)
    start = 0
    while block := list(itertools.islice(it, rows)):
        subsets = np.array(block, dtype=np.intp)
        yield start, subsets, _index_masks(subsets, n)
        start += len(block)


def scan_subsets(n: int, p: int, score, worst: bool = False,
                 budget: int = DEFAULT_BUDGET) -> tuple[int, np.ndarray, float]:
    """(rank, 0/1 mask, score) of the subset with the highest score, or the
    lowest with `worst`; `score(indices, masks)` rates one chunk.

    A configuration and its grid-reversed mirror score the same in exact
    arithmetic but differ by ~1e-14 in floats, so the first subset in
    lexicographic order within the relative tie band of the extreme wins,
    whatever the chunking.
    """
    _check_budget(n, p, budget)
    kept = None
    for start, subsets, masks in _subset_chunks(n, p):
        vals = score(subsets, masks)
        if worst:
            k = int(np.argmax(vals <= vals.min() * (1.0 + REL_TIE_TOL)))
            wins = kept is None or vals[k] < kept[2] * (1.0 - REL_TIE_TOL)
        else:
            k = int(np.argmax(vals >= vals.max() / (1.0 + REL_TIE_TOL)))
            wins = kept is None or vals[k] > kept[2] * (1.0 + REL_TIE_TOL)
        if wins:
            kept = (start + k, masks[k].astype(int), float(vals[k]))
    return kept


def _scan_scene(geom, scn, p: int, worst: bool, budget: int) -> RankedConfiguration:
    terms = beamformer.scene_terms(geom, scn)
    rank, mask, val = scan_subsets(
        geom.n_grid, p, lambda _, masks: beamformer.subset_sinr_batch(terms, masks),
        worst=worst, budget=budget)
    return RankedConfiguration(rank_id=rank, mask=mask, sinr=Sinr(val))


def enumerate_best(geom, scn, p: int, budget: int = DEFAULT_BUDGET) -> RankedConfiguration:
    """Globally MaxSINR configuration; ties go to the smallest index tuple."""
    return _scan_scene(geom, scn, p, False, budget)


def enumerate_worst(geom, scn, p: int, budget: int = DEFAULT_BUDGET) -> RankedConfiguration:
    """Globally minimum-SINR configuration (the worst-case baseline)."""
    return _scan_scene(geom, scn, p, True, budget)


def enumerate_all_ranked(geom, scn, p: int, with_objective: bool = False,
                         dft_length: int | None = None,
                         budget: int = DEFAULT_BUDGET) -> list[RankedConfiguration]:
    """All C(N,P) configurations, sorted.

    With `with_objective`, entries carry the spectral-overlap objective and the
    list is sorted ascending by it (the diagnostic-plot x-axis); otherwise the
    sort is descending by SINR. Ties keep lexicographic subset order.
    """
    count = _check_budget(geom.n_grid, p, budget)
    if with_objective:
        from . import sbsa

        k = dft_length if dft_length is not None else sbsa.default_dft_length(geom.n_grid)
    terms = beamformer.scene_terms(geom, scn)
    sinrs = np.empty(count)
    omegas = np.empty(count) if with_objective else None
    for start, _, masks in _subset_chunks(geom.n_grid, p):
        sinrs[start:start + len(masks)] = beamformer.subset_sinr_batch(terms, masks)
        if with_objective:
            omegas[start:start + len(masks)] = sbsa.omega_batch(masks, geom, scn, k)
    # stable: equal keys keep ascending rank_id
    order = np.argsort(omegas if with_objective else -sinrs, kind="stable")

    n = geom.n_grid
    rank_ids = order.tolist()
    subsets = np.array([subset_unrank(r, n, p) for r in rank_ids], dtype=np.intp)
    masks = np.zeros((count, n), dtype=int)
    np.put_along_axis(masks, subsets, 1, axis=1)
    objectives = omegas[order].tolist() if with_objective else [None] * count
    return [RankedConfiguration(rank_id=r, mask=z, sinr=Sinr(s), objective=o)
            for r, z, s, o in zip(rank_ids, masks, sinrs[order].tolist(), objectives)]


def write_ranked_csv(path, ranked: list[RankedConfiguration]):
    """Dump a ranked list as CSV: rank_id, mask_bits, sinr_db, omega."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rank_id", "mask_bits", "sinr_db", "omega"])
        for rc in ranked:
            w.writerow([
                rc.rank_id,
                mask_bits(rc.mask),
                repr(rc.sinr.db),
                "" if rc.objective is None else repr(rc.objective),
            ])
