"""Exhaustive subset search against an independent brute-force reference."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sparsebeam import beamformer, enumeration, harness, scene

from .oracles import (csv_writer_bytes, oracle_best_subset, oracle_covariances,
                      oracle_scan_subsets, oracle_subset_sinr, oracle_worst_subset,
                      random_oracle_case)


def scenario_from_case(desired, doas, powers, n_grid):
    scn = scene.Scenario(
        desired=scene.SourceSpec(doa_deg=desired),
        interferers=tuple(scene.SourceSpec(doa_deg=d, power=p)
                          for d, p in zip(doas, powers)),
        noise_power=1.0)
    return scene.ArrayGeometry(n_grid=n_grid), scn


def test_subset_rank_matches_combinations_order():
    n, p = 7, 3
    combos = list(itertools.combinations(range(n), p))
    for r, c in enumerate(combos):
        assert enumeration.subset_rank(c, n) == r
        assert enumeration.subset_unrank(r, n, p) == c


def test_subset_rank_validates_input():
    # order does not matter, range and distinctness do
    assert enumeration.subset_rank((3, 1), 5) == enumeration.subset_rank((1, 3), 5)
    with pytest.raises(ValueError):
        enumeration.subset_rank((1, 5), 5)
    with pytest.raises(ValueError):
        enumeration.subset_rank((2, 2), 5)
    with pytest.raises(ValueError):
        enumeration.subset_unrank(math.comb(5, 2), 5, 2)


def test_subset_rank_and_unrank_are_inverse_bijections():
    for n in range(1, 11):
        for p in range(1, n + 1):
            combos = list(itertools.combinations(range(n), p))
            for r, c in enumerate(combos):
                assert enumeration.subset_unrank(r, n, p) == c
                assert enumeration.subset_rank(c, n) == r
            for bad in (-1, len(combos)):
                with pytest.raises(ValueError):
                    enumeration.subset_unrank(bad, n, p)
    rng = np.random.default_rng(71)
    for n, p in ((20, 8), (24, 12)):
        count = math.comb(n, p)
        for r in rng.integers(0, count, size=200).tolist():
            c = enumeration.subset_unrank(r, n, p)
            assert len(c) == p and list(c) == sorted(set(c)) and 0 <= c[0] and c[-1] < n
            assert enumeration.subset_rank(c, n) == r
        for _ in range(200):
            c = tuple(sorted(rng.choice(n, size=p, replace=False).tolist()))
            assert enumeration.subset_unrank(enumeration.subset_rank(c, n), n, p) == c
        assert enumeration.subset_unrank(0, n, p) == tuple(range(p))
        assert enumeration.subset_unrank(count - 1, n, p) == tuple(range(n - p, n))
        for bad in (-1, count, count + 5):
            with pytest.raises(ValueError):
                enumeration.subset_unrank(bad, n, p)
    with pytest.raises(ValueError):
        enumeration.subset_unrank(0, 4, 5)


def test_enumerate_all_ranked_masks_match_rank_ids():
    rng = np.random.default_rng(72)
    desired, doas, powers = random_oracle_case(rng, 9)
    geom, scn = scenario_from_case(desired, doas, powers, 9)
    combos = list(itertools.combinations(range(9), 4))
    for with_objective in (False, True):
        ranking = enumeration.enumerate_all_ranked(geom, scn, 4, with_objective=with_objective)
        for rank_id, subset in zip(ranking.rank_ids, ranking.subsets):
            mask = beamformer.mask_from_indices(subset, 9)
            assert tuple(np.flatnonzero(mask)) == tuple(subset) == combos[rank_id]
            assert mask.sum() == 4


def test_enumerate_best_matches_reference_on_small_cases():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(5, 9))
        p = int(rng.integers(2, min(5, n)))
        desired, doas, powers = random_oracle_case(rng, n)
        geom, scn = scenario_from_case(desired, doas, powers, n)
        got = enumeration.enumerate_best(geom, scn, p)

        r_s, r_sn = oracle_covariances(n, 0.5, desired, 1.0, doas, powers, 1.0)
        ref_idx, ref_val = oracle_best_subset(r_s, r_sn, p)
        assert tuple(beamformer.indices_from_mask(got.mask)) == ref_idx
        assert got.sinr.linear == pytest.approx(ref_val, rel=1e-8)


def test_enumerate_worst_matches_reference():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(5, 9))
        p = int(rng.integers(2, min(5, n)))
        desired, doas, powers = random_oracle_case(rng, n)
        geom, scn = scenario_from_case(desired, doas, powers, n)
        got = enumeration.enumerate_worst(geom, scn, p)

        r_s, r_sn = oracle_covariances(n, 0.5, desired, 1.0, doas, powers, 1.0)
        ref_idx, ref_val = oracle_worst_subset(r_s, r_sn, p)
        assert tuple(beamformer.indices_from_mask(got.mask)) == ref_idx
        assert got.sinr.linear == pytest.approx(ref_val, rel=1e-8)


def test_enumerate_all_ranked_is_sorted_and_complete():
    rng = np.random.default_rng(3)
    desired, doas, powers = random_oracle_case(rng, 8)
    geom, scn = scenario_from_case(desired, doas, powers, 8)
    ranking = enumeration.enumerate_all_ranked(geom, scn, 3)
    assert len(ranking.rank_ids) == len(ranking.subsets) == math.comb(8, 3)
    sinrs = ranking.sinr.tolist()
    assert all(a >= b for a, b in zip(sinrs, sinrs[1:]))
    assert sorted(ranking.rank_ids.tolist()) == list(range(len(sinrs)))
    assert ranking.omega is None
    # head of the ranking agrees with the single-best search
    best = enumeration.enumerate_best(geom, scn, 3)
    assert ranking.sinr[0] == pytest.approx(best.sinr.linear, rel=1e-12)


def test_enumerate_all_ranked_objective_ordering():
    rng = np.random.default_rng(4)
    desired, doas, powers = random_oracle_case(rng, 8)
    geom, scn = scenario_from_case(desired, doas, powers, 8)
    ranking = enumeration.enumerate_all_ranked(geom, scn, 3, with_objective=True)
    assert ranking.omega is not None and len(ranking.omega) == len(ranking.rank_ids)
    omegas = ranking.omega.tolist()
    assert all(a <= b for a, b in zip(omegas, omegas[1:]))


def test_best_beats_every_subset_value():
    rng = np.random.default_rng(5)
    desired, doas, powers = random_oracle_case(rng, 9)
    geom, scn = scenario_from_case(desired, doas, powers, 9)
    best = enumeration.enumerate_best(geom, scn, 4)
    r_s, r_sn = oracle_covariances(9, 0.5, desired, 1.0, doas, powers, 1.0)
    for combo in itertools.combinations(range(9), 4):
        assert oracle_subset_sinr(r_s, r_sn, combo) <= best.sinr.linear * (1 + 1e-9)


def test_budget_guard_raises():
    geom = scene.ArrayGeometry(n_grid=20)
    scn = scene.Scenario(desired=scene.SourceSpec(doa_deg=60.0))
    with pytest.raises(enumeration.BudgetExceededError):
        enumeration.enumerate_best(geom, scn, 10, budget=1000)


def test_budget_counts_wide_grids_by_mask_cells():
    wide = enumeration.BUDGET_GRID * 4
    scn = scene.Scenario(desired=scene.SourceSpec(doa_deg=60.0))
    # C(N, 1) = N subsets fit a budget of N only while N <= BUDGET_GRID
    narrow = scene.ArrayGeometry(n_grid=enumeration.BUDGET_GRID)
    assert enumeration.enumerate_best(narrow, scn, 1, budget=narrow.n_grid).rank_id == 0
    with pytest.raises(enumeration.BudgetExceededError, match="sensors"):
        enumeration.enumerate_best(scene.ArrayGeometry(n_grid=wide), scn, 1, budget=wide)
    assert enumeration.enumerate_best(scene.ArrayGeometry(n_grid=wide), scn, 1,
                                      budget=4 * wide).rank_id == 0


def test_streamed_blocks_bound_mask_cells(monkeypatch):
    monkeypatch.setattr(enumeration, "_BLOCK_CELLS", 100)
    for n, p in ((12, 3), (30, 2), (150, 1)):
        start = 0
        for first, masks in enumeration._subset_chunks(n, p):
            assert first == start and masks.size <= max(100, n)
            assert np.array_equal(np.flatnonzero(masks[0]), enumeration.subset_unrank(first, n, p))
            start += len(masks)
        assert start == math.comb(n, p)
    rng = np.random.default_rng(73)
    desired, doas, powers = random_oracle_case(rng, 10)
    geom, scn = scenario_from_case(desired, doas, powers, 10)
    best = enumeration.enumerate_best(geom, scn, 4)
    monkeypatch.undo()
    ref = enumeration.enumerate_best(geom, scn, 4)
    assert best.rank_id == ref.rank_id


@pytest.mark.parametrize("cells, k", [(1134, 0), (504, 1), (189, 2), (54, 3), (53, 4), (1, 4)])
def test_blocks_follow_combinations_order(monkeypatch, cells, k):
    # C(9, 4) = 126 subsets: 126 x 9 = 1134 cells fit one block; with k
    # leading indices fixed, the C(9 - k, 4 - k) completions of each prefix
    # take 504, 189, 54 and 9 cells
    n, p = 9, 4
    monkeypatch.setattr(enumeration, "_BLOCK_CELLS", cells)
    want = iter(itertools.combinations(range(n), p))
    blocks = list(enumeration._subset_chunks(n, p))
    start = 0
    for first, masks in blocks:
        assert first == start and masks.size <= max(cells, n)
        assert len({tuple(np.flatnonzero(row)[:k]) for row in masks}) == 1
        for row in masks:
            assert tuple(np.flatnonzero(row)) == next(want)
        start += len(masks)
    assert next(want, None) is None
    # one block per k-subset that leaves room for P - k later indices
    assert len(blocks) == math.comb(n - p + k, k)
    if k == 0:
        assert blocks[0][1] is enumeration._subset_table(n, p, 0)


def test_enumeration_memory_is_bounded_by_blocks():
    # N = 20, P = 8: the cached table and one block copy hold at most one
    # block of mask cells each, and the scorer's scratch for four
    # interferers (30 Gram floats and the LDL^H terms a row) one more.
    # N = 200, P = 3: two leading indices leave a 198-row table, so the
    # blocks take far less than an eighth of a block
    block = 8 * enumeration._BLOCK_CELLS
    doas = (20.0, 100.0, 130.0, 150.0)
    for n, p, l_count, bound in ((20, 8, 4, 3 * block), (200, 3, 1, block // 8)):
        geom = scene.ArrayGeometry(n_grid=n)
        scn = scene.Scenario(desired=scene.SourceSpec(doa_deg=60.0), interferers=tuple(
            scene.SourceSpec(doa_deg=d, power=30.0) for d in doas[:l_count]))
        enumeration._subset_table.cache_clear()
        tracemalloc.start()
        try:
            best = enumeration.enumerate_best(geom, scn, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best.mask.sum() == p
        assert peak <= bound


def test_tied_optimum_resolves_to_lexicographically_first():
    # a symmetric scene makes each subset tie with its mirror image exactly
    geom = scene.ArrayGeometry(n_grid=8)
    scn = scene.Scenario(desired=scene.SourceSpec(doa_deg=90.0),
                         interferers=(scene.SourceSpec(doa_deg=60.0, power=10.0),
                                      scene.SourceSpec(doa_deg=120.0, power=10.0)))
    best = enumeration.enumerate_best(geom, scn, 3)
    mirror = best.mask[::-1]
    vals = beamformer.masks_sinr(geom, scn, np.stack([best.mask, mirror]))
    assert vals[1] <= vals[0] * (1 + 1e-12)
    if not np.array_equal(best.mask, mirror):
        assert enumeration.subset_rank(
            tuple(beamformer.indices_from_mask(best.mask)), 8) < enumeration.subset_rank(
            tuple(beamformer.indices_from_mask(mirror)), 8)


def test_ranked_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    desired, doas, powers = random_oracle_case(rng, 7)
    geom, scn = scenario_from_case(desired, doas, powers, 7)
    for with_objective in (False, True):
        ranking = enumeration.enumerate_all_ranked(geom, scn, 3, with_objective=with_objective)
        path = tmp_path / "ranked.csv"
        enumeration.write_ranked_csv(path, ranking)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rank_id,mask_bits,sinr_db,omega"
        assert len(lines) == len(ranking.rank_ids) + 1
        first = lines[1].split(",")
        assert int(first[0]) == ranking.rank_ids[0]
        assert float(first[2]) == beamformer.Sinr(float(ranking.sinr[0])).db
        assert (first[3] == "") == (not with_objective)
        # row by row: the cells csv.writer would write for each configuration
        rows = []
        for k in range(len(ranking.rank_ids)):
            mask = beamformer.mask_from_indices(ranking.subsets[k], 7)
            omega = "" if ranking.omega is None else repr(float(ranking.omega[k]))
            rows.append([int(ranking.rank_ids[k]), beamformer.mask_bits(mask),
                         repr(beamformer.Sinr(float(ranking.sinr[k])).db), omega])
        assert path.read_bytes() == csv_writer_bytes(
            tmp_path / "want.csv", ["rank_id", "mask_bits", "sinr_db", "omega"], rows)


@pytest.mark.parametrize("cells", [1, 60, 1 << 16])
def test_enumeration_is_independent_of_chunking(monkeypatch, cells):
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(12):
        n = int(rng.integers(5, 10))
        p = int(rng.integers(1, n))
        desired, doas, powers = random_oracle_case(rng, n)
        cases.append((*scenario_from_case(desired, doas, powers, n), p))
    # a symmetric scene: every subset ties with its mirror image
    cases.append((scene.ArrayGeometry(n_grid=8), scene.Scenario(
        desired=scene.SourceSpec(doa_deg=90.0),
        interferers=(scene.SourceSpec(doa_deg=60.0, power=10.0),
                     scene.SourceSpec(doa_deg=120.0, power=10.0))), 3))
    want = [(enumeration.enumerate_best(g, s, p), enumeration.enumerate_worst(g, s, p))
            for g, s, p in cases]
    # one cell a block leaves one row a block
    monkeypatch.setattr(enumeration, "_BLOCK_CELLS", cells)
    for (geom, scn, p), (best, worst) in zip(cases, want):
        for got, ref in ((enumeration.enumerate_best(geom, scn, p), best),
                         (enumeration.enumerate_worst(geom, scn, p), worst)):
            assert got.rank_id == ref.rank_id
            assert np.array_equal(got.mask, ref.mask)
            assert got.sinr.linear == pytest.approx(ref.sinr.linear, rel=beamformer.REL_TIE_TOL)


def test_masks_sinr_agrees_with_enumeration_table():
    # one mask scored alone against the same mask scored in the full table:
    # the matmul may sum them in another order, never outside the tie band
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(6, 13))
        p = int(rng.integers(2, n))
        desired, doas, powers = random_oracle_case(rng, n)
        geom, scn = scenario_from_case(desired, doas, powers, n)
        ranking = enumeration.enumerate_all_ranked(geom, scn, p)
        count = len(ranking.rank_ids)
        for k in [*range(5), *range(count - 5, count)]:
            mask = beamformer.mask_from_indices(ranking.subsets[k], n)
            alone = float(beamformer.masks_sinr(geom, scn, mask)[0])
            assert abs(alone - ranking.sinr[k]) <= beamformer.REL_TIE_TOL * ranking.sinr[k]
        best = enumeration.enumerate_best(geom, scn, p)
        assert best.sinr.linear >= ranking.sinr[0] / (1.0 + beamformer.REL_TIE_TOL)


def test_subset_table_is_shared_and_read_only():
    masks = enumeration._subset_table(7, 3, 0)
    assert enumeration._subset_table(7, 3, 0) is masks
    assert masks.shape == (math.comb(7, 3), 7)
    assert np.array_equal(np.flatnonzero(masks[0]), [0, 1, 2])
    # with two leading indices left to a prefix: every 1-subset of range(2, 7)
    tail = enumeration._subset_table(7, 3, 2)
    assert np.array_equal(tail, np.eye(7)[2:])
    with pytest.raises(ValueError):
        masks[0, 0] = 0.0
    with pytest.raises(ValueError):
        tail[0, 2] = 0.0


def default_config_scenes(n, p, count, seed, **overrides):
    """`count` scenes of an N-sensor grid drawn and jittered as scenario_stream
    draws them, cycling through the default look directions."""
    cfg = harness.ExperimentConfig(n_grid=n, n_select=p, **overrides)
    rng = np.random.default_rng((seed, n, p))
    looks = cfg.look_doas_deg
    return [harness._perturbed(harness.draw_scenario(cfg, looks[i % len(looks)], rng),
                               cfg.doa_variance_deg2, rng) for i in range(count)]


def assert_scan_matches_full_scan(geom, scn, p):
    for worst in (False, True):
        got = enumeration.scan_subsets(geom, scn, p, worst=worst)
        rank_id, mask, _ = oracle_scan_subsets(geom, scn, p, worst=worst)
        assert (got.rank_id, got.mask.tolist()) == (rank_id, mask.tolist())
        assert got.mask[0] == 1


def test_class_table_holds_one_member_of_every_class():
    for n in range(2, 13):
        for p in range(1, n + 1):
            rank_ids, masks = enumeration._class_table(n, p)
            again = enumeration._class_table(n, p)
            assert again[0] is rank_ids and again[1] is masks
            for a in (rank_ids, masks):
                with pytest.raises(ValueError):
                    a.flat[0] = 0
            rows = [tuple(np.flatnonzero(m).tolist()) for m in masks]
            assert [enumeration.subset_rank(r, n) for r in rows] == rank_ids.tolist()
            assert all(r[0] == 0 for r in rows)
            table = dict(zip(rows, range(len(rows))))
            hits = np.zeros(len(rows), dtype=int)
            for subset in itertools.combinations(range(n), p):
                # the class members that hold sensor 0: the subset and its
                # mirror, each shifted back to sensor 0
                shifted = tuple(i - subset[0] for i in subset)
                mirrored = tuple(subset[-1] - i for i in reversed(subset))
                found = {table[c] for c in (shifted, mirrored) if c in table}
                assert len(found) == 1
                hits[found.pop()] += 1
            assert hits.min() >= 1


def test_scan_matches_full_scan_on_default_config_scenes():
    # every P of N = 8..22, more scenes where C(N, P) is small: 3,000 and
    # more scenes, best and worst; from N = 21 the widest P take the
    # rank-prefix path
    scenes = 0
    for n in range(8, 23):
        geom = scene.ArrayGeometry(n)
        for p in range(1, n + 1):
            count = min(24, max(1, 60_000 // math.comb(n, p)))
            for scn in default_config_scenes(n, p, count, 91):
                assert_scan_matches_full_scan(geom, scn, p)
            scenes += count
    assert scenes >= 3000


@pytest.mark.parametrize("cells", [1, 100, 1000])
def test_scan_matches_full_scan_in_small_blocks(monkeypatch, cells):
    # the rank-prefix path, against the full scan in default blocks
    cases = [(n, p, scn) for n in (8, 10, 12) for p in range(1, n + 1)
             for scn in default_config_scenes(n, p, 3, 92)]
    want = [[oracle_scan_subsets(scene.ArrayGeometry(n), scn, p, worst=w)[:2]
             for w in (False, True)] for n, p, scn in cases]
    monkeypatch.setattr(enumeration, "_BLOCK_CELLS", cells)
    for (n, p, scn), refs in zip(cases, want):
        for worst, (rank_id, mask) in zip((False, True), refs):
            got = enumeration.scan_subsets(scene.ArrayGeometry(n), scn, p, worst=worst)
            assert (got.rank_id, got.mask.tolist()) == (rank_id, mask.tolist())


def test_scan_without_interferers_picks_the_first_subset():
    # every subset of an interference-free scene scores P * SNR, so the
    # first one wins both ways, P = 1 and P = N too
    for n in (8, 13, 21):
        geom = scene.ArrayGeometry(n)
        for p in (1, 2, n // 2, n - 1, n):
            for scn in default_config_scenes(n, p, 3, 93, n_interferers_range=(0, 0)):
                assert scn.n_interferers == 0
                assert_scan_matches_full_scan(geom, scn, p)
                assert enumeration.enumerate_best(geom, scn, p).rank_id == 0


def test_scan_scores_one_row_per_class_in_one_call_per_block(monkeypatch):
    # 246 of the 924 subsets at N=12/P=6, one call; at N=200/P=3 the table
    # of subsets holding sensor 0 exceeds a block, so the 198 prefix blocks
    # (0, b) are scored, C(199 - b, 1) rows each
    sizes = []
    score = beamformer.subset_sinr_batch
    monkeypatch.setattr(beamformer, "subset_sinr_batch",
                        lambda terms, masks: sizes.append(len(masks)) or score(terms, masks))
    scn = scene.Scenario(desired=scene.SourceSpec(60.0),
                         interferers=(scene.SourceSpec(100.0, 30.0),))
    for n, p, want in ((12, 6, [246]), (16, 6, [1547]), (200, 3, list(range(198, 0, -1)))):
        for search in (enumeration.enumerate_best, enumeration.enumerate_worst):
            sizes.clear()
            search(scene.ArrayGeometry(n), scn, p)
            assert sizes == want
