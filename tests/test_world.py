import hashlib
import tracemalloc

import numpy as np
import pytest

from kinospline import search as se
from kinospline import splines as sp
from kinospline import world as wd

import oracles
from test_search import feasible_succs


def small_random_world(seed=0, dims=(20, 20, 20), frac=0.03,
                       cells=(0.13, 0.2, 0.25)):
    rng = np.random.default_rng(seed)
    occ = rng.random(dims) < frac
    return wd.VoxelWorld(np.array(dims), np.array(cells), np.zeros(3), occ)


class TestGenerators:
    def test_density_zero_empty(self):
        spec = wd.MapGenSpec(kind="pillars", extent=(10, 10, 2),
                             cell_sizes=(0.25,) * 3, density=0.0)
        assert wd.generate(spec).occ.sum() == 0

    def test_pillar_count_matches_density(self):
        spec = wd.MapGenSpec(kind="pillars", extent=(20, 20, 4),
                             cell_sizes=(0.2,) * 3, density=0.1,
                             footprint=(0.5, 0.5), seed=7)
        w = wd.generate(spec)
        # 40 pillars of 0.5 x 0.5 m, full height, possibly overlapping:
        # occupied volume is bounded by count * footprint cells
        per_pillar = int(np.ceil(0.5 / 0.2) + 1) ** 2 * w.dims[2]
        assert 0 < w.occ.sum() <= 40 * per_pillar

    def test_same_seed_identical(self):
        spec = wd.MapGenSpec(kind="pillars", extent=(20, 20, 4),
                             cell_sizes=(0.25,) * 3, density=0.3, seed=13)
        assert np.array_equal(wd.generate(spec).occ, wd.generate(spec).occ)
        spec2 = wd.MapGenSpec(kind="noise", extent=(10, 10, 3),
                              cell_sizes=(0.25,) * 3, seed=3)
        assert np.array_equal(wd.generate(spec2).occ, wd.generate(spec2).occ)

    def test_noise_has_structure(self):
        spec = wd.MapGenSpec(kind="noise", extent=(10, 10, 3),
                             cell_sizes=(0.25,) * 3, seed=5)
        w = wd.generate(spec)
        frac = w.occ.mean()
        assert 0.005 < frac < 0.6

    def test_rounding_never_truncates(self):
        spec = wd.MapGenSpec(kind="empty", extent=(1.01, 1.0, 1.0),
                             cell_sizes=(0.25,) * 3)
        w = wd.generate(spec)
        assert w.dims[0] == 5 and w.dims[1] == 4

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            wd.MapGenSpec(kind="swamp", extent=(1, 1, 1), cell_sizes=(0.1,) * 3)
        with pytest.raises(ValueError):
            wd.MapGenSpec(kind="pillars", extent=(1, 1, 1),
                          cell_sizes=(0.1,) * 3, density=-1)
        for footprint in ((-1.0, 1.0), (0.5, 0.0), (float("nan"), 0.5)):
            with pytest.raises(ValueError, match="footprint"):
                wd.MapGenSpec(kind="pillars", extent=(1, 1, 1),
                              cell_sizes=(0.1,) * 3, density=1.0,
                              footprint=footprint)

    @pytest.mark.parametrize("field, value", [
        ("extent", (float("nan"), 5.0, 2.0)),
        ("extent", (20.0, float("inf"), 2.0)),
        ("extent", (20.0, 5.0, -float("inf"))),
        ("cell_sizes", (0.2, float("nan"), 0.2)),
        ("cell_sizes", (float("inf"), 0.2, 0.2)),
        ("density", float("nan")),
        ("density", float("inf")),
    ])
    def test_spec_rejects_non_finite(self, field, value):
        kw = dict(kind="pillars", extent=(20.0, 5.0, 2.0),
                  cell_sizes=(0.2,) * 3, density=0.1)
        kw[field] = value
        with pytest.raises(ValueError, match="finite"):
            wd.MapGenSpec(**kw)


# (kind, extent, cell sizes, density, seed, occupied cells, sha256 prefix
# of the occupancy bytes) of every generated map the tests and the
# benchmark use, recorded when generate still created its random generator
# for every kind: the maps must not depend on when it is created
GENERATED = [
    ("empty", (10.2, 10.2, 2.0), (0.2, 0.2, 0.4), 0.0, 0, 0, "7f84cceafe1a2be7"),
    ("empty", (12, 8, 2.4), (0.2, 0.2, 0.2), 0.0, 0, 0, "19a9b0eb3572bcbe"),
    ("pillars", (20, 20, 4), (0.25, 0.25, 0.25), 0.1, 7, 2464, "517538f9348fd15e"),
    ("pillars", (20, 20, 4), (0.25, 0.25, 0.25), 0.2, 11, 5024, "c65f316e3c9f26ee"),
    ("pillars", (20, 20, 4), (0.25, 0.25, 0.25), 0.4, 17, 9728, "d326caee17ec3881"),
    ("pillars", (15, 15, 4), (0.25, 0.25, 0.25), 0.25, 3, 3424, "f84724b79ef309df"),
    ("pillars", (15, 15, 4), (0.25, 0.25, 0.25), 0.25, 4, 3472, "e30feb489a73732e"),
    ("pillars", (15, 15, 4), (0.25, 0.25, 0.25), 0.15, 2, 2160, "cae21318e3de136e"),
    ("pillars", (15, 15, 4), (0.25, 0.25, 0.25), 0.2, 4, 2832, "81ffaa4e601a0042"),
    ("pillars", (12, 8, 2.4), (0.2, 0.2, 0.2), 0.15, 5, 996, "87ecd6cb6d253334"),
    ("pillars", (20, 20, 4), (0.2, 0.2, 0.2), 0.1, 7, 4720, "5c01d34c1085fa6e"),
    ("pillars", (20, 20, 4), (0.25, 0.25, 0.25), 0.3, 13, 7248, "b760c512473c2681"),
    ("noise", (10, 10, 3), (0.25, 0.25, 0.25), 0.0, 3, 1938, "391fb21deac8f6fc"),
    ("noise", (10, 10, 3), (0.25, 0.25, 0.25), 0.0, 5, 3610, "168d353611668560"),
]


@pytest.mark.parametrize("kind,extent,cells,density,seed,count,digest",
                         GENERATED)
def test_generated_maps_unchanged(kind, extent, cells, density, seed, count,
                                  digest):
    w = wd.generate(wd.MapGenSpec(kind=kind, extent=extent, cell_sizes=cells,
                                  density=density, seed=seed))
    assert int(w.occ.sum()) == count
    assert hashlib.sha256(w.occ.tobytes()).hexdigest()[:16] == digest


def test_bench_course_equals_box_chain():
    for cell in (0.2, 0.25):
        w = wd.generate(wd.MapGenSpec(kind="empty", extent=(20.0, 10.0, 3.0),
                                      cell_sizes=(cell,) * 3))
        for lo, hi in (((5.0, 0.0, 0.0), (5.4, 3.6, 3.0)),
                       ((5.0, 6.4, 0.0), (5.4, 10.0, 3.0)),
                       ((7.6, 2.2, 1.8), (9.0, 7.8, 2.4)),
                       ((10.6, 0.0, 0.0), (11.0, 5.6, 3.0)),
                       ((13.6, 4.4, 0.0), (14.0, 10.0, 3.0))):
            w = wd.add_box(w, lo, hi)
        for cx, cy in ((16.2, 3.4), (17.6, 5.0), (16.6, 7.2)):
            w = wd.add_box(w, (cx - 0.25, cy - 0.25, 0.0),
                           (cx + 0.25, cy + 0.25, 3.0))
        course = wd.bench_course(cell=cell)
        assert np.array_equal(course.occ, w.occ)
        assert np.array_equal(course.dims, w.dims)
    assert hashlib.sha256(wd.bench_course().occ.tobytes()).hexdigest()[:16] \
        == "6595c1b1a393ef10"


class TestConfigSpace:
    def test_zero_inflation_equals_raw(self):
        w = small_random_world()
        cs = wd.build_config_space(w, 0.0)
        assert np.array_equal(cs.occ_inflated, w.occ)

    def test_inflation_monotone(self):
        w = small_random_world(seed=4)
        sets = [wd.build_config_space(w, d).occ_inflated
                for d in (0.0, 0.15, 0.3, 0.6)]
        for a, b in zip(sets, sets[1:]):
            assert np.all(a <= b)

    def test_single_cell_face_and_corner(self):
        occ = np.zeros((7, 7, 7), dtype=bool)
        occ[3, 3, 3] = True
        w = wd.VoxelWorld(np.array([7] * 3), np.array([0.2] * 3), np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.6 * 0.2)
        # face neighbors: center-to-box distance c/2 <= delta
        for off in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)):
            assert cs.occ_inflated[3 + off[0], 3 + off[1], 3 + off[2]]
        # corner neighbor center is sqrt(3)/2 c away from the box: free
        assert not cs.occ_inflated[4, 4, 4]

    def test_is_free_and_bounds(self):
        w = small_random_world(seed=5)
        cs = wd.build_config_space(w, 0.2)
        occ_cell = tuple(np.argwhere(cs.occ_inflated)[0])
        assert not cs.is_free(occ_cell)
        with pytest.raises(IndexError):
            cs.is_free((99, 0, 0))


class TestNNSearch:
    def test_empty_box_center(self):
        w = wd.VoxelWorld(np.array([40, 40, 40]), np.array([0.25] * 3),
                          np.zeros(3), np.zeros((40, 40, 40), dtype=bool))
        cs = wd.build_config_space(w, 0.0)
        pt, r = cs.nn_search(np.array([5.0, 5.0, 5.0]))
        assert r == pytest.approx(5.0, abs=1e-12)

    def test_wall_query_within_half_diagonal(self):
        occ = np.zeros((40, 40, 40), dtype=bool)
        occ[20, :, :] = True
        w = wd.VoxelWorld(np.array([40] * 3), np.array([0.25] * 3),
                          np.zeros(3), occ)
        cs = wd.build_config_space(w, 0.0)
        q = np.array([4.5, 5.0, 5.0])
        pt, r = cs.nn_search(q)
        true_wall = 0.5  # perpendicular distance to the wall surface
        half_diag = 0.5 * np.linalg.norm(w.cell_sizes)
        assert true_wall <= r <= true_wall + half_diag

    def test_matches_brute_force(self):
        w = small_random_world(seed=6, dims=(12, 12, 12))
        cs = wd.build_config_space(w, 0.2)
        rng = np.random.default_rng(0)
        diag = np.linalg.norm(w.cell_sizes)
        for _ in range(50):
            p = rng.uniform(0.3, np.asarray(w.extent) - 0.3)
            _, r = cs.nn_search(p)
            ref = oracles.brute_force_nn(cs, p)
            assert abs(r - ref) < 1e-9 or abs(r - ref) <= diag

    def test_out_of_bounds(self):
        w = small_random_world(seed=7)
        cs = wd.build_config_space(w, 0.0)
        with pytest.raises(ValueError):
            cs.nn_search(np.array([-1.0, 0.0, 0.0]))


class TestNeighbors:
    """The tuple search's successor cells of a tuple at rest, under bounds
    too wide to bind, are the cell itself and its in-grid 26-neighbors."""

    @staticmethod
    def _neighbors(cell, dims):
        w = wd.VoxelWorld(np.array(dims), np.full(3, 0.2), np.zeros(3),
                          np.zeros(dims, dtype=bool))
        wide = sp.DerivativeBounds.symmetric(50.0, 500.0)
        succs = feasible_succs(se.static_tuple(cell, 5, w),
                               wd.build_config_space(w, 0.0), wide, 0.17)
        ends = [tuple(int(v) for v in s.cells[-1]) for s in succs]
        assert tuple(cell) in ends and len(set(ends)) == len(ends)
        ends.remove(tuple(cell))
        assert set(ends) == set(oracles.neighbors26(cell, dims))
        return ends

    def test_interior_26(self):
        assert len(self._neighbors((5, 5, 5), (40, 40, 40))) == 26

    def test_corner_7(self):
        assert len(self._neighbors((0, 0, 0), (40, 40, 40))) == 7

    def test_face_17(self):
        assert len(self._neighbors((0, 5, 5), (40, 40, 40))) == 17


class TestMapIO:
    def test_rle_roundtrip(self, tmp_path):
        w = small_random_world(seed=8)
        path = tmp_path / "m.ksg"
        wd.save_map(w, path)
        w2 = wd.load_map(path)
        assert np.array_equal(w.occ, w2.occ)
        assert np.allclose(w.cell_sizes, w2.cell_sizes)
        assert np.array_equal(w.dims, w2.dims)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.ksg"
        path.write_text("NOTAMAP 1 1 1\n")
        with pytest.raises(ValueError):
            wd.load_map(path)

    def test_ascii_cells(self, tmp_path):
        path = tmp_path / "cells.txt"
        path.write_text("# fixture\n1 2 3\n0 0 0\n")
        w = oracles.load_cells_ascii(path, (4, 4, 4), (0.5, 0.5, 0.5))
        assert w.occ[1, 2, 3] and w.occ[0, 0, 0]
        assert w.occ.sum() == 2


def test_updated_config_space_matches_rebuild():
    w = small_random_world(seed=9, dims=(14, 14, 10))
    base = wd.VoxelWorld(w.dims, w.cell_sizes, w.origin,
                         np.zeros(tuple(w.dims), dtype=bool))
    cs0 = wd.build_config_space(base, 0.3)
    fresh = w.occ.copy()
    cs1 = wd.updated_config_space(cs0, w, np.flatnonzero(fresh))
    cs_ref = wd.build_config_space(w, 0.3)
    assert np.array_equal(cs1.occ_inflated, cs_ref.occ_inflated)


@pytest.mark.parametrize("delta", [0.0, 0.2, 0.45, 0.9])
def test_updated_config_space_on_faces_and_corners(delta):
    # fresh cells on grid corners, edges and faces dilate into a clipped
    # box; at 0.9 m the stencil spans 11 x-rows, and the grid grows so the
    # base's own inflation does not cover it whole
    rng = np.random.default_rng(3)
    dims, frac = ((7, 6, 5), 0.05) if delta < 0.9 else ((15, 13, 11), 0.002)
    base = wd.VoxelWorld(np.array(dims), np.array([0.2, 0.25, 0.15]),
                         np.array([-1.0, 0.5, 0.0]),
                         rng.random(dims) < frac)
    cs0 = wd.build_config_space(base, delta)
    fresh = np.zeros(dims, dtype=bool)
    for cell in ((0, 0, 0), (6, 5, 4), (0, 5, 0), (6, 0, 4), (0, 3, 2),
                 (6, 2, 1), (3, 0, 4), (2, 5, 3), (4, 1, 0), (5, 4, 4)):
        # an upper face of the 7 x 6 x 5 grid is the upper face of dims
        fresh[tuple(n - 1 if c == t - 1 else c
                    for c, t, n in zip(cell, (7, 6, 5), dims))] = True
    w = base.with_occ(base.occ | fresh)
    cs1 = wd.updated_config_space(cs0, w,
                                  np.flatnonzero(fresh & ~base.occ))
    ref = wd.build_config_space(w, delta)
    assert np.array_equal(cs1.occ_inflated, ref.occ_inflated)
    assert cs1.occ_bytes == ref.occ_bytes
    assert not np.array_equal(cs0.occ_inflated, cs1.occ_inflated)


def test_updated_config_space_memory_is_bounded():
    # one update of 2,000 fresh cells spread over the whole bench_course
    # grid: the slab it re-inflates is the grid, and the scratch memory
    # stays well below the (3, fresh, stencil) index arrays a one-shot
    # placement of the stencil at each fresh cell builds
    course = wd.bench_course(cell=0.2, seed=9)
    rng = np.random.default_rng(20)
    fresh = np.sort(rng.choice(np.flatnonzero(~course.occ), 2000,
                               replace=False))
    occ = course.occ.copy()
    occ.reshape(-1)[fresh] = True
    w = course.with_occ(occ)
    delta = 0.22032592898698794     # the course's C_bk: a 27-cell stencil
    assert wd._stencil((0.2,) * 3, delta).sum() == 27
    cs0 = wd.build_config_space(course, delta)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cs1 = wd.updated_config_space(cs0, w, fresh)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    ref = wd.build_config_space(w, delta)
    assert np.array_equal(cs1.occ_inflated, ref.occ_inflated)
    assert cs1.occ_bytes == ref.occ_bytes


def test_inflation_stencil_is_shared_and_read_only():
    a = wd._stencil((0.2, 0.2, 0.4), 0.3)
    b = wd._stencil((0.2, 0.2, 0.4), 0.3)
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0, 0] = not a[0, 0, 0]
    assert a[2, 2, 2] and not a[0, 0, 0]


def test_inflation_stencil_has_no_empty_shell():
    # every face of the stencil array holds a reached offset, over
    # anisotropic cells, delta 0, an exact boundary (0.3 m is 1.5 cells
    # of 0.2 m) and random radii; config spaces still equal a rebuild
    rng = np.random.default_rng(23)
    cases = [((0.2, 0.2, 0.2), 0.0), ((0.2, 0.2, 0.2), 0.3),
             ((0.2, 0.25, 0.4), 0.3), ((0.1, 0.4, 0.2), 0.0)]
    cases += [(tuple(float(c) for c in rng.uniform(0.1, 0.4, size=3)),
               float(rng.uniform(0.0, 1.0))) for _ in range(20)]
    for cells, delta in cases:
        st = wd._stencil(cells, delta)
        assert all(n % 2 == 1 for n in st.shape)
        for axis in range(3):
            assert np.take(st, 0, axis).any() and np.take(st, -1, axis).any()
        assert np.array_equal(st, st[::-1, ::-1, ::-1])
        assert st[tuple(n // 2 for n in st.shape)]
    assert wd._stencil((0.2, 0.2, 0.2), 0.0).shape == (1, 1, 1)
    assert wd._stencil((0.2, 0.2, 0.2), 0.3).shape == (5, 5, 5)
    assert wd._stencil((0.2, 0.2, 0.2), 0.22032592898698794).shape == (3, 3, 3)
    for cells, delta in cases[:8]:
        w = small_random_world(seed=11, dims=(12, 10, 8), cells=cells)
        base = w.with_occ(w.occ & (np.arange(12) != 5)[:, None, None])
        cs1 = wd.updated_config_space(wd.build_config_space(base, delta), w,
                                      np.flatnonzero(w.occ & ~base.occ))
        ref = wd.build_config_space(w, delta)
        assert np.array_equal(cs1.occ_inflated, ref.occ_inflated)


def test_updated_config_space_inflates_only_the_changed_slab(monkeypatch):
    # fresh cells in x-rows 12-14 of 30: the update runs _inflate once, on
    # their rows and the 2 rx rows the stencil reads on each side
    w = small_random_world(seed=10, dims=(30, 9, 7))
    changed = (np.arange(30) >= 12) & (np.arange(30) < 15)
    base = w.with_occ(w.occ & ~changed[:, None, None])
    fresh = np.flatnonzero(w.occ & ~base.occ)
    cs0 = wd.build_config_space(base, 0.3)
    rx = wd._stencil(tuple(w.cell_sizes), 0.3).shape[0] // 2
    rows = []
    inflate = wd._inflate
    monkeypatch.setattr(wd, "_inflate", lambda occ, *a: rows.append(
        occ.shape[0]) or inflate(occ, *a))
    cs1 = wd.updated_config_space(cs0, w, fresh)
    assert len(rows) == 1 and rows[0] <= 3 + 4 * rx < w.dims[0]
    ref = wd.build_config_space(w, 0.3)
    assert np.array_equal(cs1.occ_inflated, ref.occ_inflated)
    assert cs1.occ_bytes == ref.occ_bytes


def _check_inflation(w, delta):
    cs = wd.build_config_space(w, delta)
    ref = oracles.brute_force_inflation(w, delta)
    assert cs.occ_inflated.flags.c_contiguous
    assert np.array_equal(cs.occ_inflated, ref), (w.dims, w.cell_sizes, delta)
    assert cs.occ_bytes == ref.tobytes()


def test_inflation_matches_brute_force_on_random_worlds():
    # anisotropic cells, non-zero origins, dims from 1 to 11 and deltas
    # from 0 up to several cells
    rng = np.random.default_rng(17)
    for _ in range(60):
        dims = rng.integers(1, 12, size=3)
        cells = rng.uniform(0.1, 0.4, size=3)
        occ = rng.random(tuple(dims)) < rng.uniform(0.0, 0.08)
        w = wd.VoxelWorld(dims, cells, rng.uniform(-5.0, 5.0, size=3), occ)
        for delta in (0.0, rng.uniform(0.0, 0.3), rng.uniform(0.3, 1.0)):
            _check_inflation(w, delta)


@pytest.mark.parametrize("dims", [(1, 9, 8), (9, 1, 8), (9, 8, 1), (1, 1, 7),
                                  (1, 1, 1), (6, 5, 4)])
def test_inflation_on_faces_corners_and_thin_grids(dims):
    # obstacles on every corner and face centre dilate into clipped boxes
    occ = np.zeros(dims, dtype=bool)
    hi = np.array(dims) - 1
    for corner in np.ndindex(2, 2, 2):
        occ[tuple(np.array(corner) * hi)] = True
    for ax in range(3):
        for end in (0, hi[ax]):
            cell = hi // 2
            cell[ax] = end
            occ[tuple(cell)] = True
    w = wd.VoxelWorld(np.array(dims), np.array([0.13, 0.2, 0.31]),
                      np.array([2.5, -1.25, 0.75]), occ)
    for delta in (0.05, 0.1, 0.26, 0.45, 0.9):
        _check_inflation(w, delta)


def test_inflation_at_exact_whole_cell_radii():
    # delta = (s - 0.5) * c_a puts whole rows of cells on the sphere
    rng = np.random.default_rng(23)
    cells = np.array([0.15, 0.2, 0.35])
    occ = rng.random((9, 10, 7)) < 0.03
    occ[4, 5, 3] = True
    w = wd.VoxelWorld(np.array(occ.shape), cells, np.array([-0.6, 0.2, 1.0]),
                      occ)
    for ax in range(3):
        for s in (1, 2, 3):
            _check_inflation(w, (s - 0.5) * cells[ax])


def test_reachable_mask_blocks_walls():
    occ = np.zeros((9, 9, 1), dtype=bool)
    occ[4, :, 0] = True
    w = wd.VoxelWorld(np.array([9, 9, 1]), np.array([0.2] * 3), np.zeros(3), occ)
    cs = wd.build_config_space(w, 0.0)
    mask = wd.reachable_mask(cs, (1, 4, 0))
    assert mask[2, 4, 0] and not mask[6, 4, 0]
