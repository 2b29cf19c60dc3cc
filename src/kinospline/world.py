"""Synthetic 3-D voxel worlds, obstacle inflation and clearance queries.

Occupancy lives on a regular grid; a cell with index (ix, iy, iz) has its
center at origin + (index + 0.5) * cell_sizes. Configuration spaces are
derived by inflating obstacles: a cell is inflated-occupied when its center
lies within delta of some obstacle cell's axis-aligned box (Minkowski sum
with a ball, evaluated at centers). That set is the occupancy dilated by
one stencil of cell offsets (_stencil). The squared center-to-box distance
is a sum of per-axis terms that grow with the shift along their axis, so
every x-row of the stencil is one centered run of cells: a full build
dilates along x once per run length and ORs each (y, z) row's run into
place (_inflate), which marks exactly the stencil's cells, bit for bit;
an update places the stencil at each fresh cell. Clearances come from a
KD-tree over the inflated-occupied cell centers plus the world's boundary
planes.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

MAP_MAGIC = "KSGRID1"

_NEIGHBOR_OFFSETS = np.array(
    [(dx, dy, dz)
     for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) != (0, 0, 0)],
    dtype=np.int64)


@dataclass(frozen=True, eq=False)
class VoxelWorld:
    dims: np.ndarray
    cell_sizes: np.ndarray
    origin: np.ndarray
    occ: np.ndarray

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=np.int64)
        cs = np.asarray(self.cell_sizes, dtype=float)
        org = np.asarray(self.origin, dtype=float)
        occ = np.ascontiguousarray(np.asarray(self.occ, dtype=bool))
        if dims.shape != (3,) or np.any(dims < 1):
            raise ValueError("dims must be three counts >= 1")
        if cs.shape != (3,) or np.any(cs <= 0):
            raise ValueError("cell sizes must be three positive lengths")
        if occ.shape != tuple(dims):
            raise ValueError("occupancy shape does not match dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "cell_sizes", cs)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "occ", occ)

    @property
    def extent(self) -> np.ndarray:
        return self.dims * self.cell_sizes

    def cell_center(self, cell) -> np.ndarray:
        return self.origin + (np.asarray(cell, dtype=float) + 0.5) * self.cell_sizes

    def point_to_cell(self, point) -> np.ndarray:
        return np.floor((np.asarray(point, dtype=float) - self.origin)
                        / self.cell_sizes).astype(np.int64)

    def in_bounds(self, cell) -> bool:
        cell = np.asarray(cell)
        return bool(np.all(cell >= 0) and np.all(cell < self.dims))

    def points_in_bounds(self, points) -> np.ndarray:
        """Per row of an (n, 3) array: inside the world box, faces included."""
        p = np.asarray(points, dtype=float)
        return np.all((p >= self.origin) & (p <= self.origin + self.extent),
                      axis=1)

    def with_occ(self, occ) -> "VoxelWorld":
        return VoxelWorld(self.dims, self.cell_sizes, self.origin, occ)


def neighbors26(cell, dims) -> np.ndarray:
    """All grid neighbors at Chebyshev distance 1, clipped at the boundary."""
    cand = np.asarray(cell, dtype=np.int64) + _NEIGHBOR_OFFSETS
    keep = np.all(cand >= 0, axis=1) & np.all(cand < np.asarray(dims), axis=1)
    return cand[keep]


@lru_cache(maxsize=64)
def _stencil(cell_sizes: tuple, delta: float) -> np.ndarray:
    """Boolean dilation stencil for center-to-box distance <= delta.

    Memoized per (cell sizes, delta); the shared array is read-only.
    """
    cs = np.asarray(cell_sizes)
    reach = np.maximum(np.ceil(delta / cs + 0.5).astype(int), 0)
    ax = [np.arange(-r, r + 1) for r in reach]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    d2 = np.zeros(gx.shape)
    for g, c in ((gx, cs[0]), (gy, cs[1]), (gz, cs[2])):
        over = np.maximum(np.abs(g) - 0.5, 0.0) * c
        d2 += over * over
    stencil = d2 <= delta * delta + 1e-12
    stencil.flags.writeable = False
    return stencil


@lru_cache(maxsize=64)
def _stencil_offsets(cell_sizes: tuple, delta: float) -> np.ndarray:
    """(3, s) cell offsets of the stencil's cells from its center.

    Memoized next to _stencil; the shared array is read-only.
    """
    stencil = _stencil(cell_sizes, delta)
    offsets = np.argwhere(stencil).T - (np.array(stencil.shape) // 2)[:, None]
    offsets.flags.writeable = False
    return offsets


@dataclass(frozen=True, eq=False)
class ConfigSpace:
    """A VoxelWorld with obstacles inflated by delta, plus clearance data.

    occ_inflated marks cells whose centers are within delta of an obstacle
    box. The KD-tree indexes inflated-occupied cell centers for continuous
    nearest-obstacle queries; the six world boundary faces always count as
    obstacles so clearances stay finite.
    """

    world: VoxelWorld
    delta: float
    occ_inflated: np.ndarray

    @property
    def occ_flat(self) -> np.ndarray:
        """C-order read-only uint8 view of the inflated occupancy."""
        return self._occ_flat

    @property
    def occ_bytes(self) -> bytes:
        """The bytes behind occ_flat, built once with the space: a search
        indexes them per successor and copies nothing per query."""
        return self._occ_bytes

    @property
    def tree(self):
        """KD-tree over inflated-occupied cell centers, built on first use."""
        if not hasattr(self, "_tree_cache"):
            cells = np.unravel_index(np.flatnonzero(self.occ_inflated),
                                     self.occ_inflated.shape)
            centers = ((np.column_stack(cells) + 0.5)
                       * self.world.cell_sizes + self.world.origin)
            object.__setattr__(self, "_tree_cache",
                               cKDTree(centers) if centers.size else None)
        return self._tree_cache

    def is_free(self, cell) -> bool:
        cell = np.asarray(cell, dtype=np.int64)
        if not self.world.in_bounds(cell):
            raise IndexError(f"cell {cell.tolist()} out of bounds")
        return not bool(self.occ_inflated[tuple(cell)])

    def cells_free(self, cells) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        return ~self.occ_inflated[cells[:, 0], cells[:, 1], cells[:, 2]]

    def nn_search(self, point):
        """Nearest obstacle point and clearance radius for a point in bounds.

        Obstacles are the inflated-occupied cell centers plus the six
        boundary planes, so the radius is finite even in open space. An
        (n, 3) array of points gives (n, 3) nearest points and (n,) radii.
        Ties go to the earliest candidate in the order: lower then upper
        boundary plane per axis, then the nearest occupied center.
        """
        single = np.ndim(point) == 1
        p = np.asarray(point, dtype=float).reshape(-1, 3)
        outside = ~self.world.points_in_bounds(p)
        if outside.any():
            raise ValueError(f"point {p[np.argmax(outside)].tolist()} "
                             "outside world bounds")
        lo = self.world.origin
        hi = lo + self.world.extent
        # distances to the planes ordered (lo_x, hi_x, lo_y, hi_y, lo_z, hi_z)
        sides = np.stack([p - lo, hi - p], axis=2).reshape(-1, 6)
        pick = np.argmin(sides, axis=1)
        rows = np.arange(p.shape[0])
        best_d = sides[rows, pick]
        best_pt = p.copy()
        ax = pick // 2
        best_pt[rows, ax] = np.where(pick % 2 == 0, lo[ax], hi[ax])
        tree = self.tree
        if tree is not None and p.shape[0]:
            d, idx = tree.query(p)
            closer = d < best_d
            best_d = np.where(closer, d, best_d)
            best_pt[closer] = tree.data[idx[closer]]
        if single:
            return best_pt[0], float(best_d[0])
        return best_pt, best_d.astype(float)


def build_config_space(world: VoxelWorld, delta: float) -> ConfigSpace:
    """Obstacles inflated by delta: the occupancy dilated by the stencil,
    built by separating the stencil into centered x-runs (_inflate)."""
    if delta < 0:
        raise ValueError("inflation radius must be >= 0")
    if delta == 0:
        inflated = world.occ.copy()
    else:
        inflated = _inflate(world.occ, world.cell_sizes, delta)
    return _finish_config_space(world, delta, inflated)


def _inflate(occ, cell_sizes, delta: float) -> np.ndarray:
    """occ dilated by the stencil (_stencil), one x-run at a time.

    The stencil's squared distance (gx + gy) + gz grows with |sx|, so the
    stencil cells through each (sy, sz) are the centered x-run
    |sx| <= h(sy, sz). Dilating occ by runs of half-length 0..max h along
    x (one pass), then OR-ing the run of each (sy, sz) shifted by
    (sy, sz), places the stencil exactly: the same cells, read from the
    same array. Each z-row of the grid is preceded by rz cells of False
    and each x-slab by ry rows of them, so a shift by (sy, sz) is one
    flat, contiguous slice whose reads from a real cell past a row's or
    a slab's end land on padding.
    """
    stencil = _stencil(tuple(float(c) for c in cell_sizes), float(delta))
    ry, rz = stencil.shape[1] // 2, stencil.shape[2] // 2
    half = (stencil.sum(axis=0) - 1) // 2  # per (sy, sz); -1: no cell
    nx, ny, nz = occ.shape
    py, pw = ny + ry, nz + rz
    size = nx * py * pw
    base = np.zeros((nx, py, pw), dtype=bool)
    base[:, ry:ry + ny, rz:rz + nz] = occ
    base = base.reshape(-1)
    runs = [base]
    for h in range(1, int(half.max()) + 1):
        run = runs[-1].copy()
        t = h * py * pw
        if t < size:
            run[t:] |= base[:-t]
            run[:-t] |= base[t:]
        runs.append(run)
    out = np.zeros(size, dtype=bool)
    for (jy, jz), h in np.ndenumerate(half):
        if h < 0:
            continue
        off = (jy - ry) * pw + (jz - rz)
        if off >= 0:
            out[:size - off] |= runs[h][off:]
        else:
            out[-off:] |= runs[h][:size + off]
    return np.ascontiguousarray(
        out.reshape(nx, py, pw)[:, ry:ry + ny, rz:rz + nz])


def _finish_config_space(world, delta, inflated) -> ConfigSpace:
    cs = ConfigSpace(world=world, delta=float(delta), occ_inflated=inflated)
    occ = inflated.tobytes()  # C order; a numpy bool is the byte 0 or 1
    object.__setattr__(cs, "_occ_bytes", occ)
    object.__setattr__(cs, "_occ_flat", np.frombuffer(occ, dtype=np.uint8))
    return cs


def updated_config_space(prev: ConfigSpace, world: VoxelWorld,
                         fresh) -> ConfigSpace:
    """Fresh ConfigSpace after new obstacle cells appeared (copy-on-update).

    fresh holds the flat (C-order) grid indices of the newly occupied
    cells. Dilation distributes over union and the stencil is symmetric,
    so the new inflated cells are the stencil placed at each fresh cell,
    with targets outside the grid dropped: the same grid as a full
    rebuild, in O(fresh x stencil) work after one copy of the previous
    grid. The previous space stays untouched for concurrent readers.
    """
    inflated = prev.occ_inflated.copy()
    flat = np.asarray(fresh, dtype=np.int64)
    inflated.reshape(-1)[flat] = True
    if prev.delta > 0 and flat.size:
        offsets = _stencil_offsets(tuple(float(c) for c in world.cell_sizes),
                                   float(prev.delta))
        # (axis, fresh cell, stencil cell) target indices
        cells = np.array(np.unravel_index(flat, inflated.shape))
        targets = cells[:, :, None] + offsets[:, None, :]
        keep = np.all((targets >= 0)
                      & (targets < np.array(inflated.shape)[:, None, None]),
                      axis=0)
        inflated[tuple(targets[:, keep])] = True
    return _finish_config_space(world, prev.delta, inflated)


def reachable_mask(cs: ConfigSpace, start_cell) -> np.ndarray:
    """Cells 26-connected to start_cell through free space."""
    free = ~cs.occ_inflated
    labels, _ = ndimage.label(free, structure=np.ones((3, 3, 3), dtype=int))
    start = tuple(np.asarray(start_cell, dtype=int))
    if not free[start]:
        return np.zeros_like(free)
    return labels == labels[start]


# ---------------------------------------------------------------------------
# map generation

@dataclass(frozen=True)
class MapGenSpec:
    """Parameters for the synthetic map generators.

    kind is one of "empty", "pillars" or "noise". Extents are meters; the
    grid size is ceil(extent / cell), never silently truncated.
    """

    kind: str
    extent: tuple
    cell_sizes: tuple
    density: float = 0.0
    footprint: tuple = (0.5, 0.5)
    noise_freq: float = 0.3
    noise_threshold: float = 0.62
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("empty", "pillars", "noise"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.density < 0:
            raise ValueError("density must be >= 0")
        if any(e <= 0 for e in self.extent) or any(c <= 0 for c in self.cell_sizes):
            raise ValueError("extents and cell sizes must be positive")


def generate(spec: MapGenSpec) -> VoxelWorld:
    extent = np.asarray(spec.extent, dtype=float)
    cs = np.asarray(spec.cell_sizes, dtype=float)
    dims = np.ceil(extent / cs - 1e-9).astype(np.int64)
    occ = np.zeros(tuple(dims), dtype=bool)
    world = VoxelWorld(dims, cs, np.zeros(3), occ)
    if spec.kind == "empty" or (spec.kind == "pillars" and spec.density == 0):
        return world
    # seeded only by the kinds that draw from it: a generator costs more
    # to create than an empty world does to build
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "pillars":
        return _gen_pillars(world, spec, rng)
    return _gen_noise(world, spec, rng)


def _gen_pillars(world: VoxelWorld, spec: MapGenSpec, rng) -> VoxelWorld:
    area = float(spec.extent[0]) * float(spec.extent[1])
    count = int(round(spec.density * area))
    fx, fy = spec.footprint
    occ = np.array(world.occ)
    for _ in range(count):
        cx = rng.uniform(0.0, spec.extent[0])
        cy = rng.uniform(0.0, spec.extent[1])
        _fill_box(occ, world,
                  (cx - fx / 2, cy - fy / 2, 0.0),
                  (cx + fx / 2, cy + fy / 2, spec.extent[2]))
    return world.with_occ(occ)


def _fill_box(occ, world: VoxelWorld, lo, hi) -> None:
    """Mark cells whose centers fall inside the closed box [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    i0 = np.maximum(np.ceil((lo - world.origin) / world.cell_sizes - 0.5), 0).astype(int)
    i1 = np.minimum(np.floor((hi - world.origin) / world.cell_sizes - 0.5),
                    world.dims - 1).astype(int)
    if np.any(i1 < i0):
        return
    occ[i0[0]:i1[0] + 1, i0[1]:i1[1] + 1, i0[2]:i1[2] + 1] = True


def add_box(world: VoxelWorld, lo, hi) -> VoxelWorld:
    """World with the axis-aligned box [lo, hi] marked occupied."""
    occ = np.array(world.occ)
    _fill_box(occ, world, lo, hi)
    return world.with_occ(occ)


def _gen_noise(world: VoxelWorld, spec: MapGenSpec, rng) -> VoxelWorld:
    """Occupancy from thresholded 3-D gradient noise.

    Classic lattice gradient noise: random unit gradients on integer
    lattice points, quintic-smoothed trilinear blend of the corner dot
    products, sampled at cell centers scaled by noise_freq.
    """
    centers = [(np.arange(n) + 0.5) * c * spec.noise_freq
               for n, c in zip(world.dims, world.cell_sizes)]
    gx, gy, gz = np.meshgrid(*centers, indexing="ij")
    lat_dims = tuple(int(np.floor(c[-1])) + 2 for c in centers)
    grads = rng.normal(size=(*lat_dims, 3))
    grads /= np.linalg.norm(grads, axis=-1, keepdims=True)

    x0 = np.floor(gx).astype(int)
    y0 = np.floor(gy).astype(int)
    z0 = np.floor(gz).astype(int)
    fx, fy, fz = gx - x0, gy - y0, gz - z0

    def fade(t):
        return t * t * t * (t * (6 * t - 15) + 10)

    wx, wy, wz = fade(fx), fade(fy), fade(fz)
    val = np.zeros(gx.shape)
    for cx_ in (0, 1):
        for cy_ in (0, 1):
            for cz_ in (0, 1):
                g = grads[x0 + cx_, y0 + cy_, z0 + cz_]
                dot = (g[..., 0] * (fx - cx_) + g[..., 1] * (fy - cy_)
                       + g[..., 2] * (fz - cz_))
                w = (wx if cx_ else 1 - wx) * (wy if cy_ else 1 - wy) \
                    * (wz if cz_ else 1 - wz)
                val += w * dot
    # normalize to [0, 1] and threshold
    val = 0.5 + val / (2.0 * np.sqrt(3.0 / 4.0))
    return world.with_occ(val > spec.noise_threshold)


def bench_course(cell: float = 0.2, seed: int = 9) -> VoxelWorld:
    """Scripted 20 x 10 x 3 m replanning course.

    A wall whose gap straddles the guiding line, an elevated slab with
    free space below, and a scatter of full-height pillars, so a crossing
    at y = 5 m must squeeze through the gap, duck under the slab and pick
    sides between pillars.
    """
    dims_m = (20.0, 10.0, 3.0)
    w = generate(MapGenSpec(kind="empty", extent=dims_m,
                            cell_sizes=(cell, cell, cell)))
    occ = np.array(w.occ)
    for lo, hi in (
            ((5.0, 0.0, 0.0), (5.4, 3.6, 3.0)),      # wall below the gap
            ((5.0, 6.4, 0.0), (5.4, 10.0, 3.0)),     # wall above the gap
            ((7.6, 2.2, 1.8), (9.0, 7.8, 2.4)),      # slab, free underneath
            # an S-chicane of two staggered walls revealed in sequence:
            # crossings must swing up, then down, under partial knowledge
            ((10.6, 0.0, 0.0), (11.0, 5.6, 3.0)),
            ((13.6, 4.4, 0.0), (14.0, 10.0, 3.0))):
        _fill_box(occ, w, lo, hi)
    # pillars keep pairwise gaps of at least 1.5 m so every corridor fits a
    # refinable tube; two of them sit near the line so the final stretch
    # picks sides (the course is deterministic; seed kept for interface
    # stability)
    pillars = ((16.2, 3.4), (17.6, 5.0), (16.6, 7.2))
    for cx, cy in pillars:
        _fill_box(occ, w, (cx - 0.25, cy - 0.25, 0.0), (cx + 0.25, cy + 0.25, 3.0))
    return w.with_occ(occ)


# ---------------------------------------------------------------------------
# file formats

def save_map(world: VoxelWorld, path) -> None:
    """ASCII header plus run-length-encoded row-major occupancy."""
    flat = world.occ.reshape(-1).astype(np.int8)
    runs = []
    if flat.size:
        change = np.flatnonzero(np.diff(flat)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [flat.size]))
        runs = [(int(e - s), int(flat[s])) for s, e in zip(starts, ends)]
    with open(path, "w") as fh:
        fh.write(f"{MAP_MAGIC} {world.dims[0]} {world.dims[1]} {world.dims[2]} "
                 f"{world.cell_sizes[0]:.17g} {world.cell_sizes[1]:.17g} "
                 f"{world.cell_sizes[2]:.17g} "
                 f"{world.origin[0]:.17g} {world.origin[1]:.17g} "
                 f"{world.origin[2]:.17g}\n")
        for count, value in runs:
            fh.write(f"{count} {value}\n")


def load_map(path) -> VoxelWorld:
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != MAP_MAGIC:
            raise ValueError(f"{path}: not a {MAP_MAGIC} map file")
        dims = np.array([int(x) for x in header[1:4]], dtype=np.int64)
        cell_sizes = np.array([float(x) for x in header[4:7]])
        origin = np.array([float(x) for x in header[7:10]])
        flat = np.zeros(int(np.prod(dims)), dtype=bool)
        pos = 0
        for line in fh:
            count_s, value_s = line.split()
            count = int(count_s)
            if value_s != "0":
                flat[pos:pos + count] = True
            pos += count
        if pos != flat.size:
            raise ValueError(f"{path}: RLE covers {pos} of {flat.size} cells")
    return VoxelWorld(dims, cell_sizes, origin, flat.reshape(tuple(dims)))


def load_cells_ascii(path, dims, cell_sizes, origin=(0.0, 0.0, 0.0)) -> VoxelWorld:
    """World from a plain `x y z` occupied-cell list (test fixtures)."""
    dims = np.asarray(dims, dtype=np.int64)
    occ = np.zeros(tuple(dims), dtype=bool)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x, y, z = (int(v) for v in line.split())
            occ[x, y, z] = True
    return VoxelWorld(dims, np.asarray(cell_sizes, dtype=float),
                      np.asarray(origin, dtype=float), occ)
