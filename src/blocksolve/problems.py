"""3D Laplace test problem and block decomposition of the unknown grid.

Unknowns are the interior points of an (nx, ny, nz) grid surrounded by
Dirichlet boundary data, ordered x-fastest: index = i + nx*(j + ny*k).

A block decomposition splits the grid into disjoint owned boxes on a
(gx, gy, gz) block grid. With overlap o > 0, each block additionally solves
an extended region: the grid points within L1 (stencil) distance o of its
owned box, which is the owned box dilated o times under the 7-point stencil
(never past the global boundary). Every grid point is covered by one or more
extended regions; each overlapping value is later taken from the block
that owns the point. Everything is computed from the boxes, so no
full-grid array is built per block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.sparse

from .errors import ConfigurationError
from .linalg import CsrParts, SparseMatrix

__all__ = [
    "FACES",
    "DirichletBoundary",
    "Grid3D",
    "LinearProblem",
    "BlockDecomposition",
    "build_laplace_3d",
    "decompose",
    "batches",
    "block_system",
]

# Matrix entries of the stacked extended rows one set-up batch may hold, so
# the transient arrays of block extraction and of ``build_workspaces``' checks
# stay bounded whatever the block count (see ``batches``). The payload maps
# are not batched: ``multisplit.build_links`` makes one sort per block.
BATCH_ENTRIES = 1 << 15

FACES = ("x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi")

FaceValue = Union[float, Callable[[int, int], float]]


class DirichletBoundary:
    """Per-face Dirichlet data.

    Each face carries either a constant or a callable (u, v) -> value over
    the in-face coordinates: (j, k) for x faces, (i, k) for y faces and
    (i, j) for z faces. Unspecified faces default to ``default``.
    """

    def __init__(self, faces: dict[str, FaceValue] | None = None, default: float = 0.0):
        faces = dict(faces or {})
        for name in faces:
            if name not in FACES:
                raise ConfigurationError(f"boundary: unknown face {name!r}")
        self._faces: dict[str, FaceValue] = {
            name: faces.get(name, float(default)) for name in FACES
        }

    @classmethod
    def constant(cls, value: float) -> "DirichletBoundary":
        return cls(default=float(value))

    @classmethod
    def zero(cls) -> "DirichletBoundary":
        return cls()

    def face_values(self, face: str, nu: int, nv: int) -> np.ndarray:
        """The face's data at in-face coordinates u < nu, v < nv, indexed [v, u]."""
        spec = self._faces[face]
        if callable(spec):
            return np.array([[float(spec(u, v)) for u in range(nu)] for v in range(nv)])
        return np.full((nv, nu), spec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletBoundary):
            return NotImplemented
        return self._faces == other._faces

    def __repr__(self) -> str:
        return f"DirichletBoundary({self._faces!r})"


@dataclass(frozen=True)
class Grid3D:
    """Interior unknown counts per dimension plus the boundary data."""

    nx: int
    ny: int
    nz: int
    boundary: DirichletBoundary = field(default_factory=DirichletBoundary.zero)

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}: must be at least 1")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def num_unknowns(self) -> int:
        return self.nx * self.ny * self.nz

    def index(self, i: int, j: int, k: int) -> int:
        return i + self.nx * (j + self.ny * k)


@dataclass
class LinearProblem:
    """Assembled operator A, right-hand side b and the generating grid."""

    matrix: SparseMatrix
    rhs: np.ndarray
    grid: Grid3D


def build_laplace_3d(grid: Grid3D) -> LinearProblem:
    """Assemble the 7-point 3D Laplace system with Dirichlet boundaries.

    Each unknown's row has diagonal 6 and -1 for every interior neighbor;
    boundary neighbors contribute their value to the right-hand side.
    """
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    n = grid.num_unknowns
    idx = np.arange(n)
    offsets = [0]
    diagonals = [np.full(n, 6.0)]
    # unknowns p and p + stride are coupled unless p is on the high side of
    # that axis, where p + stride wraps around to the next line or plane;
    # an axis of width 1 has no couplings and would repeat another's stride
    for stride, coord, width in (
        (1, idx % nx, nx),
        (nx, (idx // nx) % ny, ny),
        (nx * ny, idx // (nx * ny), nz),
    ):
        if width > 1:
            coupling = np.where(coord[: n - stride] < width - 1, -1.0, 0.0)
            offsets += [-stride, stride]
            diagonals += [coupling, coupling]
    # dia -> csr drops the masked zeros and sorts each row's columns
    matrix = scipy.sparse.diags_array(diagonals, offsets=offsets, shape=(n, n)).tocsr()

    bnd = grid.boundary
    rhs = np.zeros((nz, ny, nx))
    # faces are added in a fixed order, so edge and corner sums are reproducible
    rhs[0, :, :] += bnd.face_values("z_lo", nx, ny)
    rhs[:, 0, :] += bnd.face_values("y_lo", nx, nz)
    rhs[:, :, 0] += bnd.face_values("x_lo", ny, nz)
    rhs[:, :, -1] += bnd.face_values("x_hi", ny, nz)
    rhs[:, -1, :] += bnd.face_values("y_hi", nx, nz)
    rhs[-1, :, :] += bnd.face_values("z_hi", nx, ny)
    return LinearProblem(SparseMatrix(matrix), rhs.ravel(), grid)


@dataclass(frozen=True)
class Box:
    """Half-open 3D index box [lo, hi) in (x, y, z) coordinates."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    @property
    def size(self) -> int:
        return (
            (self.hi[0] - self.lo[0])
            * (self.hi[1] - self.lo[1])
            * (self.hi[2] - self.lo[2])
        )

    @property
    def widths(self) -> tuple[int, int, int]:
        return tuple(self.hi[d] - self.lo[d] for d in range(3))


def _split_ranges(n: int, g: int) -> list[tuple[int, int]]:
    """Split [0, n) into g nearly-equal ranges; remainder goes to the lowest blocks."""
    base, rem = divmod(n, g)
    ranges = []
    start = 0
    for b in range(g):
        width = base + (1 if b < rem else 0)
        ranges.append((start, start + width))
        start += width
    return ranges


def _box_indices(grid: Grid3D, lo, hi) -> np.ndarray:
    """Global indices of the box [lo, hi), shaped (z, y, x) so they ravel sorted."""
    x, y, z = (np.arange(lo[d], hi[d], dtype=np.int64) for d in range(3))
    return x + grid.nx * (y[:, None] + grid.ny * z[:, None, None])


def _gap(first_a, last_a, first_b, last_b):
    """Distance between the integer ranges [first_a, last_a] and [first_b, last_b]."""
    return np.maximum(np.maximum(first_a - last_b, first_b - last_a), 0)


@dataclass
class BlockDecomposition:
    """Owned boxes, extended regions and neighbor topology of a block grid.

    ``extended_indices[b]`` is the sorted array of global unknown indices in
    block b's extended region.

    Blocks of one region kind have the same region up to a shift:
    ``region_kinds[b]`` is block b's kind, and ``kind_masks[k]`` is kind k's
    region in its bounding box, a (z, y, x) bool array. The box's C order is
    the region's sorted order, so the n-th True entry is the region's n-th
    point.
    """

    grid: Grid3D
    block_grid: tuple[int, int, int]
    overlap: int
    owned: list[Box]
    extended_indices: list[np.ndarray]
    neighbors: list[list[int]]
    region_kinds: np.ndarray
    kind_masks: list[np.ndarray]

    @property
    def num_blocks(self) -> int:
        return len(self.owned)

    def owned_indices(self, block_id: int) -> np.ndarray:
        """Sorted global indices of the block's owned box."""
        box = self.owned[block_id]
        return _box_indices(self.grid, box.lo, box.hi).ravel()

    def extra_unknowns(self, block_id: int) -> int:
        """Extended-region size beyond the owned box."""
        return int(self.extended_indices[block_id].shape[0]) - self.owned[block_id].size


def decompose(
    grid: Grid3D, block_grid: tuple[int, int, int], overlap: int = 0
) -> BlockDecomposition:
    """Split the grid into a (gx, gy, gz) block decomposition with overlap.

    Owned boxes partition the grid; each dimension is split into nearly
    equal contiguous ranges with the remainder given to the lowest-index
    blocks. A block's extended region is every grid point at L1 distance at
    most ``overlap`` from its owned box, and its halo columns are the points
    at distance ``overlap + 1``. Two blocks are neighbors when the L1
    distance between their owned boxes is at most ``overlap + 1``, which
    holds exactly when one of them tracks a point the other owns, as a halo
    column or a shared point: then one block reads values the other
    computes. Both distances are summed per axis; dilating inside the grid
    gives the same sets because the grid is itself a box.
    """
    for g, n, axis in zip(block_grid, grid.shape, "xyz"):
        if g < 1:
            raise ConfigurationError(f"g{axis}: must be at least 1")
        if g > n:
            raise ConfigurationError(
                f"g{axis}: {g} blocks exceed the {n} grid points of that dimension"
            )
    if overlap < 0:
        raise ConfigurationError("overlap: must be non-negative")
    ranges = [_split_ranges(n, g) for n, g in zip(grid.shape, block_grid)]
    for axis_ranges, g, axis in zip(ranges, block_grid, "xyz"):
        if g > 1:
            min_width = min(hi - lo for lo, hi in axis_ranges)
            if overlap >= min_width:
                raise ConfigurationError(
                    f"overlap: {overlap} is not smaller than the narrowest "
                    f"{axis}-range width {min_width} (g{axis}={g})"
                )

    owned = [
        Box((x0, y0, z0), (x1, y1, z1))
        for z0, z1 in ranges[2]
        for y0, y1 in ranges[1]
        for x0, x1 in ranges[0]
    ]
    # A block's region is its owned box padded by the overlap and clipped to
    # the grid, cut by each point's L1 distance to the box. Along an axis, a
    # block-grid position fixes the padding kept below the box, the box's
    # width and the padding kept above it. Blocks alike on all three axes
    # have the same region up to a shift, so one mask per such kind gives
    # the region's offsets from its padded box's first point, and each block
    # adds that point's global index. Per axis and kind: each padded
    # coordinate's gap to the box and its index offset.
    pad_lo, axis_kind, axis_gaps, axis_offsets = [], [], [], []
    stride = 1
    for axis_ranges, n in zip(ranges, grid.shape):
        low = [max(first - overlap, 0) for first, _ in axis_ranges]
        padding = [
            (first - below, stop - first, min(stop + overlap, n) - stop)
            for (first, stop), below in zip(axis_ranges, low)
        ]
        kinds = sorted(set(padding))
        index = {kind: i for i, kind in enumerate(kinds)}
        pad_lo.append(np.array(low))
        axis_kind.append(np.array([index[kind] for kind in padding]))
        axis_gaps.append([])
        axis_offsets.append([])
        for below, width, above in kinds:
            c = np.arange(below + width + above)
            axis_gaps[-1].append(_gap(below, below + width - 1, c, c))
            axis_offsets[-1].append(c * stride)
        stride *= n
    counts = [len(kinds) for kinds in axis_gaps]
    x, y, z = np.indices(block_grid[::-1]).reshape(3, -1)[::-1]  # x fastest
    base = pad_lo[0][x] + grid.nx * (pad_lo[1][y] + grid.ny * pad_lo[2][z])
    kind = axis_kind[0][x] + counts[0] * (axis_kind[1][y] + counts[1] * axis_kind[2][z])
    members = np.argsort(kind, kind="stable")
    ends = np.cumsum(np.bincount(kind, minlength=np.prod(counts)))
    extended_indices = [None] * len(owned)
    kind_masks = []
    for (kz, ky, kx), blocks in zip(
        itertools.product(*map(range, counts[::-1])), np.split(members, ends[:-1])
    ):
        dx, dy, dz = axis_gaps[0][kx], axis_gaps[1][ky], axis_gaps[2][kz]
        ox, oy, oz = axis_offsets[0][kx], axis_offsets[1][ky], axis_offsets[2][kz]
        inside = dx + dy[:, None] + dz[:, None, None] <= overlap
        offsets = (ox + oy[:, None] + oz[:, None, None])[inside]
        # the padded box bounds the region; C order in it is sorted order
        kind_masks.append(inside)
        for blk, region in zip(blocks.tolist(), base[blocks, None] + offsets):
            extended_indices[blk] = region

    # Blocks two or more block-grid steps apart on an axis have a whole
    # range between them there, wider than the overlap, so their gap is at
    # least overlap + 2: only the 3 x 3 x 3 window around a block can hold
    # its neighbors. Per axis, the gap from each block position to the
    # positions 1 back to 1 ahead; a position off the block grid is too far.
    near = overlap + 1
    steps = np.arange(-1, 2)
    gaps = []
    for axis_ranges, g in zip(ranges, block_grid):
        first, end = (np.array(axis_ranges) - [0, 1]).T
        other = np.arange(g)[:, None] + steps
        on_grid = (other >= 0) & (other < g)
        other = np.clip(other, 0, g - 1)
        gap = _gap(first[:, None], end[:, None], first[other], end[other])
        gaps.append(np.where(on_grid, gap, near + 1))
    gx, gy, _ = block_grid
    # window offsets ordered (dz, dy, dx), so each block's candidates ascend
    distance = (
        gaps[2][:, None, None, :, None, None]
        + gaps[1][None, :, None, None, :, None]
        + gaps[0][None, None, :, None, None, :]
    ).reshape(len(owned), steps.size**3)
    offsets = (steps[:, None, None] * gy + steps[:, None]) * gx + steps
    is_near = distance <= near
    is_near[:, offsets.size // 2] = False  # the block itself
    candidates = np.arange(len(owned))[:, None] + offsets.ravel()
    neighbors = [
        row.tolist()
        for row in np.split(candidates[is_near], np.cumsum(is_near.sum(axis=1))[:-1])
    ]

    return BlockDecomposition(
        grid=grid,
        block_grid=tuple(block_grid),
        overlap=overlap,
        owned=owned,
        extended_indices=extended_indices,
        neighbors=neighbors,
        region_kinds=kind,
        kind_masks=kind_masks,
    )


def batches(counts) -> list[range]:
    """Runs of consecutive blocks whose counts sum to at most ``BATCH_ENTRIES``.

    A block whose count alone exceeds the limit forms a run of its own.
    """
    ends = np.cumsum(counts)
    runs, start = [], 0
    while start < ends.shape[0]:
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + BATCH_ENTRIES, side="right"))
        runs.append(range(start, max(stop, start + 1)))
        start = runs[-1].stop
    return runs


def block_system(
    problem: LinearProblem, decomp: BlockDecomposition
) -> list[tuple[CsrParts, CsrParts, np.ndarray]]:
    """Extract every block's local system from the global operator.

    Entry b is ``(a_ii, coupling, halo_cols)``: the CSR parts of the
    principal submatrix of A on block b's extended region, the CSR parts of
    A's extended rows restricted to the outside columns they touch, and
    those columns' sorted global indices (the block's halo dependency set).
    No matrix is built here: ``CsrParts.matrix()`` builds and checks one
    when a solver needs it.

    Blocks are extracted in ``batches`` of their extended rows' matrix
    entries. A batch gathers A's rows over its stacked extended indices in
    one call. One position array over the grid, reused by every block, then
    holds the stacked position of each point of the block's region; stacked
    positions only grow from block to block, so an entry whose column reads
    a position below the block's first row lies outside its region. One
    ``np.unique`` of the (block, column) keys of the batch's outside entries
    gives every block's halo columns and each such entry's place among them.
    Every part of every block is a view of the batch's arrays. One check of
    the whole batch stands in for checking each ``a_ii``: every row's
    columns must be in range and strictly increasing, which holds when every
    region is sorted; otherwise the lowest failing block raises ValueError.
    A coupling's columns are positions in the sorted halo columns, so they
    hold these invariants whatever the regions.
    """
    csr = problem.matrix.csr
    n = csr.shape[1]
    exts = decomp.extended_indices
    ext_start = np.concatenate(([0], np.cumsum([ext.shape[0] for ext in exts])))
    row_entries = np.diff(csr.indptr)
    position = np.full(n, -1)
    systems = []
    for run in batches([int(row_entries[ext].sum()) for ext in exts]):
        count = len(run)
        row_start = ext_start[run.start : run.stop + 1] - ext_start[run.start]
        gathered = csr[np.concatenate(exts[run.start : run.stop])]
        entry_start = gathered.indptr[row_start]
        # each entry's column as a position in its block's region, or < 0
        local = np.empty(gathered.nnz, dtype=np.int64)
        for blk, e0, e1 in zip(run, entry_start[:-1].tolist(), entry_start[1:].tolist()):
            first = ext_start[blk]
            position[exts[blk]] = np.arange(first, ext_start[blk + 1])
            np.take(position, gathered.indices[e0:e1], out=local[e0:e1])
            local[e0:e1] -= first
        num_rows = gathered.shape[0]
        row_sizes = np.diff(row_start)
        row_block = np.repeat(np.arange(count), row_sizes)
        outside = np.flatnonzero(local < 0)
        out_ptr = np.zeros(num_rows + 1, dtype=np.int64)
        out_row = np.searchsorted(gathered.indptr, outside, side="right") - 1
        np.cumsum(np.bincount(out_row, minlength=num_rows), out=out_ptr[1:])
        in_ptr = gathered.indptr - out_ptr
        inside = local >= 0
        in_cols = local[inside].astype(np.int32)
        in_vals = gathered.data[inside]
        out_block = row_block[out_row]
        halo_keys, halo_pos = np.unique(
            out_block * n + gathered.indices[outside], return_inverse=True
        )
        halo_start = np.searchsorted(halo_keys, np.arange(count + 1) * n)
        halo_cols = halo_keys - np.repeat(np.arange(count) * n, np.diff(halo_start))
        out_cols = (halo_pos - halo_start[out_block]).astype(np.int32)
        out_vals = gathered.data[outside]
        # rows are in block order, so the lowest failing row names the block;
        # coupling columns index the sorted halo columns, so they rise with
        # A's own and need no check
        failed = _failing_rows(in_cols, in_ptr, row_sizes[row_block])
        if failed.any():
            raise ValueError(
                f"block {run.start + row_block[np.argmax(failed)]}: columns of its "
                "system out of range or not strictly increasing in some row"
            )

        # block i's indptr holds its rows' bounds, row_start[i] to
        # row_start[i + 1], rebased to 0: one more entry than it has rows
        bound = np.arange(num_rows + count) - np.repeat(np.arange(count), row_sizes + 1)
        base = np.repeat(row_start[:-1], row_sizes + 1)
        in_ptrs = (in_ptr[bound] - in_ptr[base]).astype(np.int32)
        out_ptrs = (out_ptr[bound] - out_ptr[base]).astype(np.int32)
        rows, ins, outs, halos = (
            v.tolist() for v in (row_start, in_ptr[row_start], out_ptr[row_start], halo_start)
        )
        for i in range(count):
            size = rows[i + 1] - rows[i]
            ptrs = slice(rows[i] + i, rows[i + 1] + i + 1)
            a_ii = slice(ins[i], ins[i + 1])
            coupling = slice(outs[i], outs[i + 1])
            halo = slice(halos[i], halos[i + 1])
            systems.append(
                (
                    CsrParts(in_vals[a_ii], in_cols[a_ii], in_ptrs[ptrs], (size, size)),
                    CsrParts(
                        out_vals[coupling], out_cols[coupling], out_ptrs[ptrs],
                        (size, halos[i + 1] - halos[i]),
                    ),
                    halo_cols[halo],
                )
            )
    return systems


def _failing_rows(cols: np.ndarray, indptr: np.ndarray, row_cols: np.ndarray) -> np.ndarray:
    """Which rows of stacked CSR parts break the CSR invariants: a column
    outside [0, row_cols) of its row, or one not above the column before it
    in the row."""
    starts, ends = indptr[:-1], indptr[1:]
    if cols.size == 0:
        return np.zeros(starts.shape[0], dtype=bool)
    # a row whose columns rise is in range when its first and last are
    first, last = cols[np.minimum(starts, cols.size - 1)], cols[np.maximum(ends - 1, 0)]
    failed = (starts < ends) & ((first < 0) | (last >= row_cols))
    # entry k rises when it starts a row or exceeds entry k - 1
    rises = np.empty(cols.size + 1, dtype=bool)
    rises[1:-1] = cols[1:] > cols[:-1]
    rises[indptr] = True
    if not rises.all():
        failed[np.searchsorted(indptr, np.flatnonzero(~rises), side="right") - 1] = True
    return failed
