"""3D Laplace test problem and block decomposition of the unknown grid.

Unknowns are the interior points of an (nx, ny, nz) grid surrounded by
Dirichlet boundary data, ordered x-fastest: index = i + nx*(j + ny*k).

A block decomposition splits the grid into disjoint owned boxes on a
(gx, gy, gz) block grid. With overlap o > 0, each block additionally solves
an extended region: the grid points within L1 (stencil) distance o of its
owned box, which is the owned box dilated o times under the 7-point stencil
(never past the global boundary). Every grid point is covered by one or more
extended regions; overlapping values are later merged with equal weights
1/m over the m covering blocks. Everything is computed from the boxes, so no
full-grid array is built per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.sparse

from .errors import ConfigurationError
from .linalg import SparseMatrix

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
# the transient arrays of block extraction and payload maps stay bounded
# whatever the block count (see ``batches``).
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

    def value(self, face: str, u: int, v: int) -> float:
        spec = self._faces[face]
        if callable(spec):
            return float(spec(u, v))
        return spec

    def face_values(self, face: str, nu: int, nv: int) -> np.ndarray:
        """The face's data at in-face coordinates u < nu, v < nv, indexed [v, u]."""
        spec = self._faces[face]
        if callable(spec):
            return np.array([[float(spec(u, v)) for u in range(nu)] for v in range(nv)])
        return np.full((nv, nu), spec)

    def face_constants(self) -> dict[str, float]:
        """Per-face constants; raises if any face holds a callable."""
        if any(callable(v) for v in self._faces.values()):
            raise ValueError("boundary with callable faces has no constant form")
        return {name: float(self._faces[name]) for name in FACES}

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
    block b's extended region; ``cover_counts`` maps each grid point to the
    number of extended regions covering it (the merge weight is its inverse).
    """

    grid: Grid3D
    block_grid: tuple[int, int, int]
    overlap: int
    owned: list[Box]
    extended_indices: list[np.ndarray]
    neighbors: list[list[int]]
    cover_counts: np.ndarray

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

    def covering_blocks(self, flat_index: int) -> list[int]:
        """Blocks whose extended region covers the given grid point."""
        covering = []
        for b in range(self.num_blocks):
            ext = self.extended_indices[b]
            pos = np.searchsorted(ext, flat_index)
            if pos < ext.shape[0] and ext[pos] == flat_index:
                covering.append(b)
        return covering


def decompose(
    grid: Grid3D, block_grid: tuple[int, int, int], overlap: int = 0
) -> BlockDecomposition:
    """Split the grid into a (gx, gy, gz) block decomposition with overlap.

    Owned boxes partition the grid; each dimension is split into nearly
    equal contiguous ranges with the remainder given to the lowest-index
    blocks. A block's extended region is every grid point at L1 distance at
    most ``overlap`` from its owned box. Two blocks are neighbors when the
    L1 distance between their owned boxes is at most 2 * overlap + 1, which
    holds exactly when a point of one region lies in the other region or one
    stencil step from it: then one block's rows read values the other
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
    lo = np.array([box.lo for box in owned])
    last = np.array([box.hi for box in owned]) - 1

    # the region lies inside the owned box padded by the overlap and clipped
    # to the grid; cut it from there by each point's L1 distance to the box
    extended_indices = []
    for first, end in zip(lo, last):
        pad_lo = np.maximum(first - overlap, 0)
        pad_hi = np.minimum(end + 1 + overlap, grid.shape)
        dx, dy, dz = (
            _gap(first[d], end[d], c, c)
            for d, c in enumerate(map(np.arange, pad_lo, pad_hi))
        )
        distance = dx + dy[:, None] + dz[:, None, None]
        extended_indices.append(_box_indices(grid, pad_lo, pad_hi)[distance <= overlap])

    # Blocks three or more block-grid steps apart on an axis have two whole
    # ranges between them there, each wider than the overlap, so their gap
    # exceeds 2 * overlap + 1: only the 5 x 5 x 5 window around a block can
    # hold its neighbors. Per axis, the gap from each block position to the
    # positions 2 back to 2 ahead; a position off the block grid is too far.
    near = 2 * overlap + 1
    steps = np.arange(-2, 3)
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
        cover_counts=np.bincount(
            np.concatenate(extended_indices), minlength=grid.num_unknowns
        ),
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
) -> list[tuple[SparseMatrix, SparseMatrix, np.ndarray]]:
    """Extract every block's local system from the global operator.

    Entry b is ``(a_ii, coupling, halo_cols)``: the principal submatrix of A
    on block b's extended region, the sorted global indices of the outside
    columns those rows touch (the block's halo dependency set), and the
    extended rows of A restricted to those columns.

    Blocks are extracted in ``batches`` of their extended rows' matrix
    entries. A batch gathers A's rows over its stacked extended indices in
    one call. One position array over the grid, reused by every block, then
    holds the stacked position of each point of the block's region; stacked
    positions only grow from block to block, so an entry whose column reads
    a position below the block's first row lies outside its region. One
    ``np.unique`` of the (block, column) keys of the batch's outside entries
    gives every block's halo columns and each such entry's place among them.
    Each block's matrices are views of the batch's arrays; every region and
    halo set is sorted, so each row's columns stay increasing.
    """
    csr = problem.matrix.csr
    n = csr.shape[1]
    row_entries = np.diff(csr.indptr)
    exts = decomp.extended_indices
    ext_start = np.concatenate(([0], np.cumsum([ext.shape[0] for ext in exts])))
    position = np.full(n, -1)
    systems = []
    for run in batches([int(row_entries[ext].sum()) for ext in exts]):
        row_start = ext_start[run.start : run.stop + 1] - ext_start[run.start]
        gathered = csr[np.concatenate(exts[run.start : run.stop])]
        entry_start = gathered.indptr[row_start]
        # each entry's column as a position in its block's region, or < 0
        local = np.empty(gathered.nnz, dtype=np.int64)
        for i, blk in enumerate(run):
            e0, e1 = entry_start[i], entry_start[i + 1]
            position[exts[blk]] = np.arange(ext_start[blk], ext_start[blk + 1])
            np.take(position, gathered.indices[e0:e1], out=local[e0:e1])
            local[e0:e1] -= ext_start[blk]
        outside = np.flatnonzero(local < 0)
        out_ptr = np.zeros(gathered.shape[0] + 1, dtype=np.int64)
        out_row = np.searchsorted(gathered.indptr, outside, side="right") - 1
        np.cumsum(np.bincount(out_row, minlength=gathered.shape[0]), out=out_ptr[1:])
        in_ptr = gathered.indptr - out_ptr
        inside = local >= 0
        in_cols = local[inside].astype(np.int32)
        in_vals = gathered.data[inside]
        out_block = np.searchsorted(entry_start, outside, side="right") - 1
        halo_keys, halo_pos = np.unique(
            out_block * n + gathered.indices[outside], return_inverse=True
        )
        halo_start = np.searchsorted(halo_keys, np.arange(len(run) + 1) * n)
        out_cols = (halo_pos - halo_start[out_block]).astype(np.int32)
        out_vals = gathered.data[outside]
        for i in range(len(run)):
            r0, r1 = row_start[i], row_start[i + 1]
            h0, h1 = halo_start[i], halo_start[i + 1]
            ip, op = in_ptr[r0 : r1 + 1], out_ptr[r0 : r1 + 1]
            a_ii = scipy.sparse.csr_array(
                (in_vals[ip[0] : ip[-1]], in_cols[ip[0] : ip[-1]], (ip - ip[0]).astype(np.int32)),
                shape=(r1 - r0, r1 - r0),
            )
            coupling = scipy.sparse.csr_array(
                (out_vals[op[0] : op[-1]], out_cols[op[0] : op[-1]], (op - op[0]).astype(np.int32)),
                shape=(r1 - r0, h1 - h0),
            )
            halo_cols = halo_keys[h0:h1] - i * n
            systems.append((SparseMatrix(a_ii), SparseMatrix(coupling), halo_cols))
    return systems
