import tracemalloc

import numpy as np
import pytest

from blocksolve.errors import ConfigurationError
from blocksolve.problems import (
    BATCH_ENTRIES,
    DirichletBoundary,
    Grid3D,
    batches,
    block_system,
    build_laplace_3d,
    decompose,
)

from conftest import dense_solve


class TestBoundary:
    def test_constant_and_faces(self):
        b = DirichletBoundary({"x_lo": 1.0, "y_hi": 0.5})
        assert b.face_values("x_lo", 1, 1)[0, 0] == 1.0
        assert b.face_values("y_hi", 4, 3)[2, 3] == 0.5
        assert b.face_values("z_lo", 1, 1)[0, 0] == 0.0
        assert DirichletBoundary.constant(2.0).face_values("z_hi", 2, 2)[1, 1] == 2.0

    def test_callable_face(self):
        b = DirichletBoundary({"x_lo": lambda j, k: j + 10 * k})
        assert b.face_values("x_lo", 3, 4)[3, 2] == 32.0

    def test_unknown_face_rejected(self):
        with pytest.raises(ConfigurationError, match="boundary"):
            DirichletBoundary({"x_mid": 1.0})

    def test_equality(self):
        assert DirichletBoundary({"x_lo": 1.0}) == DirichletBoundary({"x_lo": 1.0})
        assert DirichletBoundary({"x_lo": 1.0}) != DirichletBoundary({"x_hi": 1.0})


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Grid3D(0, 4, 4), "nx: must be at least 1"),
        (lambda: decompose(Grid3D(4, 4, 4), (0, 1, 1)), "gx: must be at least 1"),
    ],
    ids=["grid", "decompose"],
)
def test_sizes_below_one_rejected(build, message):
    with pytest.raises(ConfigurationError) as raised:
        build()
    assert str(raised.value) == message


class TestBuildLaplace:
    def test_single_point_all_boundary(self):
        problem = build_laplace_3d(Grid3D(1, 1, 1, DirichletBoundary.constant(1.0)))
        assert np.array_equal(problem.matrix.to_dense(), [[6.0]])
        assert np.array_equal(problem.rhs, [6.0])

    def test_chain_rows(self):
        problem = build_laplace_3d(Grid3D(3, 1, 1))
        expected = np.array([[6.0, -1, 0], [-1, 6, -1], [0, -1, 6]])
        assert np.array_equal(problem.matrix.to_dense(), expected)
        assert np.array_equal(problem.rhs, np.zeros(3))

    def test_mixed_boundary_rhs(self):
        grid = Grid3D(2, 1, 1, DirichletBoundary({"x_lo": 2.0, "y_hi": 0.5}))
        problem = build_laplace_3d(grid)
        # left point: x_lo (2.0) + y_hi (0.5); right point: y_hi only
        assert np.array_equal(problem.rhs, [2.5, 0.5])

    def test_callable_boundary_contribution(self):
        grid = Grid3D(2, 2, 1, DirichletBoundary({"z_lo": lambda i, j: i + 10 * j}))
        problem = build_laplace_3d(grid)
        # each unknown (i, j, 0) touches the z_lo face at in-face coords (i, j)
        assert problem.rhs[grid.index(1, 1, 0)] == 11.0

    def test_all_faces_on_non_cubic_grid(self):
        nx, ny, nz = 3, 4, 5
        faces = {
            "x_lo": 0.3,
            "x_hi": lambda j, k: 0.1 * j + 0.7 * k,
            "y_lo": lambda i, k: 1.0 / (1 + i + k),
            "y_hi": -2.1,
            "z_lo": lambda i, j: 0.37 * i - j / 3.0 + 0.1,
            "z_hi": 0.123,
        }
        problem = build_laplace_3d(Grid3D(nx, ny, nz, DirichletBoundary(faces)))
        # grid coordinates of every unknown, in the x-fastest unknown order
        k, j, i = (c.ravel() for c in np.indices((nz, ny, nx)))
        distance = (
            np.abs(i[:, None] - i[None, :])
            + np.abs(j[:, None] - j[None, :])
            + np.abs(k[:, None] - k[None, :])
        )
        expected_a = np.where(distance == 0, 6.0, np.where(distance == 1, -1.0, 0.0))
        assert np.array_equal(problem.matrix.to_dense(), expected_a)
        problem.matrix.check()

        # each face adds its data at the unknowns next to it, in the order
        # z_lo, y_lo, x_lo, x_hi, y_hi, z_hi; callables see numpy arrays here
        on_face = {
            "z_lo": (k == 0, (i, j)),
            "y_lo": (j == 0, (i, k)),
            "x_lo": (i == 0, (j, k)),
            "x_hi": (i == nx - 1, (j, k)),
            "y_hi": (j == ny - 1, (i, k)),
            "z_hi": (k == nz - 1, (i, j)),
        }
        expected_b = np.zeros(nx * ny * nz)
        for name, (mask, (u, v)) in on_face.items():
            spec = faces[name]
            data = spec(u, v) if callable(spec) else np.full(u.shape, spec)
            expected_b = expected_b + np.where(mask, data, 0.0)
        assert np.array_equal(problem.rhs, expected_b)
        faces_touched = sum(mask.astype(int) for mask, _ in on_face.values())
        assert faces_touched.max() == 3 and np.any(faces_touched == 2)

    def test_operator_invariants(self):
        problem = build_laplace_3d(Grid3D(4, 3, 2, DirichletBoundary({"x_lo": 1.0})))
        dense = problem.matrix.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(np.diag(dense), np.full(24, 6.0))
        off = dense - 6.0 * np.eye(24)
        assert set(np.unique(off)) <= {-1.0, 0.0}

    def test_maximum_principle(self):
        grid = Grid3D(4, 4, 4, DirichletBoundary({"x_lo": 1.0}))
        problem = build_laplace_3d(grid)
        x = dense_solve(problem.matrix.to_dense(), problem.rhs)
        assert np.all(x > 0.0) and np.all(x < 1.0)


class TestDecompose:
    def test_two_blocks_along_x(self):
        decomp = decompose(Grid3D(8, 8, 8), (2, 1, 1))
        assert decomp.num_blocks == 2
        assert decomp.owned[0].widths == (4, 8, 8)
        assert decomp.owned[1].widths == (4, 8, 8)
        assert decomp.neighbors == [[1], [0]]

    def test_sixteen_blocks(self):
        decomp = decompose(Grid3D(8, 8, 8), (4, 2, 2))
        assert decomp.num_blocks == 16
        assert all(box.widths == (2, 4, 4) for box in decomp.owned)

    def test_remainder_to_lowest_blocks(self):
        decomp = decompose(Grid3D(10, 1, 1), (3, 1, 1))
        assert [box.widths[0] for box in decomp.owned] == [4, 3, 3]

    @pytest.mark.parametrize(
        "shape,blocks,overlap",
        [((8, 8, 8), (2, 1, 1), 0), ((7, 5, 6), (3, 2, 2), 1), ((9, 9, 9), (2, 3, 2), 2)],
    )
    def test_partition_property(self, shape, blocks, overlap):
        grid = Grid3D(*shape)
        decomp = decompose(grid, blocks, overlap)
        counts = np.zeros(grid.num_unknowns, dtype=int)
        for b in range(decomp.num_blocks):
            counts[decomp.owned_indices(b)] += 1
        assert np.all(counts == 1)
        assert sum(box.size for box in decomp.owned) == grid.num_unknowns

    def test_neighbor_symmetry(self):
        decomp = decompose(Grid3D(8, 8, 4), (2, 2, 2), 1)
        for b, nbrs in enumerate(decomp.neighbors):
            for n in nbrs:
                assert b in decomp.neighbors[n]

    def test_zero_overlap_extends_nothing(self):
        decomp = decompose(Grid3D(8, 8, 8), (2, 2, 1))
        for b in range(4):
            assert decomp.extra_unknowns(b) == 0

    def test_block_grid_too_fine(self):
        with pytest.raises(ConfigurationError, match="gx"):
            decompose(Grid3D(4, 4, 4), (5, 1, 1))
        with pytest.raises(ConfigurationError, match="gz"):
            decompose(Grid3D(4, 4, 4), (1, 1, 9))

    def test_overlap_preconditions(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            decompose(Grid3D(8, 8, 8), (2, 1, 1), overlap=-1)
        # narrowest x-range is 4 wide, so overlap 4 must be rejected
        with pytest.raises(ConfigurationError, match="overlap"):
            decompose(Grid3D(8, 8, 8), (2, 1, 1), overlap=4)


def l1_distance_to_box(box, i, j, k):
    d = 0
    for axis, p in enumerate((i, j, k)):
        d += max(box.lo[axis] - p, p - (box.hi[axis] - 1), 0)
    return d


def enumerate_extended(grid, box, overlap):
    """Independent oracle: points within stencil distance ``overlap`` of the box."""
    count = 0
    for k in range(grid.nz):
        for j in range(grid.ny):
            for i in range(grid.nx):
                if l1_distance_to_box(box, i, j, k) <= overlap:
                    count += 1
    return count


class TestOverlapCounts:
    def test_fifty_cubed_face_formula(self):
        # 50x50x50 owned box with neighbors on all six faces, one overlap layer
        grid = Grid3D(150, 150, 150)
        decomp = decompose(grid, (3, 3, 3), overlap=1)
        center = 1 + 3 * (1 + 3 * 1)
        assert decomp.owned[center].widths == (50, 50, 50)
        assert decomp.extra_unknowns(center) == 15000
        assert 15000 == 1 * (2 * 50 * 50 + 2 * 50 * 50 + 2 * 50 * 50)

    @pytest.mark.parametrize("overlap", [2, 3])
    def test_wider_overlaps_match_enumeration(self, overlap):
        grid = Grid3D(30, 30, 30)
        decomp = decompose(grid, (3, 3, 3), overlap=overlap)
        for block in (13, 0, 22):  # center, corner, face-adjacent
            expected = enumerate_extended(grid, decomp.owned[block], overlap)
            reported = decomp.owned[block].size + decomp.extra_unknowns(block)
            assert reported == expected


def dependency_neighbors(grid, owned, overlap):
    """Neighbor lists from the data dependency, point by point: a region is
    every point within L1 distance ``overlap`` of the owned box, its halo
    every other point one stencil step from it, and s and t are neighbors
    when a point of t's region or halo lies in s's owned box, or the
    reverse."""
    owner = np.empty(grid.shape[::-1], dtype=np.int64)
    for b, box in enumerate(owned):
        owner[tuple(slice(lo, hi) for lo, hi in zip(box.lo[::-1], box.hi[::-1]))] = b
    coords = np.indices(grid.shape[::-1])[::-1]  # x, y, z of every point
    takes = np.zeros((len(owned), len(owned)), dtype=bool)
    for t, box in enumerate(owned):
        distance = sum(
            np.maximum(np.maximum(box.lo[d] - c, c - (box.hi[d] - 1)), 0)
            for d, c in enumerate(coords)
        )
        region = distance <= overlap
        reach = region.copy()
        for axis in range(3):
            lower = [slice(None)] * 3
            upper = [slice(None)] * 3
            lower[axis], upper[axis] = slice(None, -1), slice(1, None)
            reach[tuple(lower)] |= region[tuple(upper)]
            reach[tuple(upper)] |= region[tuple(lower)]
        takes[t, owner[reach]] = True
    takes |= takes.T
    np.fill_diagonal(takes, False)
    return [np.flatnonzero(row).tolist() for row in takes]


def brute_force_decomposition(grid, owned, overlap):
    """Extended regions and neighbor lists from single points: a region is
    every point within L1 distance ``overlap`` of the owned box, and the
    neighbors are the data dependency (``dependency_neighbors``)."""
    points = [
        (i, j, k) for k in range(grid.nz) for j in range(grid.ny) for i in range(grid.nx)
    ]
    regions = [
        [p for p in points if l1_distance_to_box(box, *p) <= overlap] for box in owned
    ]
    indices = [np.array([grid.index(*p) for p in region], dtype=np.int64) for region in regions]
    return indices, dependency_neighbors(grid, owned, overlap)


def assert_same_regions(decomp, regions):
    """The decomposition's regions are the given ones, byte for byte."""
    assert len(decomp.extended_indices) == len(regions)
    for got, want in zip(decomp.extended_indices, regions):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


class TestDecomposeOracle:
    @pytest.mark.parametrize(
        "shape,blocks,overlap",
        [
            ((6, 1, 1), (3, 1, 1), 1),
            ((4, 4, 4), (2, 2, 2), 0),
            ((6, 6, 6), (2, 3, 2), 0),
            ((5, 4, 3), (2, 2, 1), 1),
            ((7, 5, 6), (3, 2, 2), 1),
            ((9, 9, 5), (3, 3, 1), 2),
            ((3, 4, 5), (1, 2, 1), 1),
        ],
    )
    def test_matches_brute_force(self, shape, blocks, overlap):
        grid = Grid3D(*shape)
        decomp = decompose(grid, blocks, overlap)
        indices, neighbors = brute_force_decomposition(grid, decomp.owned, overlap)
        assert_same_regions(decomp, indices)
        assert decomp.neighbors == neighbors

    @pytest.mark.parametrize("overlap", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "shape,blocks",
        [((31, 13, 11), (7, 3, 2)), ((20, 8, 29), (5, 1, 6)), ((24, 24, 24), (6, 6, 6))],
    )
    def test_neighbors_match_the_all_pairs_rule(self, shape, blocks, overlap):
        # uneven splits, and block grids wider than the 3-block search window
        grid = Grid3D(*shape)
        decomp = decompose(grid, blocks, overlap)
        assert decomp.neighbors == dependency_neighbors(grid, decomp.owned, overlap)

    @pytest.mark.parametrize("overlap", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "shape,blocks",
        [((31, 13, 11), (7, 3, 2)), ((20, 8, 29), (5, 1, 6)), ((24, 24, 24), (6, 6, 6))],
    )
    def test_regions_match_the_per_block_rule(self, shape, blocks, overlap, reference_regions):
        # uneven splits, an axis with one block, and block grids wider than
        # the padding on every side
        grid = Grid3D(*shape)
        decomp = decompose(grid, blocks, overlap)
        assert_same_regions(decomp, reference_regions(grid, decomp.owned, overlap))

    def test_regions_of_blocks_touching_0_to_6_faces(self, reference_regions):
        grid = Grid3D(9, 7, 8)
        touched = set()
        for blocks in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 3, 3), (3, 3, 3), (2, 3, 1)]:
            for overlap in (0, 1):
                decomp = decompose(grid, blocks, overlap)
                assert_same_regions(decomp, reference_regions(grid, decomp.owned, overlap))
            touched |= {
                sum((box.lo[d] == 0) + (box.hi[d] == grid.shape[d]) for d in range(3))
                for box in decomp.owned
            }
        assert touched == set(range(7))

    def test_regions_of_4096_blocks(self, reference_regions):
        grid = Grid3D(32, 32, 32)
        decomp = decompose(grid, (16, 16, 16), 1)
        assert_same_regions(decomp, reference_regions(grid, decomp.owned, 1))

    @pytest.mark.parametrize(
        "shape,blocks,overlap",
        [
            ((31, 13, 11), (7, 3, 2), 0),
            ((31, 13, 11), (7, 3, 2), 3),
            ((9, 7, 8), (3, 3, 3), 1),
            ((6, 1, 1), (3, 1, 1), 1),
        ],
    )
    def test_kind_boxes_are_each_blocks_bounding_box(self, shape, blocks, overlap):
        # each block's box from its own indices: the point's position in the
        # region at its (z, y, x) offset from the region's lowest corner
        grid = Grid3D(*shape)
        decomp = decompose(grid, blocks, overlap)
        assert decomp.region_kinds.shape == (decomp.num_blocks,)
        assert set(decomp.region_kinds.tolist()) == set(range(len(decomp.kind_masks)))
        for ext, kind in zip(decomp.extended_indices, decomp.region_kinds):
            coords = np.unravel_index(ext, (grid.nz, grid.ny, grid.nx))
            lows = [c.min() for c in coords]
            box = np.full([c.max() - lo + 1 for c, lo in zip(coords, lows)], -1)
            box[tuple(c - lo for c, lo in zip(coords, lows))] = np.arange(ext.size)
            # the mask's C order is the region's sorted order
            mask = decomp.kind_masks[kind]
            numbered = np.full(mask.shape, -1)
            numbered[mask] = np.arange(ext.size)
            assert mask.dtype == bool
            assert np.array_equal(numbered, box)

    def test_neighbors_across_a_narrow_block(self):
        # blocks 0 and 2 own x = 0..1 and 4..5, 3 apart: more than overlap
        # + 1, so neither tracks a point the other owns. Their regions and
        # halos reach only x = 2 and x = 3, which block 1 owns
        decomp = decompose(Grid3D(6, 1, 1), (3, 1, 1), 1)
        assert decomp.neighbors == [[1], [0, 2], [1]]

    @pytest.mark.parametrize(
        "size,blocks,links",
        [(32, (2, 2, 2), 48), (24, (4, 4, 4), 720), (32, (8, 8, 8), 7392)],
    )
    def test_link_counts_at_overlap_1(self, size, blocks, links):
        # boxes that meet only at a corner are 3 apart, more than overlap + 1,
        # so they are no link
        decomp = decompose(Grid3D(size, size, size), blocks, 1)
        assert sum(map(len, decomp.neighbors)) == links

    def test_zero_overlap_has_face_neighbors_only(self):
        decomp = decompose(Grid3D(4, 4, 4), (2, 2, 2), 0)
        assert decomp.neighbors[0] == [1, 2, 4]
        assert decomp.neighbors[7] == [3, 5, 6]

    def test_peak_memory_is_bounded_by_the_regions(self):
        # 512 blocks of 6^3 points on 48^3: a full-grid mask per block would
        # take 512 * 110592 bytes
        tracemalloc.start()
        try:
            decompose(Grid3D(48, 48, 48), (8, 8, 8), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


def test_batches_split_at_the_entry_limit():
    half = BATCH_ENTRIES // 2
    counts = [half, half, 1, BATCH_ENTRIES + 5, 3, BATCH_ENTRIES]
    # a block over the limit is a batch of its own
    assert batches(counts) == [range(0, 2), range(2, 3), range(3, 4), range(4, 5), range(5, 6)]
    assert batches([]) == []


class TestBlockSystem:
    def test_single_block_is_whole_operator(self):
        problem = build_laplace_3d(Grid3D(3, 3, 3))
        decomp = decompose(problem.grid, (1, 1, 1))
        [(a_ii, coupling, halo_cols)] = block_system(problem, decomp)
        assert np.array_equal(a_ii.matrix().to_dense(), problem.matrix.to_dense())
        assert coupling.shape == (27, 0) and coupling.matrix().nnz == 0
        assert halo_cols.size == 0

    def test_chain_split_in_two(self):
        problem = build_laplace_3d(Grid3D(4, 1, 1))
        decomp = decompose(problem.grid, (2, 1, 1))
        expected = np.array([[6.0, -1.0], [-1.0, 6.0]])
        (a0, c0, h0), (a1, c1, h1) = block_system(problem, decomp)
        assert np.array_equal(a0.matrix().to_dense(), expected)
        assert np.array_equal(a1.matrix().to_dense(), expected)
        # block 0's local row 1 couples to global column 2 with -1, and
        # block 1's local row 0 to global column 1
        assert np.array_equal(h0, [2]) and np.array_equal(c0.matrix().to_dense(), [[0.0], [-1.0]])
        assert np.array_equal(h1, [1]) and np.array_equal(c1.matrix().to_dense(), [[-1.0], [0.0]])

    def test_chain_with_overlap(self):
        problem = build_laplace_3d(Grid3D(4, 1, 1))
        decomp = decompose(problem.grid, (2, 1, 1), overlap=1)
        a0, c0, h0 = block_system(problem, decomp)[0]
        assert a0.shape[0] == 3
        expected = np.array([[6.0, -1, 0], [-1, 6, -1], [0, -1, 6]])
        assert np.array_equal(a0.matrix().to_dense(), expected)
        assert np.array_equal(h0, [3])
        assert np.array_equal(c0.matrix().to_dense(), [[0.0], [0.0], [-1.0]])

    @pytest.mark.parametrize("blocks", [(2, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_slice_oracle(self, blocks):
        problem = build_laplace_3d(Grid3D(4, 4, 4, DirichletBoundary({"x_hi": 1.0})))
        decomp = decompose(problem.grid, blocks, overlap=1)
        dense = problem.matrix.to_dense()
        for ext, (a_ii, coupling, halo_cols) in zip(
            decomp.extended_indices, block_system(problem, decomp)
        ):
            assert np.array_equal(a_ii.matrix().to_dense(), dense[np.ix_(ext, ext)])
            outside = dense[ext].copy()
            outside[:, ext] = 0.0
            # the halo is exactly the outside columns the extended rows touch
            assert np.array_equal(halo_cols, np.nonzero(outside.any(axis=0))[0])
            assert coupling.shape == (ext.size, halo_cols.size)
            # a_ii, coupling and halo_cols rebuild A's extended rows exactly
            rebuilt = np.zeros_like(outside)
            rebuilt[:, ext] = a_ii.matrix().to_dense()
            rebuilt[:, halo_cols] = coupling.matrix().to_dense()
            assert np.array_equal(rebuilt, dense[ext])

    def test_zero_overlap_reconstruction(self):
        problem = build_laplace_3d(Grid3D(4, 4, 4))
        decomp = decompose(problem.grid, (2, 2, 1))
        rebuilt = np.zeros((64, 64))
        for ext, (a_ii, coupling, halo_cols) in zip(
            decomp.extended_indices, block_system(problem, decomp)
        ):
            rebuilt[np.ix_(ext, ext)] += a_ii.matrix().to_dense()
            rebuilt[np.ix_(ext, halo_cols)] += coupling.matrix().to_dense()
        assert np.array_equal(rebuilt, problem.matrix.to_dense())
