import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import kinnav
from kinnav.maps import random_maze, random_obstacles
from kinnav.robots import A1, ALIENGO, SPOT
from kinnav.task import PROXIMITY_MARGIN
from kinnav.world import (CERT_EPS, DistanceField, InvalidGoalError, MapError,
                          OccupancyGrid, OutOfBoundsError, distance_field, load_world,
                          raycast, save_world)

from oracles import (KDFieldReference, KDGridReference, blocked_oracle, cell_lists_reference,
                     clearance_oracle, descent_neighbor_reference, descent_path_reference, dijkstra_oracle,
                     distance_values_reference, neighbor_graph_reference, raymarch_oracle,
                     value_at_reference)

SQRT2 = math.sqrt(2.0)


# -- map document I/O ------------------------------------------------------


def test_load_world_basic():
    grid = load_world("cell_size 0.5\n..\n.#\n")
    assert grid.width == 2 and grid.height == 2
    assert grid.cell_size == 0.5
    assert grid.cells.sum() == 1
    assert grid.is_occupied(1, 1)
    assert not grid.is_occupied(0, 0)


def test_load_world_ragged_row():
    with pytest.raises(MapError, match="ragged row at line 3"):
        load_world("cell_size 0.5\n..\n.\n")


def test_load_world_bad_header():
    with pytest.raises(MapError, match="line 1"):
        load_world("cellsize 0.5\n..\n")
    with pytest.raises(MapError, match="line 1"):
        load_world("cell_size nope\n..\n")
    with pytest.raises(MapError, match="line 1"):
        load_world("")


def test_load_world_bad_char_and_empty():
    with pytest.raises(MapError, match="line 2"):
        load_world("cell_size 1\n.x\n")
    with pytest.raises(MapError, match="line 2"):
        load_world("cell_size 1\n")


def test_roundtrip_random_map():
    grid = random_obstacles(16, 16, 0.25, seed=7, density=0.3)
    doc = save_world(grid)
    again = save_world(load_world(doc))
    assert doc == again


def test_grid_invariants():
    with pytest.raises(MapError):
        OccupancyGrid(np.zeros((0, 3), dtype=bool), 1.0)
    with pytest.raises(MapError):
        OccupancyGrid(np.zeros((3, 3), dtype=bool), 0.0)


def test_coordinate_bijection():
    grid = random_obstacles(12, 9, 0.4, seed=1)
    for iy in range(grid.height):
        for ix in range(grid.width):
            cx, cy = grid.cell_center(ix, iy)
            assert grid.world_to_cell(cx, cy) == (ix, iy)


# -- distance field --------------------------------------------------------


def empty_grid(n=10, cs=1.0):
    return OccupancyGrid(np.zeros((n, n), dtype=bool), cs)


def test_distance_straight_and_diagonal():
    grid = empty_grid()
    f = distance_field(grid, (3.5, 0.5), 0.0)
    assert f.values[0, 0] == pytest.approx(3.0, abs=1e-12)
    f2 = distance_field(grid, (2.5, 2.5), 0.0)
    assert f2.values[0, 0] == pytest.approx(2 * SQRT2, abs=1e-12)


def test_distance_goal_cell_zero():
    grid = empty_grid()
    f = distance_field(grid, (3.5, 4.5), 0.0)
    assert f.values[4, 3] == 0.0


def test_distance_invalid_goal():
    grid = load_world("cell_size 1\n...\n.#.\n...\n")
    with pytest.raises(InvalidGoalError):
        distance_field(grid, (1.5, 1.5), 0.0)
    with pytest.raises(InvalidGoalError):
        distance_field(grid, (-3.0, 0.5), 0.0)


def test_distance_wall_with_gap_matches_oracle():
    rows = ["......."] * 3 + ["###.###"] + ["......."] * 3
    grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")
    f = distance_field(grid, (0.5, 0.5), 0.0)
    oracle = dijkstra_oracle(grid, (0, 0), 0.0)
    for iy in range(grid.height):
        for ix in range(grid.width):
            a, b = f.values[iy, ix], oracle[iy][ix]
            if math.isinf(b):
                assert math.isinf(a)
            else:
                assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_distance_random_grids_match_oracle(seed):
    grid = random_obstacles(20, 20, 0.5, seed=seed, density=0.25)
    free = np.argwhere(~grid.cells)
    rng = np.random.default_rng(seed)
    radius = rng.choice([0.0, 0.3])
    # pick a goal cell that stays passable under the chosen radius
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= radius))
    if len(ok) == 0:
        pytest.skip("map filled in")
    gy, gx = ok[rng.integers(len(ok))]
    f = distance_field(grid, grid.cell_center(gx, gy), radius)
    oracle = dijkstra_oracle(grid, (gx, gy), radius)
    for iy in range(grid.height):
        for ix in range(grid.width):
            a, b = f.values[iy, ix], oracle[iy][ix]
            if math.isinf(b):
                assert math.isinf(a)
            else:
                assert a == pytest.approx(b, abs=1e-9)


def test_bellman_condition():
    grid = random_obstacles(20, 20, 0.5, seed=11, density=0.2)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= 0.0))
    gy, gx = ok[0]
    f = distance_field(grid, grid.cell_center(gx, gy), 0.0)
    cs = grid.cell_size
    for iy in range(grid.height):
        for ix in range(grid.width):
            v = f.values[iy, ix]
            if not math.isfinite(v) or v == 0.0:
                continue
            best = math.inf
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    nx, ny = ix + dx, iy + dy
                    if 0 <= nx < grid.width and 0 <= ny < grid.height:
                        cost = SQRT2 * cs if dx and dy else cs
                        best = min(best, f.values[ny, nx] + cost)
            assert abs(best - v) < 1e-9


def test_inflation_monotonicity():
    grid = random_obstacles(20, 20, 0.5, seed=3, density=0.15)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= 0.6))
    gy, gx = ok[0]
    goal = grid.cell_center(gx, gy)
    prev = None
    for radius in (0.0, 0.2, 0.4, 0.6):
        f = distance_field(grid, goal, radius)
        if prev is not None:
            assert np.all(f.values >= prev - 1e-12)
        prev = f.values


def test_triangle_step_bound():
    grid = random_obstacles(20, 20, 0.5, seed=5, density=0.2)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= 0.0))
    gy, gx = ok[0]
    f = distance_field(grid, grid.cell_center(gx, gy), 0.0)
    bound = SQRT2 * grid.cell_size + 1e-9
    v = f.values
    for dy, dx in ((0, 1), (1, 0), (1, 1), (1, -1)):
        a = v[max(dy, 0):grid.height + min(dy, 0), max(dx, 0):grid.width + min(dx, 0)]
        b = v[max(-dy, 0):grid.height + min(-dy, 0), max(-dx, 0):grid.width + min(-dx, 0)]
        both = np.isfinite(a) & np.isfinite(b)
        assert np.all(np.abs(a[both] - b[both]) <= bound)


def test_value_at_matches_cell_centers():
    grid = random_obstacles(15, 15, 0.5, seed=9, density=0.2)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= 0.3))
    gy, gx = ok[-1]
    f = distance_field(grid, grid.cell_center(gx, gy), 0.3)
    for iy, ix in ((int(a), int(b)) for a, b in np.argwhere(np.isfinite(f.values))):
        cx, cy = grid.cell_center(ix, iy)
        assert f.value_at(cx, cy) == pytest.approx(f.values[iy, ix], abs=1e-9)


def test_descent_path_reaches_goal():
    grid = random_obstacles(15, 15, 0.5, seed=4, density=0.15)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= 0.25))
    gy, gx = ok[0]
    f = distance_field(grid, grid.cell_center(gx, gy), 0.25)
    sy, sx = ok[len(ok) // 2]
    if math.isfinite(f.values[sy, sx]):
        path = f.descent_path(int(sx), int(sy))
        assert path[0] == (sx, sy)
        assert path[-1] == f.goal_cell
        # strictly decreasing values along the path
        vals = [f.values[iy, ix] for ix, iy in path]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_descent_path_matches_reference():
    # every start cell, finite or not, of eight goals on each map; the
    # memoized steps are shared between the starts of one field
    finite = 0
    for grid, radius in ((random_maze(33, 33, 0.25, seed=11), 0.3),
                         (random_maze(25, 25, 0.5, seed=12), 0.3),
                         (random_obstacles(30, 30, 0.25, seed=13, density=0.1), 0.2)):
        ok = np.argwhere(grid.passable_mask(radius))
        rng = np.random.default_rng(len(ok))
        for gy, gx in ok[rng.choice(len(ok), 8, replace=False)]:
            f = distance_field(grid, grid.cell_center(gx, gy), radius)
            for iy in range(grid.height):
                for ix in range(grid.width):
                    assert f.descent_path(ix, iy) == descent_path_reference(f, ix, iy), (ix, iy)
            finite += int(np.isfinite(f.values).sum())
    assert finite > 4000


def test_descent_neighbor_ties_go_to_lowest_row_then_column():
    grid = empty_grid(4)
    values = np.full((4, 4), 5.0)
    # three neighbors of cell (1, 1) tie at the lowest value
    values[0, 2] = values[2, 0] = values[1, 0] = 1.0
    f = DistanceField(grid, (1.5, 1.5), 0.0, values)
    assert f.descent_neighbor(1, 1) == (2, 0)
    values = np.full((4, 4), 5.0)
    values[2, 2] = values[2, 1] = values[1, 2] = 1.0
    f = DistanceField(grid, (1.5, 1.5), 0.0, values)
    assert f.descent_neighbor(1, 1) == (2, 1)
    f = DistanceField(grid, (1.5, 1.5), 0.0, np.full((4, 4), math.inf))
    assert f.descent_neighbor(1, 1) is None


def reference_fields():
    """(grid, field) on non-square mazes and an obstacle map, a few goals on each."""
    out = []
    for grid, radius in ((random_maze(41, 25, 0.25, seed=11), 0.3),
                         (random_maze(21, 29, 0.5, seed=12), 0.25),
                         (random_obstacles(36, 24, 0.1, seed=13, density=0.03), 0.2)):
        ok = np.argwhere(grid.passable_mask(radius))
        rng = np.random.default_rng(len(ok))
        for gy, gx in ok[rng.choice(len(ok), 4, replace=False)]:
            out.append((grid, distance_field(grid, grid.cell_center(gx, gy), radius)))
    return out


def test_value_at_and_descent_neighbor_match_numpy_reads():
    # lattice, off-lattice and border points; points whose whole 3x3
    # neighborhood is +inf take the fallback on both paths
    rng = np.random.default_rng(3)
    lattice = off = border = all_inf = 0
    for grid, f in reference_fields():
        x0, y0, x1, y1 = grid.extent
        cs = grid.cell_size
        points = [grid.cell_center(ix, iy) for iy in range(grid.height) for ix in range(grid.width)]
        lattice += len(points)
        jitter = rng.uniform(-0.5 * cs, 0.5 * cs, size=(len(points), 2))
        points += [(x + dx, y + dy) for (x, y), (dx, dy) in zip(points, jitter.tolist())]
        off += len(jitter)
        edge = np.linspace(0.0, 1.0, 41).tolist()
        ring = ([(x0 + t * (x1 - x0), y0) for t in edge] + [(x0 + t * (x1 - x0), y1) for t in edge]
                + [(x0, y0 + t * (y1 - y0)) for t in edge] + [(x1, y0 + t * (y1 - y0)) for t in edge])
        points += ring
        border += len(ring)
        for x, y in points:
            got, want = f.value_at(x, y), value_at_reference(f, x, y)
            assert got == want and type(got) is float, (x, y)
            ix, iy = grid.world_to_cell(x, y)
            window = f.values[max(iy - 1, 0):iy + 2, max(ix - 1, 0):ix + 2]
            all_inf += int(not np.isfinite(window).any())
        for iy in range(grid.height):
            for ix in range(grid.width):
                assert f.descent_neighbor(ix, iy) == descent_neighbor_reference(f, ix, iy)
    assert lattice > 3000 and off > 3000 and border > 500 and all_inf > 500


@pytest.mark.parametrize("cell_size", [0.1, 0.15, 0.25, 0.5])
def test_symmetric_graph_matches_one_way_undirected_search(cell_size):
    # mazes wide enough for Spot, obstacle fields sparse enough to keep free cells
    corridor = max(3, math.ceil(0.75 / cell_size))
    size = 4 * (corridor + 1) + 1
    maps = [random_maze(size, size, cell_size, seed=21, corridor=corridor),
            random_obstacles(size, size, cell_size, seed=22, density=0.04 * cell_size / 0.1)]
    for grid in maps:
        for spec in (A1, ALIENGO, SPOT):
            radius = spec.footprint_radius
            ok = np.argwhere(grid.passable_mask(radius))
            graph = neighbor_graph_reference(grid, radius)
            rng = np.random.default_rng(len(ok))
            for gy, gx in ok[rng.choice(len(ok), 6, replace=False)]:
                f = distance_field(grid, grid.cell_center(gx, gy), radius)
                want = distance_values_reference(grid, graph, (gx, gy))
                assert f.values.tobytes() == want.tobytes()


def test_fields_share_their_values_buffer():
    # 50 live fields cost their values arrays and little else: a per-field
    # copy of the values (a list of rows, a contiguous duplicate) fails this
    grid = random_maze(64, 64, 0.25, seed=77)
    ok = np.argwhere(grid.passable_mask(SPOT.footprint_radius))
    goals = [grid.cell_center(gx, gy) for gy, gx in ok[::len(ok) // 50][:50]]
    distance_field(grid, goals[0], SPOT.footprint_radius)   # caches the graph
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fields = [distance_field(grid, g, SPOT.footprint_radius) for g in goals]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fields) == 50
    assert grown <= 1.1 * sum(f.values.nbytes for f in fields)


# -- clearance -------------------------------------------------------------


def test_clearance_empty_room_center():
    grid = OccupancyGrid(np.zeros((3, 3), dtype=bool), 1.0)
    assert grid.clearance(1.5, 1.5) == pytest.approx(1.5, abs=1e-12)


def test_clearance_near_wall_face():
    grid = load_world("cell_size 1\n...\n..#\n...\n")
    # occupied cell spans x in [2,3], y in [1,2]; probe 0.15 m left of its face
    assert grid.clearance(1.85, 1.5) == pytest.approx(0.15, abs=1e-12)


def test_clearance_inside_obstacle_zero():
    grid = load_world("cell_size 1\n...\n.#.\n...\n")
    assert grid.clearance(1.5, 1.5) == 0.0


def test_clearance_out_of_bounds():
    grid = empty_grid(4)
    with pytest.raises(OutOfBoundsError):
        grid.clearance(-0.1, 2.0)


@pytest.mark.parametrize("seed", range(3))
def test_clearance_matches_brute_force(seed):
    grid = random_obstacles(20, 20, 0.5, seed=100 + seed, density=0.2)
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = grid.extent
    for _ in range(50):
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        assert grid.clearance(x, y) == pytest.approx(
            clearance_oracle(grid, x, y), abs=1e-9)


def test_center_clearance_matches_pointwise():
    grid = random_obstacles(12, 12, 0.5, seed=2, density=0.25)
    table = grid.center_clearance()
    for iy in range(grid.height):
        for ix in range(grid.width):
            cx, cy = grid.cell_center(ix, iy)
            assert table[iy, ix] == grid.clearance(cx, cy)


# -- lattice queries vs the KD-tree versions -------------------------------


def checker_grids():
    yield random_obstacles(14, 12, 0.5, seed=7, density=0.25)
    yield random_obstacles(30, 30, 0.25, seed=8, density=0.03)
    yield OccupancyGrid(np.random.default_rng(3).random((10, 13)) < 0.4, 0.3, (-1.7, 2.2))
    yield OccupancyGrid(np.zeros((5, 8), dtype=bool), 0.5, (0.4, -0.9))
    yield OccupancyGrid(np.ones((4, 4), dtype=bool), 1.0)


def geometry_grids():
    """Cells of 0.1 to 1 m, offset origins, an empty and a full grid."""
    yield random_maze(64, 64, 0.25, seed=77)
    yield random_maze(33, 33, 0.5, seed=3)
    yield random_obstacles(60, 60, 0.1, seed=5, density=0.1)
    yield random_obstacles(40, 30, 0.15, seed=11, density=0.15)
    yield OccupancyGrid(np.random.default_rng(4).random((12, 9)) < 0.3, 1.0, (0.37, -5.1))
    yield OccupancyGrid(np.random.default_rng(5).random((25, 21)) < 0.2, 0.1, (3.3, 1.1))
    yield from checker_grids()


def grid_points(grid, rng, n):
    """n uniform points in the grid, plus n on cell edges and n // 3 on cell corners."""
    x0, y0, x1, y1 = grid.extent
    cs = grid.cell_size
    pts = rng.uniform((x0, y0), (x1, y1), (n, 2)).tolist()
    for _ in range(n // 3):
        ix = int(rng.integers(0, grid.width + 1))
        iy = int(rng.integers(0, grid.height + 1))
        pts.append((x0 + ix * cs, rng.uniform(y0, y1)))
        pts.append((rng.uniform(x0, x1), y0 + iy * cs))
        pts.append((x0 + ix * cs, y0 + iy * cs))
    return [(x, y) for x, y in pts if grid.in_bounds(x, y)]


def test_clearance_matches_kd_reference():
    for k, grid in enumerate(geometry_grids()):
        ref = KDGridReference(grid)
        assert np.array_equal(grid.center_clearance(), ref.center_clearance())
        for x, y in grid_points(grid, np.random.default_rng(k), 2750):
            assert grid.clearance(x, y) == ref.clearance(x, y), (k, x, y)


def test_checker_tables_match_reference():
    for grid in geometry_grids():
        cs = grid.cell_size
        for radius in (0.2, 0.25, 0.3):
            checker = grid.collision_checker(radius)
            assert checker._lists == cell_lists_reference(
                checker, radius + checker.cap + SQRT2 * cs)


def test_blocked_matches_brute_force():
    for k, grid in enumerate(geometry_grids()):
        points = grid_points(grid, np.random.default_rng(50 + k), 600)
        for radius in (0.2, 0.25, 0.3):
            checker = grid.collision_checker(radius)
            for x, y in points:
                assert checker.blocked(x, y) == blocked_oracle(grid, radius, x, y), (k, radius, x, y)


def test_blocked_is_clearance_below_radius():
    for k, grid in enumerate(geometry_grids()):
        points = grid_points(grid, np.random.default_rng(70 + k), 600)
        clear = [grid.clearance(x, y) for x, y in points]
        for radius in (0.2, 0.25, 0.3):
            checker = grid.collision_checker(radius)
            for (x, y), c in zip(points, clear):
                assert checker.blocked(x, y) == (c < radius), (k, radius, x, y)


def test_passable_mask_is_free_and_not_blocked_at_center():
    for k, grid in enumerate(geometry_grids()):
        for radius in (0.2, 0.25, 0.3):
            checker = grid.collision_checker(radius)
            mask = grid.passable_mask(radius)
            for iy, ix in np.argwhere(~grid.cells).tolist():
                assert mask[iy, ix] == (not checker.blocked(*grid.cell_center(ix, iy))), \
                    (k, radius, ix, iy)


def test_fallback_value_matches_kd_reference():
    """Equal to the KD-tree's answer; on exact ties, the lowest row-major cell's."""
    ties = 0
    for k, grid in enumerate(geometry_grids()):
        free = np.argwhere(grid.passable_mask(0.2))
        if not len(free):
            continue
        # the goal nearest the middle of the grid, for a field that covers much of it
        iy, ix = free[np.argmin(np.abs(free - [grid.height // 2, grid.width // 2]).sum(axis=1))]
        field = distance_field(grid, grid.cell_center(ix, iy), 0.2)
        ref = KDFieldReference(field)
        iys, ixs = np.nonzero(np.isfinite(field.values))
        ox, oy = grid.origin
        cx = ox + (ixs + 0.5) * grid.cell_size
        cy = oy + (iys + 0.5) * grid.cell_size
        for x, y in grid_points(grid, np.random.default_rng(k), 1000):
            d2 = (cx - x) ** 2 + (cy - y) ** 2
            first, second = np.argsort(d2, kind="stable")[:2]
            if d2[first] == d2[second]:
                ties += 1
                want = float(field.values[iys[first], ixs[first]] + math.sqrt(d2[first]))
                assert field._fallback_value(x, y) == want, (x, y)
            else:
                assert field._fallback_value(x, y) == ref._fallback_value(x, y), (x, y)
    assert ties > 0
    unreachable = DistanceField(empty_grid(3), (0.5, 0.5), 0.2, np.full((3, 3), math.inf))
    assert unreachable._fallback_value(0.5, 0.5) == math.inf


def test_package_imports_without_scipy_spatial():
    # a fresh interpreter that finds kinnav where this one did
    src = os.path.dirname(os.path.dirname(kinnav.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import kinnav, kinnav.cli; " \
           "print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- collision checker -----------------------------------------------------


def probe_points(grid, rng, n=300):
    """Uniform points on and around the grid plus points on cell boundaries."""
    x0, y0, x1, y1 = grid.extent
    pts = rng.uniform((x0 - 0.7, y0 - 0.7), (x1 + 0.7, y1 + 0.7), (n, 2)).tolist()
    cs = grid.cell_size
    for _ in range(n // 3):
        ix = int(rng.integers(0, grid.width + 1))
        iy = int(rng.integers(0, grid.height + 1))
        pts.append((x0 + ix * cs, rng.uniform(y0, y1)))
        pts.append((rng.uniform(x0, x1), y0 + iy * cs))
        pts.append((x0 + ix * cs, y0 + iy * cs))
    return pts


@pytest.mark.parametrize("radius", [0.2, 0.3])
def test_nearest_and_penetration_match_brute_force(radius):
    rng = np.random.default_rng(int(radius * 10))
    for grid in checker_grids():
        checker = grid.collision_checker(radius)
        limit = radius + checker.cap
        for x, y in probe_points(grid, rng):
            true = clearance_oracle(grid, x, y)
            got = checker.nearest(x, y)
            if true <= limit:
                assert got == true, (x, y)
            else:
                assert got >= limit, (x, y)
            assert checker.penetration(x, y) == max(radius - true, 0.0), (x, y)


def test_certified_discs_agree_with_blocked():
    rng = np.random.default_rng(9)
    for grid in checker_grids():
        checker = grid.collision_checker(0.3)
        for x, y in probe_points(grid, rng, n=150):
            hit, reach2 = checker.certify(x, y)
            assert hit == checker.blocked(x, y)
            reach = math.sqrt(reach2)
            for t in (0.5, 1.0 - 1e-12):
                for a in rng.uniform(-math.pi, math.pi, 4):
                    qx = x + t * reach * math.cos(a)
                    qy = y + t * reach * math.sin(a)
                    if (qx - x) ** 2 + (qy - y) ** 2 < reach2:
                        assert checker.blocked(qx, qy) == hit, (x, y, qx, qy)


def boundary_points(inside, a, b):
    """Points on segment a-b where inside() flips, bisected to adjacent floats, and neighbors."""
    def at(t):
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

    lo, hi = 0.0, 1.0  # inside(at(lo)) differs from inside(at(hi))
    flip = inside(*at(lo))
    while True:
        mid = 0.5 * (lo + hi)
        if at(mid) in (at(lo), at(hi)):
            break
        if inside(*at(mid)) == flip:
            lo = mid
        else:
            hi = mid
    out = []
    for t in (lo, hi):
        x, y = at(t)
        for dx in (-2, -1, 0, 1, 2):
            out.append((x + dx * math.ulp(x), y))
    return out


@pytest.mark.parametrize("cell_size, radius", [(0.25, 0.3), (0.5, 0.3), (0.25, 0.2), (0.45, 0.25)])
def test_near_matches_clearance_expression(cell_size, radius):
    # 0.25 m cells: cap 0.125 < PROXIMITY_MARGIN, so some close points, with
    # clearances in (radius + cap, radius + margin), need the exact query;
    # 0.5 m cells: cap 0.25 > PROXIMITY_MARGIN, so nearest() settles every
    # point; 0.45 m cells: edges that are not exact binary fractions
    reach = radius + PROXIMITY_MARGIN
    rng = np.random.default_rng(int(cell_size * 100 + radius * 10))
    at_reach = at_cap = between = 0
    lone = np.zeros((16, 16), dtype=bool)
    lone[8, 8] = True
    for grid in (random_maze(33, 33, cell_size, seed=21),
                 OccupancyGrid(rng.random((30, 30)) < 0.08, cell_size, (-1.37, 0.91)),
                 OccupancyGrid(lone, cell_size)):
        checker = grid.collision_checker(radius)
        exact_to = radius + checker.cap
        x0, y0, x1, y1 = grid.extent
        pts = [tuple(p) for p in rng.uniform((x0, y0), (x1, y1), (800, 2)).tolist()]
        if grid.cells.sum() == 1:
            # a lattice around the lone cell; with radius 0.2 on 0.25 m cells,
            # nearest() leaves the cell out at some points within radius + margin
            cx, cy = grid.cell_center(8, 8)
            ticks = np.arange(-1.0, 1.0, 0.025).tolist()
            pts += [(cx + u, cy + v) for u in ticks for v in ticks]

        def expected(x, y):
            return grid.clearance(x, y) - radius < PROXIMITY_MARGIN

        clear = [grid.clearance(*p) for p in pts]
        # points within ulps of where expected() flips, of radius + cap, and
        # of a clearance halfway between
        close = [p for p, c in zip(pts, clear) if c - radius < PROXIMITY_MARGIN]
        away = [p for p, c in zip(pts, clear) if not c - radius < PROXIMITY_MARGIN]
        extra = []
        for a, b in zip(close[:50], away[:50]):
            extra += boundary_points(expected, a, b)
        for level in (exact_to, 0.5 * (reach + exact_to)):
            below = [p for p, c in zip(pts, clear) if c < level]
            above = [p for p, c in zip(pts, clear) if c >= level]
            for a, b in zip(below[:25], above[:25]):
                extra += boundary_points(lambda x, y: grid.clearance(x, y) < level, a, b)
        pts += extra
        clear += [grid.clearance(*p) for p in extra]
        lo, hi = sorted((exact_to, reach))
        at_reach += sum(abs(c - reach) < CERT_EPS for c in clear)
        at_cap += sum(abs(c - exact_to) < CERT_EPS for c in clear)
        between += sum(lo + CERT_EPS < c < hi - CERT_EPS for c in clear)
        for (x, y), c in zip(pts, clear):
            assert checker.near(x, y, PROXIMITY_MARGIN) == (c - radius < PROXIMITY_MARGIN), (x, y)
    assert min(at_reach, at_cap, between) >= 100


# -- raycast ---------------------------------------------------------------


def test_raycast_wall_ahead():
    grid = load_world("cell_size 1\n" + "\n".join(["....#"] * 3) + "\n")
    # wall face at x=4; origin at x=2
    assert raycast(grid, (2.0, 1.5), 0.0, 10.0) == pytest.approx(2.0, abs=1e-12)


def test_raycast_cap():
    grid = empty_grid(40)
    assert raycast(grid, (20.0, 20.0), 0.7, 10.0) == 10.0


def test_raycast_origin_occupied():
    grid = load_world("cell_size 1\n.#\n..\n")
    assert raycast(grid, (1.5, 0.5), 0.0, 5.0) == 0.0


def test_raycast_monotone_in_range():
    grid = random_obstacles(20, 20, 0.5, seed=6, density=0.15)
    free = np.argwhere(~grid.cells)
    oy, ox = free[10]
    origin = grid.cell_center(ox, oy)
    for a in np.linspace(0, 2 * math.pi, 9, endpoint=False):
        d_small = raycast(grid, origin, a, 2.0)
        d_big = raycast(grid, origin, a, 8.0)
        assert d_big >= d_small - 1e-12
        if d_small < 2.0:
            assert d_big == pytest.approx(d_small, abs=1e-12)


@pytest.mark.parametrize("seed", range(2))
def test_raycast_matches_marching_oracle(seed):
    grid = random_obstacles(20, 20, 0.5, seed=50 + seed, density=0.2)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear > 0.1))
    rng = np.random.default_rng(seed)
    oy, ox = ok[rng.integers(len(ok))]
    origin = grid.cell_center(ox, oy)
    for a in rng.uniform(-math.pi, math.pi, 16):
        got = raycast(grid, origin, a, 8.0)
        ref = raymarch_oracle(grid, origin, a, 8.0)
        assert got == pytest.approx(ref, abs=grid.cell_size * 1e-3)


def test_raycast_mirror_symmetry():
    grid = random_obstacles(16, 16, 0.5, seed=13, density=0.2)
    mirrored = OccupancyGrid(np.array(grid.cells[:, ::-1]), grid.cell_size)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear > 0.05))
    oy, ox = ok[0]
    origin = grid.cell_center(ox, oy)
    w = grid.width * grid.cell_size
    m_origin = (w - origin[0], origin[1])
    for a in np.linspace(-math.pi, math.pi, 12, endpoint=False):
        d = raycast(grid, origin, a, 6.0)
        dm = raycast(mirrored, m_origin, math.pi - a, 6.0)
        assert dm == pytest.approx(d, abs=1e-9)
