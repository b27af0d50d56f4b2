import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import kinnav
from kinnav.maps import random_maze, random_obstacles
from kinnav.robots import A1, ALIENGO, ROBOTS, SPOT
from kinnav.task import PROXIMITY_MARGIN
from kinnav.world import (CERT_EPS, DistanceField, InvalidGoalError, MapError,
                          OccupancyGrid, OutOfBoundsError, distance_field, load_world,
                          raycast, save_world)

from oracles import (CountingLists, KDFieldReference, KDGridReference, blocked_oracle,
                     cell_lists_reference, clearance_oracle, descent_path_reference,
                     descent_step_reference, dijkstra_oracle,
                     distance_values_reference, lower_envelope_reference,
                     neighbor_graph_reference, passable_blocks_oracle, raycast_reference,
                     raymarch_oracle, save_world_reference, value_at_reference)

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
    with pytest.raises(MapError, match="^line 3: unknown character 'é'$"):
        load_world("cell_size 1\n#.\n.é\n..\n")
    with pytest.raises(MapError, match="line 2"):
        load_world("cell_size 1\n")


def test_roundtrip_random_map():
    grid = random_obstacles(16, 16, 0.25, seed=7, density=0.3)
    doc = save_world(grid)
    again = save_world(load_world(doc))
    assert doc == again


def test_save_world_keeps_the_cell_size():
    # 1/3 m has no 6-digit text; the map must read back with the grid's own extent
    grid = random_maze(33, 33, 1 / 3, seed=1)
    back = load_world(save_world(grid))
    assert back.cell_size == grid.cell_size
    assert back.extent == grid.extent == (0.0, 0.0, 11.0, 11.0)
    assert np.array_equal(back.cells, grid.cells)
    # sizes whose 6 digits read back exactly keep the per-cell writer's bytes
    for cs, text in ((0.25, "0.25"), (0.5, "0.5"), (1.0, "1"), (0.1, "0.1"),
                     (100000.0, "100000"), (1e-05, "1e-05")):
        for cells in (grid.cells, random_obstacles(17, 9, 0.5, seed=2, density=0.3).cells):
            doc = save_world(OccupancyGrid(cells, cs))
            assert doc == save_world_reference(OccupancyGrid(cells, cs))
            assert doc.splitlines()[0] == f"cell_size {text}"
            assert load_world(doc).cell_size == cs


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


def test_descent_step_ties_go_to_lowest_row_then_column():
    grid = empty_grid(4)
    goal = (3.5, 3.5)

    def step(values, cell=(1, 1)):
        f = DistanceField(grid, goal, 0.0, values)
        got = f.descent_step(cell)
        assert got == descent_step_reference(f, cell)
        return got

    values = np.full((4, 4), 5.0)
    # three neighbors of cell (1, 1) tie at the lowest value
    values[0, 2] = values[2, 0] = values[1, 0] = 1.0
    assert step(values) == (2, 0)
    values = np.full((4, 4), 5.0)
    values[2, 2] = values[2, 1] = values[1, 2] = 1.0
    assert step(values) == (2, 1)
    assert step(np.full((4, 4), math.inf)) is None
    # an unreachable cell descends to its lowest finite neighbor
    values = np.full((4, 4), math.inf)
    values[2, 1] = 3.0
    values[1, 2] = 2.0
    assert step(values) == (2, 1)
    # neighbors that tie with the cell, or lie above it, end the path
    values = np.full((4, 4), 5.0)
    assert step(values) is None
    values = np.full((4, 4), 5.0)
    values[0, 0] = 6.0
    values[1, 1] = 4.0
    assert step(values) is None
    # the goal cell ends the path whatever its neighbors hold
    values = np.full((4, 4), 5.0)
    values[2, 2] = 1.0
    assert step(values, (3, 3)) is None


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


def test_value_at_and_descent_step_match_numpy_reads():
    # lattice, off-lattice and border points; points whose whole 3x3
    # neighborhood is +inf take the fallback on both paths
    rng = np.random.default_rng(3)
    lattice = off = border = all_inf = descents = 0
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
                assert f.descent_step((ix, iy)) == descent_step_reference(f, (ix, iy)), (ix, iy)
                descents += f.descent_step((ix, iy)) is not None
    assert lattice > 3000 and off > 3000 and border > 500 and all_inf > 500
    assert descents > 3000


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


def test_field_memo_answers_as_a_fresh_field():
    grid = random_maze(17, 17, 0.25, seed=3)
    free = np.argwhere(grid.passable_mask(0.2))
    fields = [distance_field(grid, grid.cell_center(int(ix), int(iy)), 0.2)
              for iy, ix in free[[0, -1]]]
    _, _, x1, y1 = grid.extent
    a, b = map(tuple, np.random.default_rng(6).uniform(0.0, x1, (2, 2)).tolist())
    nan, inf = math.nan, math.inf
    # repeated, alternating, signed-zero, edge, off-grid and non-finite points
    queries = [a, a, b, a, b, b, (0.0, 1.0), (-0.0, 1.0), (0.0, 1.0), (1.0, -0.0), (1.0, 0.0),
               (x1, 1.0), (1.0, y1), (x1, y1), (x1, y1), (-0.5, 1.0), (x1 + 0.5, 1.0),
               (1.0, -3.0), a, (nan, 1.0), (nan, 1.0), a, (1.0, nan), (a[0], nan), a,
               (inf, 1.0), (1.0, -inf), b]

    def fresh(f):
        return DistanceField(grid, f.goal, f.robot_radius, f.values)

    def outcome(call, f, x, y):
        try:
            return repr(call(f, x, y))  # repr tells -0.0 from 0.0
        except (ValueError, OverflowError) as exc:
            return type(exc)

    calls = [lambda f, x, y: f.lower_envelope(x, y), lambda f, x, y: f.value_at(x, y)]
    # two fields queried in turn: each keeps its own memo
    for k, (x, y) in enumerate(queries):
        for f in fields:
            for call in calls:
                assert outcome(call, f, x, y) == outcome(call, fresh(f), x, y), (k, x, y)
    assert fields[0].value_at(*a) != fields[1].value_at(*a)


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


# -- passable blocks -------------------------------------------------------


def two_region_grid():
    """Two free regions split by a wall: a field in one leaves the other's passable cells +inf."""
    cells = np.zeros((14, 23), dtype=bool)
    cells[:, 11] = True
    cells[4, 3:7] = True
    return OccupancyGrid(cells, 0.25)


def table_fields():
    """The fields of reference_fields(), one per geometry grid, and one per region of
    two_region_grid()."""
    fields = [f for _, f in reference_fields()]
    for grid in geometry_grids():
        free = np.argwhere(grid.passable_mask(0.2))
        if len(free):
            iy, ix = free[len(free) // 2].tolist()
            fields.append(distance_field(grid, grid.cell_center(ix, iy), 0.2))
    grid = two_region_grid()
    fields += [distance_field(grid, grid.cell_center(ix, 8), 0.2) for ix in (3, 17)]
    return fields


def test_passable_blocks_match_brute_force():
    cases = [(grid, radius) for grid in geometry_grids() for radius in (0.2, 0.25, 0.3)]
    cases += list({id(f.grid): (f.grid, f.robot_radius) for _, f in reference_fields()}.values())
    cases.append((two_region_grid(), 0.2))
    for k, (grid, radius) in enumerate(cases):
        blocks = grid.passable_blocks(radius)
        assert blocks == passable_blocks_oracle(grid, radius), (k, radius)
        assert grid.passable_blocks(radius) is blocks
        # one entry of Python numbers per passable cell, shared by every block that holds it
        entries = {id(e): e for block in blocks for e in block}.values()
        assert len(entries) == int(grid.passable_mask(radius).sum()), (k, radius)
        assert all(type(i) is int and type(cx) is float and type(cy) is float
                   for i, cx, cy, _ in entries)
        assert pickle.loads(pickle.dumps(grid)).passable_blocks(radius) == blocks, (k, radius)


def test_fields_hold_inf_off_the_passable_cells():
    unreachable = 0
    for f in table_fields():
        ok = f.grid.passable_mask(f.robot_radius)
        assert (f.values[~ok] == math.inf).all()
        unreachable += int((f.values[ok] == math.inf).sum())
    # the other region of two_region_grid() at least
    assert unreachable > 50


def test_table_scans_match_nine_cell_scans():
    # on, around and far outside the grid, on every cell center and on the
    # centers of the two rings of cells just outside it
    rng = np.random.default_rng(9)
    unreachable = fallbacks = 0
    for k, f in enumerate(table_fields()):
        grid = f.grid
        assert f._blocks is grid.passable_blocks(f.robot_radius)
        w, h = grid.width, grid.height
        centers = [grid.cell_center(ix, iy) for iy in range(-2, h + 2) for ix in range(-2, w + 2)]
        for x, y in probe_points(grid, rng) + centers:
            assert f.lower_envelope(x, y) == lower_envelope_reference(f, x, y), (k, x, y)
            got, want = f.value_at(x, y), value_at_reference(f, x, y)
            assert got == want and type(got) is float, (k, x, y)
            fallbacks += lower_envelope_reference(f, x, y)[1] is None
        for iy in range(h):
            for ix in range(w):
                assert f.descent_step((ix, iy)) == descent_step_reference(f, (ix, iy)), (k, ix, iy)
        unreachable += int((f.values[grid.passable_mask(f.robot_radius)] == math.inf).sum())
    assert unreachable > 50 and fallbacks > 1000


def test_fields_of_one_grid_and_radius_share_one_table():
    grid = random_maze(33, 33, 0.25, seed=8)
    ok = np.argwhere(grid.passable_mask(SPOT.footprint_radius))
    fields = [distance_field(grid, grid.cell_center(ix, iy), SPOT.footprint_radius)
              for iy, ix in ok[::len(ok) // 5].tolist()]
    fields.append(DistanceField(grid, fields[0].goal, SPOT.footprint_radius, fields[0].values))
    assert all(f._blocks is grid.passable_blocks(SPOT.footprint_radius) for f in fields)
    other = distance_field(grid, fields[0].goal, 0.2)
    assert other._blocks is grid.passable_blocks(0.2)
    assert other._blocks is not fields[0]._blocks


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
    yield OccupancyGrid(np.random.default_rng(3).random((10, 13)) < 0.4, 0.3)
    yield OccupancyGrid(np.zeros((5, 8), dtype=bool), 0.5)
    yield OccupancyGrid(np.ones((4, 4), dtype=bool), 1.0)


def geometry_grids():
    """Cells of 0.1 to 1 m, an empty and a full grid."""
    yield random_maze(64, 64, 0.25, seed=77)
    yield random_maze(33, 33, 0.5, seed=3)
    yield random_obstacles(60, 60, 0.1, seed=5, density=0.1)
    yield random_obstacles(40, 30, 0.15, seed=11, density=0.15)
    yield OccupancyGrid(np.random.default_rng(4).random((12, 9)) < 0.3, 1.0)
    yield OccupancyGrid(np.random.default_rng(5).random((25, 21)) < 0.2, 0.1)
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
    """The mask is the clearance table's, bit for bit, cached per radius and read-only."""
    radii = sorted({0.2, 0.25, 0.3} | {spec.footprint_radius for spec in ROBOTS.values()})
    for k, grid in enumerate(geometry_grids()):
        table = grid.center_clearance()
        copy = pickle.loads(pickle.dumps(grid))
        for radius in radii:
            checker = grid.collision_checker(radius)
            mask = grid.passable_mask(radius)
            assert np.array_equal(mask, (~grid.cells) & (table >= radius)), (k, radius)
            assert not mask.flags.writeable
            assert grid.passable_mask(radius) is mask
            assert np.array_equal(copy.passable_mask(radius), mask), (k, radius)
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
        cx = (ixs + 0.5) * grid.cell_size
        cy = (iys + 0.5) * grid.cell_size
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
            hit, region = checker.certificate(x, y)
            assert hit == checker.blocked(x, y)
            if not hit:
                # a free point's box, wherever it lies, is free
                if region[0] < region[2]:
                    for qx, qy in points_inside(region, x, y, rng):
                        assert not checker.blocked(qx, qy), (x, y, region, qx, qy)
                continue
            reach2 = region
            reach = math.sqrt(reach2)
            for t in (0.5, 1.0 - 1e-12):
                for a in rng.uniform(-math.pi, math.pi, 4):
                    qx = x + t * reach * math.cos(a)
                    qy = y + t * reach * math.sin(a)
                    if (qx - x) ** 2 + (qy - y) ** 2 < reach2:
                        assert checker.blocked(qx, qy) == hit, (x, y, qx, qy)


def test_memo_answers_as_a_fresh_checker():
    grid = random_maze(17, 17, 0.25, seed=3)
    _, _, x1, y1 = grid.extent
    clear = {p: grid.clearance(*p)
             for p in map(tuple, np.random.default_rng(4).uniform(0, x1, (400, 2)).tolist())}
    a = max(clear, key=clear.get)
    # clearance between the two radii: blocked for one checker, free for the other
    b = next(p for p, c in clear.items() if 0.22 < c < 0.28)
    c = next(p for p, c in clear.items() if c < 0.1)

    def fresh(radius):
        return OccupancyGrid(grid.cells, grid.cell_size).collision_checker(radius)

    # beyond radius + cap nearest() may overstate the clearance, by how much
    # depends on the radius
    small, large = fresh(0.2), fresh(0.3)
    d = next(p for p in clear if small.nearest(*p) != large.nearest(*p))
    nan = math.nan
    queries = [a, a, b, a, b, b, c, c, d, d, a, d,
               (0.0, 1.0), (-0.0, 1.0), (0.0, 1.0), (1.0, -0.0), (1.0, 0.0),
               (-0.5, 1.0), (x1 + 0.5, 1.0), (x1, 1.0), (1.0, y1), b,
               (nan, 1.0), (nan, 1.0), (1.0, nan), (1.0, nan), b, (b[0], nan), b]

    def certified(ch, x, y):
        # a free point's box depends on the box memo by design: compare the
        # answer and a blocked point's disc
        hit, region = ch.certificate(x, y)
        return hit, region if hit else None

    calls = [lambda ch, x, y: ch.nearest(x, y), lambda ch, x, y: ch.blocked(x, y),
             lambda ch, x, y: ch.penetration(x, y), certified,
             lambda ch, x, y: ch.near(x, y, PROXIMITY_MARGIN)]

    def outcome(call, checker, x, y):
        try:
            return repr(call(checker, x, y))  # repr tells -0.0 from 0.0
        except ValueError as exc:
            return type(exc)

    # two radii on one grid, queried in turn: each checker keeps its own memo
    checkers = [grid.collision_checker(0.2), grid.collision_checker(0.3)]
    for k, (x, y) in enumerate(queries):
        for checker in checkers:
            for call in calls:
                assert (outcome(call, checker, x, y)
                        == outcome(call, fresh(checker.radius), x, y)), (k, x, y)
    assert checkers[0].blocked(*b) != checkers[1].blocked(*b)


def test_nan_coordinates_count_as_outside_the_grid():
    grid = random_maze(17, 17, 0.25, seed=3)
    calls = [lambda ch, x, y: ch.nearest(x, y), lambda ch, x, y: ch.blocked(x, y),
             lambda ch, x, y: ch.penetration(x, y), lambda ch, x, y: ch.certificate(x, y),
             lambda ch, x, y: ch.near(x, y, PROXIMITY_MARGIN)]
    for radius in (0.2, 0.3):
        checker = grid.collision_checker(radius)
        for x, y in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
            # answered as a point beyond the grid edge is
            for call in calls:
                assert repr(call(checker, x, y)) == repr(call(checker, -1.0, 1.0)), (x, y)
        assert checker.nearest(1.0, math.nan) == 0.0 and checker.blocked(1.0, math.nan)


def test_penetration_after_a_blocked_certificate_is_a_fresh_answer():
    grid = random_maze(17, 17, 0.25, seed=3)
    _, _, x1, y1 = grid.extent
    pts = np.random.default_rng(7).uniform(0.0, x1, (400, 2)).tolist()
    blocked = 0
    for radius in (0.2, 0.3):
        checker = grid.collision_checker(radius)
        for x, y in pts:
            hit, _ = checker.certificate(x, y)
            fresh = OccupancyGrid(grid.cells, grid.cell_size).collision_checker(radius)
            assert checker.penetration(x, y) == fresh.penetration(x, y), (radius, x, y)
            blocked += hit
    assert blocked >= 100


def box_points(grid, rng, r, n):
    """grid_points plus points about r from each grid edge and corner, on both sides."""
    _, _, x1, y1 = grid.extent
    pts = grid_points(grid, rng, n)
    for off in (-1e-6, 1e-9, 1e-6, 0.01):
        for u in rng.uniform(0.0, 1.0, 3).tolist():
            pts += [(r + off, u * y1), (x1 - r - off, u * y1),
                    (u * x1, r + off), (u * x1, y1 - r - off)]
        pts += [(r + off, r + off), (x1 - r - off, r + off), (r + off, y1 - r - off),
                (x1 - r - off, y1 - r - off)]
    return pts


def points_inside(box, x, y, rng):
    """Random points of the open box, plus points 1 ulp inside each side and corner."""
    x0, y0, x1, y1 = box
    ix0, ix1 = math.nextafter(x0, x1), math.nextafter(x1, x0)
    iy0, iy1 = math.nextafter(y0, y1), math.nextafter(y1, y0)
    pts = rng.uniform((x0, y0), (x1, y1), (6, 2)).tolist()
    pts += [(ix0, y), (ix1, y), (x, iy0), (x, iy1), (ix0, iy0), (ix0, iy1), (ix1, iy0), (ix1, iy1)]
    return [(qx, qy) for qx, qy in pts if x0 < qx < x1 and y0 < qy < y1]


def strictly_in_cell(grid, x, y):
    """(x, y) lies strictly inside the cell nearest() reads for it, so a box in it can hold it."""
    cs = grid.cell_size
    ix = min(int(x / cs), grid.width - 1)
    iy = min(int(y / cs), grid.height - 1)
    return ix * cs < x < (ix + 1) * cs and iy * cs < y < (iy + 1) * cs


@pytest.mark.parametrize("scale", [0.4, 1.3])
def test_free_box_is_free_and_refused_only_near_contact(scale):
    # radii below the half cell and above the cell size
    rng = np.random.default_rng(int(scale * 10))
    boxes = refused = 0
    for k, grid in enumerate(geometry_grids()):
        cs = grid.cell_size
        radius = scale * cs
        checker = grid.collision_checker(radius)
        checker._lists = lists = CountingLists(checker._lists)
        r = radius + CERT_EPS
        _, _, gx1, gy1 = grid.extent
        pts = box_points(grid, rng, r, 1000)
        # points within ulps of nearest() == r, where the box is thinnest
        near = [p for p in pts if checker.nearest(*p) < r]
        far = [p for p in pts if checker.nearest(*p) >= r]
        for a, b in zip(near[:40], far[:40]):
            pts += boundary_points(lambda x, y: checker.nearest(x, y) < r, a, b)
        for x, y in pts:
            # forget the last box: every box below is built for its own point
            checker._box = (math.nan,) * 4
            before = lists.reads
            memo = checker._last
            hit, box = checker.certificate(x, y)
            assert lists.reads - before <= 1, (k, x, y)
            # a distance certificate() measures itself stays out of nearest()'s
            # memo; only a point within r of the grid edge is left to nearest()
            assert checker._last is memo or not (r < x < gx1 - r and r < y < gy1 - r), (k, x, y)
            assert hit == checker.blocked(x, y), (k, x, y)
            if hit or not (box[0] < x < box[2] and box[1] < y < box[3]):
                refused += 1
                # a free point that fits in no box gets the last, here empty, box
                assert hit or all(map(math.isnan, box)), (k, x, y, box)
                d = checker.nearest(x, y)
                if d < r:
                    assert d == grid.clearance(x, y), (k, x, y)
                else:
                    assert not strictly_in_cell(grid, x, y) or d - r < 1e-12, (k, x, y)
                continue
            boxes += 1
            x0, y0, x1, y1 = box
            assert x0 < x < x1 and y0 < y < y1, (k, x, y, box)
            ix = min(int(x / cs), grid.width - 1)
            iy = min(int(y / cs), grid.height - 1)
            assert ix * cs <= x0 and x1 <= (ix + 1) * cs, (k, x, y, box)
            assert iy * cs <= y0 and y1 <= (iy + 1) * cs, (k, x, y, box)
            assert checker.nearest(x, y) >= r
            for qx, qy in points_inside(box, x, y, rng):
                assert not checker.blocked(qx, qy), (k, x, y, box, qx, qy)
    assert boxes >= 2000 and refused >= 1000


def test_free_box_memo_serves_only_points_inside():
    grid = random_maze(17, 17, 0.25, seed=3)
    rng = np.random.default_rng(5)
    small, large = grid.collision_checker(0.2), grid.collision_checker(0.3)
    _, _, x1, y1 = grid.extent
    pts = rng.uniform(0.0, x1, (600, 2)).tolist()
    served = 0
    nan = math.nan
    for x, y in pts:
        for checker in (small, large, small):
            last = checker._box
            hit, box = checker.certificate(x, y)
            if hit or not (box[0] < x < box[2] and box[1] < y < box[3]):
                # no box holds the point: a free one gets the last box
                assert hit or box is last
                assert checker.nearest(x, y) < checker.radius + CERT_EPS
                continue
            served += box is last
            x0, y0, x1, y1 = box
            assert x0 < x < x1 and y0 < y < y1
            for qx, qy in points_inside(box, x, y, rng):
                assert not checker.blocked(qx, qy), (checker.radius, box, qx, qy)
            # a point inside the last box is served from the memo
            qx, qy = points_inside(box, x, y, rng)[0]
            hit, out = checker.certificate(qx, qy)
            assert not hit and out is box
            # a side and a point 1 ulp beyond it are not: they get a disc, a
            # box that holds them, or the last box
            for qx, qy in ((x0, y), (math.nextafter(x0, -1.0), y), (x, y1),
                           (x, math.nextafter(y1, math.inf))):
                checker._box = box
                hit, out = checker.certificate(qx, qy)
                assert hit or out is box or out[0] < qx < out[2] and out[1] < qy < out[3]
            # nor are NaN coordinates: they count as outside the grid, so blocked
            for qx, qy in ((nan, y), (x, nan)):
                checker._box = box
                assert checker.certificate(qx, qy)[0] and checker.blocked(qx, qy)
    assert served >= 100
    # clearance between the radii: a box for the small radius, none for the large
    free = [(x, y) for x, y in pts if 0.2 + 1e-3 < grid.clearance(x, y) < 0.3 - 1e-3]
    assert free
    for x, y in free:
        hit, box = small.certificate(x, y)
        assert not hit and box[0] < x < box[2] and box[1] < y < box[3]
        assert large.certificate(x, y)[0]


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
                 OccupancyGrid(rng.random((30, 30)) < 0.08, cell_size),
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


def _rescaled_obstacles(width, height, cell_size, seed):
    src = random_obstacles(width, height, 1.0, seed=seed, density=0.2).cells
    return OccupancyGrid(np.array(src), cell_size)


# mazes, and random obstacles at cell sizes other than 1
RAY_GRIDS = {
    "maze-0.25": lambda: random_maze(33, 33, 0.25, seed=12),
    "maze-0.5": lambda: random_maze(29, 21, 0.5, seed=4),
    "obstacles-0.3": lambda: _rescaled_obstacles(40, 30, 0.3, seed=21),
    "obstacles-0.7": lambda: _rescaled_obstacles(17, 23, 0.7, seed=22),
}
AXIS_ANGLES = [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, math.pi / 4, -3 * math.pi / 4]


@pytest.mark.parametrize("name", sorted(RAY_GRIDS))
def test_raycast_equals_reference(name):
    """Every distance equals the per-cell, bounds-tested caster's, bit for bit."""
    grid = RAY_GRIDS[name]()
    cs = grid.cell_size
    x0, y0, x1, y1 = grid.extent
    rng = np.random.default_rng(len(name))
    n = 1200
    # cell edges and corners: a coordinate on the lattice, the other uniform or on it too
    kx = rng.integers(0, grid.width + 1, n)
    ky = rng.integers(0, grid.height + 1, n)
    ux = rng.uniform(x0, x1, n)
    uy = rng.uniform(y0, y1, n)
    lx = kx * cs
    ly = ky * cs
    iys, ixs = np.nonzero(grid.cells)
    occupied = [grid.cell_center(int(ix), int(iy)) for ix, iy in zip(ixs[:200], iys[:200])]
    origins = (list(zip(lx.tolist(), uy.tolist())) + list(zip(ux.tolist(), ly.tolist()))
               + list(zip(lx.tolist(), ly.tolist()))[:600]
               + list(zip(rng.uniform(x0 - 2, x1 + 2, n).tolist(),
                          rng.uniform(y0 - 2, y1 + 2, n).tolist()))
               + [(x0, y0), (x1, y1), (x0 - 1e-9, y0 + cs), (x1, y0 + cs)] + occupied)
    rays = 0
    for (x, y) in origins:
        for a in AXIS_ANGLES + rng.uniform(-math.pi, math.pi, 4).tolist():
            for max_range in (math.inf, 2.5):
                got = raycast(grid, (x, y), a, max_range)
                assert got == raycast_reference(grid, (x, y), a, max_range), ((x, y), a, max_range)
                rays += 1
    assert rays >= 25_000


@pytest.mark.parametrize("name", sorted(RAY_GRIDS))
def test_raycast_range_shorter_than_first_crossing(name):
    grid = RAY_GRIDS[name]()
    free = np.argwhere(~grid.cells)
    angles = AXIS_ANGLES + np.random.default_rng(3).uniform(-math.pi, math.pi, 9).tolist()
    for iy, ix in free[:100].tolist():
        center = grid.cell_center(ix, iy)
        # the first crossing from a cell centre is at least half a cell away
        for max_range in (0.0, 0.25 * grid.cell_size, 0.49 * grid.cell_size):
            for a in angles:
                got = raycast(grid, center, a, max_range)
                assert got == max_range == raycast_reference(grid, center, a, max_range)


def test_is_occupied_reads_the_closed_world():
    src = random_obstacles(9, 7, 1.0, seed=2, density=0.3).cells
    grid = OccupancyGrid(np.array(src), 0.4)
    for iy in range(-3, grid.height + 3):
        for ix in range(-3, grid.width + 3):
            inside = 0 <= ix < grid.width and 0 <= iy < grid.height
            assert grid.is_occupied(ix, iy) is (not inside or bool(src[iy, ix])), (ix, iy)
    # two past the last column, a flat index over the padded table lands on the
    # next row's first cell
    iy = int(np.argmin(src[1:, 0]))
    assert not src[iy + 1, 0] and grid.is_occupied(grid.width + 2, iy)


def test_cells_refuse_writes():
    src = random_obstacles(6, 5, 1.0, seed=4, density=0.3).cells
    grid = OccupancyGrid(np.array(src), 0.5)
    with pytest.raises(ValueError):
        grid.cells[0, 0] = not grid.cells[0, 0]
    with pytest.raises(ValueError):
        grid.cells.setflags(write=True)
    # the grid keeps its own copy of the cells it was built from
    writable = np.array(src)
    grid = OccupancyGrid(writable, 0.5)
    writable[:] = ~writable
    assert np.array_equal(grid.cells, src)
    assert [[grid.is_occupied(ix, iy) for ix in range(6)] for iy in range(5)] == src.tolist()
    # so do the cells of a pickled copy, which reads the same table
    copy = pickle.loads(pickle.dumps(grid))
    with pytest.raises(ValueError):
        copy.cells.setflags(write=True)
    assert np.array_equal(copy.cells, src) and copy._occ == grid._occ
