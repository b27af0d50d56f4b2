"""Procedural desk-scale maps: corridor mazes and random obstacle fields."""

import numpy as np

from .world import OccupancyGrid


def random_maze(width, height, cell_size, seed, corridor=3):
    """Perfect maze carved on a coarse lattice, with extra loops braided in.

    Corridors are `corridor` cells wide with 1-cell walls; 15 % of the
    removable interior walls are knocked out to create loops.
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    pitch = corridor + 1
    mw = (width - 1) // pitch
    mh = (height - 1) // pitch
    if mw < 2 or mh < 2:
        raise ValueError("map too small for the requested corridor width")
    cells = np.ones((height, width), dtype=bool)

    def carve_room(mx, my):
        x0 = 1 + mx * pitch
        y0 = 1 + my * pitch
        cells[y0:y0 + corridor, x0:x0 + corridor] = False

    def carve_wall(mx, my, nx, ny):
        x0 = 1 + min(mx, nx) * pitch
        y0 = 1 + min(my, ny) * pitch
        if mx == nx:  # vertical connection
            cells[y0 + corridor, x0:x0 + corridor] = False
        else:
            cells[y0:y0 + corridor, x0 + corridor] = False

    # iterative recursive-backtracker
    visited = np.zeros((mh, mw), dtype=bool)
    stack = [(0, 0)]
    visited[0, 0] = True
    carve_room(0, 0)
    while stack:
        mx, my = stack[-1]
        opts = [(mx + dx, my + dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= mx + dx < mw and 0 <= my + dy < mh and not visited[my + dy, mx + dx]]
        if not opts:
            stack.pop()
            continue
        nx, ny = opts[rng.integers(len(opts))]
        visited[ny, nx] = True
        carve_room(nx, ny)
        carve_wall(mx, my, nx, ny)
        stack.append((nx, ny))

    walls = []
    for my in range(mh):
        for mx in range(mw):
            if mx + 1 < mw:
                walls.append((mx, my, mx + 1, my))
            if my + 1 < mh:
                walls.append((mx, my, mx, my + 1))
    knocked = rng.random(len(walls)) < 0.15
    for (mx, my, nx, ny), knock in zip(walls, knocked):
        if knock:
            carve_wall(mx, my, nx, ny)

    return OccupancyGrid(cells, cell_size)


def random_obstacles(width, height, cell_size, seed, density=0.2):
    """Uniform random occupancy, useful for query-oracle tests."""
    rng = np.random.default_rng(seed)
    cells = rng.random((height, width)) < density
    return OccupancyGrid(cells, cell_size)
