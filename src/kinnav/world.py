"""2D occupancy-grid worlds: map I/O, clearance queries, geodesic distance fields, ray casting."""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

SQRT2 = math.sqrt(2.0)

# margin of the collision certificates, see _CollisionChecker
CERT_EPS = 1e-9


class MapError(ValueError):
    """Malformed map document."""


class OutOfBoundsError(ValueError):
    """Query point outside the grid."""


class InvalidGoalError(ValueError):
    """Goal lies in an occupied or inflated cell."""


class OccupancyGrid:
    """Immutable 2D occupancy grid.

    Cell (ix, iy) covers the square [ox + ix*cs, ox + (ix+1)*cs) x
    [oy + iy*cs, oy + (iy+1)*cs) in world coordinates. Everything outside the
    grid rectangle is treated as occupied, so the world is closed.
    """

    def __init__(self, cells, cell_size, origin=(0.0, 0.0)):
        cells = np.array(cells, dtype=bool)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise MapError("grid must be 2D with at least one cell")
        if not cell_size > 0:
            raise MapError("cell_size must be positive")
        cells.setflags(write=False)
        self.cells = cells
        self.height, self.width = cells.shape
        self.cell_size = float(cell_size)
        self.origin = (float(origin[0]), float(origin[1]))

        cs = self.cell_size
        ox, oy = self.origin
        iys, ixs = np.nonzero(cells)
        self._occ_x0 = ox + ixs * cs
        self._occ_y0 = oy + iys * cs
        # occupancy rows as lists of Python bools, read by the ring scans
        self._rows = cells.tolist()
        # per cell, the first ring of cells around it that holds an occupied cell
        # (its Chebyshev distance in cells to one; cells.size where there is none)
        ring = np.full(cells.shape, 0 if cells.any() else cells.size)
        reach = cells
        while reach.any() and not reach.all():
            ring += ~reach
            grown = np.pad(reach, 1)
            grown = grown[:-2] | grown[1:-1] | grown[2:]
            reach = grown[:, :-2] | grown[:, 1:-1] | grown[:, 2:]
        self._first_ring = ring.tolist()
        self._center_clearance = None
        self._checkers = {}
        self._adjacency = {}

    # -- coordinates ------------------------------------------------------

    @property
    def extent(self):
        """(xmin, ymin, xmax, ymax) of the grid rectangle."""
        ox, oy = self.origin
        return (ox, oy, ox + self.width * self.cell_size, oy + self.height * self.cell_size)

    def world_to_cell(self, x, y):
        ox, oy = self.origin
        return (int(math.floor((x - ox) / self.cell_size)),
                int(math.floor((y - oy) / self.cell_size)))

    def cell_center(self, ix, iy):
        ox, oy = self.origin
        return (ox + (ix + 0.5) * self.cell_size, oy + (iy + 0.5) * self.cell_size)

    def in_bounds(self, x, y):
        x0, y0, x1, y1 = self.extent
        return x0 <= x <= x1 and y0 <= y <= y1

    def is_occupied(self, ix, iy):
        """Occupancy with the closed-world convention (outside counts as occupied)."""
        if ix < 0 or iy < 0 or ix >= self.width or iy >= self.height:
            return True
        return bool(self.cells[iy, ix])

    # -- clearance --------------------------------------------------------

    def _clearance_at(self, x, y, ix, iy):
        """clearance(x, y) for a point of cell (ix, iy), by rings of cells around that cell.

        The scan starts at the first ring that holds an occupied cell. Every
        cell k rings out lies at least (k - 1) * cell_size from the point, so
        the scan ends at the first ring whose bound exceeds the best distance
        so far by CERT_EPS, far above the rounding of either.
        """
        ox, oy = self.origin
        cs = self.cell_size
        w, h = self.width, self.height
        best = min(x - ox, ox + w * cs - x, y - oy, oy + h * cs - y)
        rows = self._rows
        k = self._first_ring[iy][ix] if ix < w and iy < h else 0
        while (k - 1) * cs <= best + CERT_EPS:
            lo, hi = max(ix - k, 0), min(ix + k + 1, w)
            for jy in range(max(iy - k, 0), min(iy + k + 1, h)):
                occ = rows[jy]
                # the ring's top and bottom rows in full, its two side cells in between
                if jy == iy - k or jy == iy + k:
                    if True not in occ[lo:hi]:
                        continue
                    cols = range(lo, hi)
                else:
                    cols = (ix - k, ix + k)
                ry0 = oy + jy * cs
                dy = ry0 - y if y < ry0 else (y - ry0 - cs if y > ry0 + cs else 0.0)
                if dy >= best:
                    continue
                for jx in cols:
                    if 0 <= jx < w and occ[jx]:
                        rx0 = ox + jx * cs
                        dx = rx0 - x if x < rx0 else (x - rx0 - cs if x > rx0 + cs else 0.0)
                        # hypot(dx, dy) >= max(dx, dy): a rect this far cannot lower best
                        if dx < best:
                            d = math.hypot(dx, dy)
                            if d < best:
                                best = d
            k += 1
        return max(best, 0.0)

    def clearance(self, x, y):
        """Euclidean distance from (x, y) to the nearest occupied-cell boundary.

        The region outside the grid counts as occupied. Zero inside obstacles.
        """
        if not self.in_bounds(x, y):
            raise OutOfBoundsError(f"point ({x}, {y}) outside grid")
        return self._clearance_at(x, y, *self.world_to_cell(x, y))

    def center_clearance(self):
        """Exact clearance at every cell center, shape (height, width); 0 on occupied cells."""
        if self._center_clearance is None:
            iys, ixs = np.nonzero(~self.cells)
            out = np.zeros((self.height, self.width))
            out[iys, ixs] = [self._clearance_at(*self.cell_center(ix, iy), ix, iy)
                             for ix, iy in zip(ixs.tolist(), iys.tolist())]
            out.setflags(write=False)
            self._center_clearance = out
        return self._center_clearance

    def passable_mask(self, robot_radius):
        """Cells that are free and whose center keeps at least robot_radius clearance."""
        return (~self.cells) & (self.center_clearance() >= robot_radius)

    def collision_checker(self, robot_radius):
        key = float(robot_radius)
        if key not in self._checkers:
            self._checkers[key] = _CollisionChecker(self, key)
        return self._checkers[key]

    def _neighbor_graph(self, robot_radius):
        """Sparse symmetric 8-connected move graph over the inflated grid, cached per radius.

        Every move is listed in both directions, so a directed search over the
        cached graph needs no per-goal symmetrisation.
        """
        key = float(robot_radius)
        if key not in self._adjacency:
            ok = self.passable_mask(key)
            h, w = ok.shape
            idx = np.arange(h * w).reshape(h, w)
            cs = self.cell_size
            rows, cols, costs = [], [], []
            shifts = [(0, 1, cs), (1, 0, cs), (1, 1, SQRT2 * cs), (1, -1, SQRT2 * cs)]
            for dy, dx, cost in shifts:
                ys = slice(max(dy, 0), h + min(dy, 0))
                xs = slice(max(dx, 0), w + min(dx, 0))
                ys2 = slice(max(-dy, 0), h + min(-dy, 0))
                xs2 = slice(max(-dx, 0), w + min(-dx, 0))
                both = ok[ys, xs] & ok[ys2, xs2]
                a = idx[ys, xs][both]
                b = idx[ys2, xs2][both]
                rows.append(a)
                cols.append(b)
                costs.append(np.full(len(a), cost))
            if rows:
                rows = np.concatenate(rows)
                cols = np.concatenate(cols)
                costs = np.concatenate(costs)
            graph = sparse.coo_matrix((costs, (rows, cols)), shape=(h * w, h * w)).tocsr()
            # each move above appears once, so the sum adds no two weights together
            self._adjacency[key] = graph + graph.T
        return self._adjacency[key]


class _CollisionChecker:
    """Footprint-disc vs occupied-cell tests for one robot radius.

    Each occupied cell is one rectangle, a tuple of Python floats (x0, y0)
    shared by every cell list that holds it; its far edges are x0 + cs and
    y0 + cs. For every cell __init__ builds one list, in rectangle index
    order, of every rectangle within radius + cap of any point of that cell.
    Cell and rectangle centers share the grid lattice, so the lists come from
    a fixed stencil of cell offsets rather than a spatial index.

    nearest() reads only the list of the query point's cell, and measures each
    rectangle with the expression of grid.clearance(). The list holds every
    rectangle within radius + cap of the point, so nearest() equals
    grid.clearance() bit for bit wherever either is below radius + cap.
    Every collision answer derives from it: blocked() is nearest() < radius,
    so it holds exactly when grid.clearance() < radius and exactly at the
    cell centers that passable_mask() excludes; penetration() is
    radius - nearest(), and near() is the proximity test
    clearance - radius < margin.

    certify() gives blocked()'s answer together with a disc around the query
    point on which blocked() gives that same answer. The clearance is
    1-Lipschitz, so with d = nearest(p):

    - if d >= radius + CERT_EPS, every point closer to p than
      min(d, radius + cap) - radius - CERT_EPS is free;
    - if d <= radius - CERT_EPS, every point closer to p than
      radius - d - CERT_EPS is blocked;
    - otherwise the disc is empty and the answer is d < radius.

    CERT_EPS = 1e-9 m is orders of magnitude above the rounding error of the
    distance arithmetic (about 1e-16 relative, under 1e-12 m on maps up to
    kilometres across). A caller that answers a point strictly inside a
    certified disc without a query therefore gets exactly the answer
    blocked() would have given.
    """

    def __init__(self, grid, radius):
        self.grid = grid
        self.radius = radius
        self.cap = 0.5 * grid.cell_size
        cs = grid.cell_size
        self._extent = grid.extent
        self._cs = cs
        self._w = grid.width
        self._h = grid.height
        self._rects = list(zip(grid._occ_x0.tolist(), grid._occ_y0.tolist()))
        self._exact_to = radius + self.cap
        self._free_from = radius + CERT_EPS
        self._blocked_to = radius - CERT_EPS
        # rects within radius + cap of a point, via their centers, from anywhere in the cell
        self._lists = self._cell_lists(radius + self.cap + SQRT2 * cs)

    def _cell_lists(self, reach):
        """Per cell, the rects whose center lies within reach of the cell center.

        Rect and cell centers share one lattice, so a fixed stencil of cell
        offsets, those at most reach away, picks every cell's rects. Lists hold
        rects in index order. Built one grid row at a time.
        """
        grid = self.grid
        w, h = self._w, self._h
        out = [()] * (w * h)
        if not self._rects:
            return out
        cs = self._cs
        n = int(reach / cs)
        # offsets in row-major order, so each cell's rect indices come out ascending
        offs = [(dy, dx) for dy in range(-n, n + 1) for dx in range(-n, n + 1)
                if (dx * dx + dy * dy) * cs * cs <= reach * reach]
        # rect index per cell, -1 where free, with n free cells of padding all round
        pw = w + 2 * n
        ids = np.where(grid.cells, np.cumsum(grid.cells).reshape(h, w) - 1, -1)
        ids = np.pad(ids, n, constant_values=-1).ravel()
        stencil = np.arange(w)[:, None] + np.array([(n + dy) * pw + n + dx for dy, dx in offs])
        rects = self._rects
        for iy in range(h):
            hits = ids[iy * pw + stencil]
            found = hits >= 0
            counts = found.sum(axis=1).tolist()
            idx = hits[found].tolist()
            row = iy * w
            for ix, (c, end) in enumerate(zip(counts, itertools.accumulate(counts))):
                if c:
                    out[row + ix] = tuple([rects[i] for i in idx[end - c:end]])
        return out

    def blocked(self, x, y):
        """True when a disc of the checker's radius at (x, y) overlaps occupied space."""
        return self.nearest(x, y) < self.radius

    def nearest(self, x, y):
        """Distance from (x, y) to the nearest occupied boundary, grid edge included.

        Equal to grid.clearance(x, y) wherever either is below radius + cap,
        and at least radius + cap elsewhere: it is a minimum over a subset of
        the rects, so it never understates the clearance, but above
        radius + cap it may overstate it. Zero outside the grid.
        """
        x0, y0, x1, y1 = self._extent
        best = x - x0
        d = x1 - x
        if d < best:
            best = d
        d = y - y0
        if d < best:
            best = d
        d = y1 - y
        if d < best:
            best = d
        if not best > 0.0:
            return 0.0
        cs = self._cs
        ix = int((x - x0) / cs)
        iy = int((y - y0) / cs)
        if ix >= self._w:
            ix = self._w - 1
        if iy >= self._h:
            iy = self._h - 1
        for rx0, ry0 in self._lists[iy * self._w + ix]:
            # grid.clearance()'s expression; hypot(dx, dy) >= max(dx, dy), so a
            # rect with dx or dy at least best cannot lower it
            dx = rx0 - x if x < rx0 else (x - rx0 - cs if x > rx0 + cs else 0.0)
            if dx >= best:
                continue
            dy = ry0 - y if y < ry0 else (y - ry0 - cs if y > ry0 + cs else 0.0)
            if dy >= best:
                continue
            d = math.hypot(dx, dy)
            if d < best:
                best = d
        return best

    def penetration(self, x, y):
        """How far a disc at (x, y) digs into occupied space (0 when free)."""
        return max(self.radius - self.nearest(x, y), 0.0)

    def near(self, x, y, margin):
        """grid.clearance(x, y) - radius < margin for (x, y) in the grid.

        Below radius + cap nearest() is the clearance itself. Elsewhere the
        clearance is at least radius + cap, which settles "no" when cap is at
        least margin (float subtraction is monotone); every other point pays
        the exact clearance query.
        """
        d = self.nearest(x, y)
        if d >= self._exact_to:
            if self._exact_to - self.radius >= margin:
                return False
            d = self.grid.clearance(x, y)
        return d - self.radius < margin

    def certify(self, x, y):
        """(blocked(x, y), r2): blocked() gives the same answer within sqrt(r2) of (x, y)."""
        d = self.nearest(x, y)
        if d >= self._free_from:
            if d > self._exact_to:
                d = self._exact_to
            reach = d - self._free_from
            return False, reach * reach
        if d <= self._blocked_to:
            reach = self._blocked_to - d
            return True, reach * reach
        return d < self.radius, 0.0


# -- map document I/O -----------------------------------------------------


def load_world(text):
    """Parse a map document: a `cell_size <float>` header then rows of '#'/'.'.

    The first row after the header is the top of the map (highest y); origin is
    the world coordinate (0, 0) at the bottom-left corner.
    """
    lines = text.splitlines()
    if not lines:
        raise MapError("line 1: missing cell_size header")
    parts = lines[0].split()
    if len(parts) != 2 or parts[0] != "cell_size":
        raise MapError("line 1: expected 'cell_size <float>' header")
    try:
        cell_size = float(parts[1])
    except ValueError:
        raise MapError("line 1: invalid cell_size value") from None
    if not cell_size > 0 or not math.isfinite(cell_size):
        raise MapError("line 1: cell_size must be positive and finite")
    rows = [ln for ln in lines[1:]]
    while rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise MapError("line 2: map has no rows")
    width = len(rows[0])
    if width == 0:
        raise MapError("line 2: zero-width map")
    grid_rows = []
    for j, row in enumerate(rows):
        lineno = j + 2
        if len(row) != width:
            raise MapError(f"ragged row at line {lineno}")
        cells_row = []
        for ch in row:
            if ch == "#":
                cells_row.append(True)
            elif ch == ".":
                cells_row.append(False)
            else:
                raise MapError(f"line {lineno}: unknown character {ch!r}")
        grid_rows.append(cells_row)
    # text row j is grid row j: world y grows with line number
    cells = np.array(grid_rows, dtype=bool)
    return OccupancyGrid(cells, cell_size)


def save_world(grid):
    """Canonical serialization of a grid (inverse of load_world)."""
    out = [f"cell_size {grid.cell_size:.6g}"]
    for iy in range(grid.height):
        out.append("".join("#" if grid.cells[iy, ix] else "." for ix in range(grid.width)))
    return "\n".join(out) + "\n"


# -- geodesic distance field ----------------------------------------------


class DistanceField:
    """Per-cell geodesic distance to a goal point over the radius-inflated grid.

    Built by 8-connected Dijkstra; straight moves cost cell_size, diagonals
    sqrt(2)*cell_size. Unreachable and inflated cells hold +inf.

    flat_values is a read-only row-major memoryview of values, so
    flat_values[iy * width + ix] reads values[iy, ix] as a Python float
    without a copy; the per-step queries read through it. A point whose
    whole 3x3 neighborhood is +inf falls back on the nearest finite cell
    center, found by an argmin over those centers.
    """

    def __init__(self, grid, goal, robot_radius, values):
        self.grid = grid
        self.goal = (float(goal[0]), float(goal[1]))
        self.robot_radius = float(robot_radius)
        values.setflags(write=False)
        self.values = values
        self.flat_values = memoryview(values.reshape(-1))
        self.goal_cell = grid.world_to_cell(*self.goal)
        self._finite = None
        self._next = {}

    def value_at(self, x, y):
        """Continuous geodesic distance at a world point.

        Takes the lower envelope of value + straight-line distance over the
        3x3 cell neighborhood; falls back to the nearest finite cell when the
        whole neighborhood is unreachable.
        """
        grid = self.grid
        ox, oy = grid.origin
        cs = grid.cell_size
        w, h = grid.width, grid.height
        # the expressions of grid.world_to_cell and grid.cell_center, inline
        ix = int(math.floor((x - ox) / cs))
        iy = int(math.floor((y - oy) / cs))
        vals = self.flat_values
        hypot = math.hypot
        best = math.inf
        for ny in (iy - 1, iy, iy + 1):
            if ny < 0 or ny >= h:
                continue
            dy = y - (oy + (ny + 0.5) * cs)
            row = ny * w
            for nx in (ix - 1, ix, ix + 1):
                if nx < 0 or nx >= w:
                    continue
                v = vals[row + nx]
                if v < math.inf:
                    d = v + hypot(x - (ox + (nx + 0.5) * cs), dy)
                    if d < best:
                        best = d
        if best < math.inf:
            return best
        return self._fallback_value(x, y)

    def _fallback_value(self, x, y):
        """Value plus distance of the finite cell whose center is nearest (x, y).

        On exact distance ties the lowest row-major cell wins. +inf when no
        cell is finite.
        """
        if self._finite is None:
            iys, ixs = np.nonzero(np.isfinite(self.values))
            self._finite = (*self.grid.cell_center(ixs, iys), self.values[iys, ixs])
        px, py, vals = self._finite
        if not len(vals):
            return math.inf
        d2 = (px - x) ** 2 + (py - y) ** 2
        i = np.argmin(d2)
        return float(vals[i] + math.sqrt(d2[i]))

    def descent_neighbor(self, ix, iy):
        """Lowest-valued 8-neighbor of a cell, or None if all are +inf.

        Neighbors are scanned in increasing (ny, nx) order and only a strictly
        lower value replaces the best, so ties go to the lowest (ny, nx).
        """
        w, h = self.grid.width, self.grid.height
        vals = self.flat_values
        best = None
        best_v = math.inf
        for ny in (iy - 1, iy, iy + 1):
            if ny < 0 or ny >= h:
                continue
            row = ny * w
            for nx in (ix - 1, ix, ix + 1):
                if 0 <= nx < w and (nx != ix or ny != iy):
                    v = vals[row + nx]
                    if v < best_v:
                        best_v = v
                        best = (nx, ny)
        return best

    def descent_step(self, cell):
        """The cell after `cell` on its descent path, or None where the path ends.

        The path ends at the goal cell and at a cell none of whose neighbors is
        strictly lower. Results are memoized per field as cells are asked for.
        """
        nxt = self._next.get(cell, False)
        if nxt is False:
            nxt = None
            if cell != self.goal_cell:
                nxt = self.descent_neighbor(*cell)
                vals = self.flat_values
                w = self.grid.width
                if nxt is not None and vals[nxt[1] * w + nxt[0]] >= vals[cell[1] * w + cell[0]]:
                    nxt = None
            self._next[cell] = nxt
        return nxt

    def descent_path(self, ix, iy):
        """Cells of the greedy steepest-descent path from (ix, iy) to the goal cell."""
        path = [(ix, iy)]
        nxt = self.descent_step(path[0])
        # values fall strictly along the path, so it visits no cell twice
        while nxt is not None:
            path.append(nxt)
            nxt = self.descent_step(nxt)
        return path


def distance_field(grid, goal, robot_radius):
    """Dijkstra distance-to-goal field over the radius-inflated grid."""
    passable = grid.passable_mask(robot_radius)
    gx, gy = goal
    if not grid.in_bounds(gx, gy):
        raise InvalidGoalError(f"goal ({gx}, {gy}) outside grid")
    ix, iy = grid.world_to_cell(gx, gy)
    ix = min(ix, grid.width - 1)
    iy = min(iy, grid.height - 1)
    if not passable[iy, ix]:
        raise InvalidGoalError(f"goal cell ({ix}, {iy}) is occupied or inflated")
    graph = grid._neighbor_graph(robot_radius)
    # the cached graph is symmetric: a directed search walks every move both ways
    dist = csgraph.dijkstra(graph, directed=True, indices=iy * grid.width + ix)
    values = dist.reshape(grid.height, grid.width)
    return DistanceField(grid, goal, robot_radius, values)


# -- ray casting ----------------------------------------------------------


def raycast(grid, origin, angle, max_range):
    """Distance to the first occupied-cell boundary along a ray, capped at max_range.

    Exact grid traversal (Amanatides-Woo); the closed-world edge counts as a hit.
    """
    x, y = origin
    ix, iy = grid.world_to_cell(x, y)
    if grid.is_occupied(ix, iy):
        return 0.0
    dx = math.cos(angle)
    dy = math.sin(angle)
    cs = grid.cell_size
    ox, oy = grid.origin

    if dx > 0:
        step_x, t_max_x = 1, (ox + (ix + 1) * cs - x) / dx
        t_dx = cs / dx
    elif dx < 0:
        step_x, t_max_x = -1, (ox + ix * cs - x) / dx
        t_dx = -cs / dx
    else:
        step_x, t_max_x, t_dx = 0, math.inf, math.inf
    if dy > 0:
        step_y, t_max_y = 1, (oy + (iy + 1) * cs - y) / dy
        t_dy = cs / dy
    elif dy < 0:
        step_y, t_max_y = -1, (oy + iy * cs - y) / dy
        t_dy = -cs / dy
    else:
        step_y, t_max_y, t_dy = 0, math.inf, math.inf

    while True:
        if t_max_x < t_max_y:
            t = t_max_x
            ix += step_x
            t_max_x += t_dx
        else:
            t = t_max_y
            iy += step_y
            t_max_y += t_dy
        if t >= max_range:
            return max_range
        if grid.is_occupied(ix, iy):
            return t
