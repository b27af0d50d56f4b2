"""2D occupancy-grid worlds: map I/O, clearance queries, geodesic distance fields, ray casting."""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

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
        centers = np.column_stack([self._occ_x0 + 0.5 * cs, self._occ_y0 + 0.5 * cs])
        self._tree = cKDTree(centers) if len(centers) else None
        self._half_diag = 0.5 * SQRT2 * cs
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

    def _edge_distance(self, x, y):
        x0, y0, x1, y1 = self.extent
        return min(x - x0, x1 - x, y - y0, y1 - y)

    def _rect_distance_min(self, x, y, idxs):
        cs = self.cell_size
        best = math.inf
        for i in idxs:
            rx0 = self._occ_x0[i]
            ry0 = self._occ_y0[i]
            dx = rx0 - x if x < rx0 else (x - rx0 - cs if x > rx0 + cs else 0.0)
            dy = ry0 - y if y < ry0 else (y - ry0 - cs if y > ry0 + cs else 0.0)
            d = math.hypot(dx, dy)
            if d < best:
                best = d
        return best

    def clearance(self, x, y):
        """Euclidean distance from (x, y) to the nearest occupied-cell boundary.

        The region outside the grid counts as occupied. Zero inside obstacles.
        """
        if not self.in_bounds(x, y):
            raise OutOfBoundsError(f"point ({x}, {y}) outside grid")
        best = self._edge_distance(x, y)
        if self._tree is not None:
            d0, _ = self._tree.query((x, y))
            # nearest rect can only belong to a center within d0 + half-diagonal
            idxs = self._tree.query_ball_point((x, y), min(d0, best) + self._half_diag)
            best = min(best, self._rect_distance_min(x, y, idxs))
        return max(best, 0.0)

    def center_clearance(self):
        """Exact clearance at every cell center, shape (height, width)."""
        if self._center_clearance is None:
            cs = self.cell_size
            ox, oy = self.origin
            xs = ox + (np.arange(self.width) + 0.5) * cs
            ys = oy + (np.arange(self.height) + 0.5) * cs
            gx, gy = np.meshgrid(xs, ys)
            x0, y0, x1, y1 = self.extent
            edge = np.minimum.reduce([gx - x0, x1 - gx, gy - y0, y1 - gy])
            out = edge
            if self._tree is not None:
                pts = np.column_stack([gx.ravel(), gy.ravel()])
                d0, _ = self._tree.query(pts)
                radii = np.minimum(d0, edge.ravel()) + self._half_diag
                cand = self._tree.query_ball_point(pts, radii)
                exact = np.empty(len(pts))
                for k, idxs in enumerate(cand):
                    exact[k] = self._rect_distance_min(pts[k, 0], pts[k, 1], idxs)
                out = np.minimum(edge, exact.reshape(self.height, self.width))
            out = np.maximum(out, 0.0)
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

    Each occupied cell is one rectangle, a tuple of Python floats
    (x0, y0, x1, y1) shared by every cell list that holds it. For every cell
    the checker lists the rectangles a disc centered anywhere in that cell
    could touch, nearest first; most lists are empty. blocked() reads only the
    list of the query point's cell. nearest() reads a second, wider list per
    cell, built on first use, that holds every rectangle within radius + cap
    of any point of the cell; near() answers the proximity test
    clearance - radius < margin from it.

    certify() gives blocked()'s answer together with a disc around the query
    point on which blocked() gives that same answer. The clearance c(p), the
    distance from p to the nearest occupied boundary, is 1-Lipschitz, and
    blocked(p) holds exactly when c(p) < radius, up to rounding. With
    d = nearest(p):

    - if d >= radius + CERT_EPS, every point closer to p than
      min(d, radius + cap) - radius - CERT_EPS is free;
    - if d <= radius - CERT_EPS, every point closer to p than
      radius - d - CERT_EPS is blocked;
    - otherwise the disc is empty and the answer is blocked()'s own.

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
        self._r2 = radius * radius
        cs = grid.cell_size
        x0, y0, x1, y1 = grid.extent
        self._extent = (x0, y0, x1, y1)
        self._gx0, self._gy0 = x0, y0
        self._bx0, self._by0 = x0 + radius, y0 + radius
        self._bx1, self._by1 = x1 - radius, y1 - radius
        self._cs = cs
        self._w = grid.width
        self._h = grid.height
        self._rects = list(zip(grid._occ_x0.tolist(), grid._occ_y0.tolist(),
                               (grid._occ_x0 + cs).tolist(), (grid._occ_y0 + cs).tolist()))
        self._far = None
        self._exact_to = radius + self.cap
        self._free_from = radius + CERT_EPS
        self._blocked_to = radius - CERT_EPS
        # reach: a disc anywhere in the cell vs any point of the rect
        self._cands = self._cell_lists(radius + SQRT2 * cs, nearest_first=True)

    def _cell_lists(self, reach, nearest_first=False):
        """Per cell, the rects whose center lies within reach of the cell center.

        Lists hold rects in index order, or nearest to the cell center first
        with ties in index order. Queried one grid row at a time.
        """
        grid = self.grid
        w = self._w
        out = [()] * (w * self._h)
        if grid._tree is None:
            return out
        cs = self._cs
        ox, oy = grid.origin
        xs = ox + (np.arange(w) + 0.5) * cs
        ys = oy + (np.arange(self._h) + 0.5) * cs
        occ_x0, occ_y0 = grid._occ_x0, grid._occ_y0
        rects = self._rects
        for iy, cy in enumerate(ys):
            # a multi-point query lists each point's indices in ascending order
            hits = grid._tree.query_ball_point(np.column_stack([xs, np.full(w, cy)]), reach)
            if nearest_first:
                counts = [len(h) for h in hits]
                total = sum(counts)
                if not total:
                    continue
                idx = np.fromiter(itertools.chain.from_iterable(hits), np.intp, total)
                cell = np.repeat(np.arange(w), counts)
                cx = xs[cell]
                rx0, ry0 = occ_x0[idx], occ_y0[idx]
                dx = np.maximum(np.maximum(rx0 - cx, cx - (rx0 + cs)), 0.0)
                dy = np.maximum(np.maximum(ry0 - cy, cy - (ry0 + cs)), 0.0)
                # by cell, then by distance; the sort is stable, so ties keep index order
                idx = idx[np.lexsort((dx * dx + dy * dy, cell))].tolist()
                hits = [idx[end - n:end] for n, end in zip(counts, itertools.accumulate(counts))]
            row = iy * w
            for ix, h in enumerate(hits):
                if h:
                    out[row + ix] = tuple([rects[i] for i in h])
        return out

    def blocked(self, x, y):
        """True when a disc of the checker's radius at (x, y) overlaps occupied space."""
        if x < self._bx0 or x > self._bx1 or y < self._by0 or y > self._by1:
            return True
        cs = self._cs
        r2 = self._r2
        ix = int((x - self._gx0) / cs)
        iy = int((y - self._gy0) / cs)
        if ix >= self._w:
            ix = self._w - 1
        if iy >= self._h:
            iy = self._h - 1
        for rx0, ry0, rx1, ry1 in self._cands[iy * self._w + ix]:
            dx = rx0 - x if x < rx0 else (x - rx1 if x > rx1 else 0.0)
            dy = ry0 - y if y < ry0 else (y - ry1 if y > ry1 else 0.0)
            if dx * dx + dy * dy < r2:
                return True
        return False

    def nearest(self, x, y):
        """Distance from (x, y) to the nearest occupied boundary, grid edge included.

        Equal to grid.clearance(x, y) wherever that is at most radius + cap, and
        at least radius + cap elsewhere: it is a minimum over a subset of the
        rects, so it never understates the clearance, but above radius + cap it
        may overstate it. Zero outside the grid.
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
        far = self._far
        if far is None:
            # rects within radius + cap of a point, via their centers, from anywhere in the cell
            far = self._far = self._cell_lists(self.radius + self.cap + SQRT2 * self._cs)
        ix = int((x - x0) / self._cs)
        iy = int((y - y0) / self._cs)
        if ix >= self._w:
            ix = self._w - 1
        if iy >= self._h:
            iy = self._h - 1
        for rx0, ry0, rx1, ry1 in far[iy * self._w + ix]:
            dx = rx0 - x if x < rx0 else (x - rx1 if x > rx1 else 0.0)
            dy = ry0 - y if y < ry0 else (y - ry1 if y > ry1 else 0.0)
            d = math.hypot(dx, dy)
            if d < best:
                best = d
        return best

    def penetration(self, x, y):
        """How far a disc at (x, y) digs into occupied space (0 when free)."""
        return max(self.radius - self.nearest(x, y), 0.0)

    def near(self, x, y, margin):
        """grid.clearance(x, y) - radius < margin for (x, y) in the grid, from nearest().

        Below radius + cap, nearest() is the clearance, so a distance at least
        CERT_EPS from radius + margin settles the answer. Above it, the
        clearance is only known to be at least radius + cap, which settles
        "no" when radius + cap clears radius + margin by CERT_EPS. Every other
        point pays the exact clearance query. CERT_EPS covers the rounding by
        which nearest() and clearance() may differ.
        """
        d = self.nearest(x, y)
        reach = self.radius + margin
        if d < self._exact_to - CERT_EPS:
            if d < reach - CERT_EPS:
                return True
            if d >= reach + CERT_EPS:
                return False
        elif self._exact_to - CERT_EPS >= reach + CERT_EPS:
            return False
        return self.grid.clearance(x, y) - self.radius < margin

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
        return self.blocked(x, y), 0.0


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
    without a copy; the per-step queries read through it.
    """

    def __init__(self, grid, goal, robot_radius, values):
        self.grid = grid
        self.goal = (float(goal[0]), float(goal[1]))
        self.robot_radius = float(robot_radius)
        values.setflags(write=False)
        self.values = values
        self.flat_values = memoryview(values.reshape(-1))
        self.goal_cell = grid.world_to_cell(*self.goal)
        self._finite_tree = None
        self._finite_cells = None
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
        if self._finite_tree is None:
            iys, ixs = np.nonzero(np.isfinite(self.values))
            if len(ixs) == 0:
                return math.inf
            cs = self.grid.cell_size
            ox, oy = self.grid.origin
            pts = np.column_stack([ox + (ixs + 0.5) * cs, oy + (iys + 0.5) * cs])
            self._finite_tree = cKDTree(pts)
            self._finite_cells = self.values[iys, ixs]
        d, i = self._finite_tree.query((x, y))
        return float(self._finite_cells[i] + d)

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
