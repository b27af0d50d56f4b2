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

    Cell (ix, iy) covers the square [ix*cs, (ix+1)*cs) x [iy*cs, (iy+1)*cs)
    in world coordinates: the world frame has (0, 0) at the outer corner of
    cell (0, 0), x growing with ix and y with iy. Everything outside the grid
    rectangle is treated as occupied, so the world is closed.
    """

    def __init__(self, cells, cell_size):
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise MapError("grid must be 2D with at least one cell")
        if not cell_size > 0:
            raise MapError("cell_size must be positive")
        self.height, self.width = cells.shape
        # occupancy as one byte per cell, row-major, inside a ring of occupied
        # cells that marks the closed-world edge: cell (ix, iy) is byte
        # (iy + 1) * _stride + ix + 1
        self._stride = self.width + 2
        padded = np.ones((self.height + 2, self._stride), dtype=bool)
        padded[1:-1, 1:-1] = cells
        self._occ = padded.tobytes()
        # an array over bytes refuses writes, even through setflags, so the
        # table cannot go stale
        self.cells = cells = np.frombuffer(cells.tobytes(), dtype=bool).reshape(cells.shape)
        self.cell_size = float(cell_size)
        # occupancy rows as lists of Python bools, read by the ring scans
        self._rows = cells.tolist()
        # per cell, the first ring of cells around it that holds an occupied cell
        # (its Chebyshev distance in cells to one; cells.size where there is none)
        ring = np.full(cells.shape, 0 if cells.any() else cells.size)
        reach = cells
        while reach.any() and not reach.all():
            ring += ~reach
            # grow reach by one cell in all eight directions
            grown = reach.copy()
            grown[1:] |= reach[:-1]
            grown[:-1] |= reach[1:]
            reach = grown.copy()
            reach[:, 1:] |= grown[:, :-1]
            reach[:, :-1] |= grown[:, 1:]
        self._first_ring = ring.tolist()
        self._checkers = {}
        self._masks = {}
        self._adjacency = {}
        self._blocks = {}

    def __reduce__(self):
        # rebuilt from its cells, so a copy's arrays refuse writes and its tables match
        return OccupancyGrid, (self.cells, self.cell_size)

    # -- coordinates ------------------------------------------------------

    @property
    def extent(self):
        """(xmin, ymin, xmax, ymax) of the grid rectangle."""
        return (0.0, 0.0, self.width * self.cell_size, self.height * self.cell_size)

    def world_to_cell(self, x, y):
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    def cell_center(self, ix, iy):
        return ((ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size)

    def in_bounds(self, x, y):
        x0, y0, x1, y1 = self.extent
        return x0 <= x <= x1 and y0 <= y <= y1

    def is_occupied(self, ix, iy):
        """Occupancy with the closed-world convention (outside counts as occupied)."""
        if ix < 0 or iy < 0 or ix >= self.width or iy >= self.height:
            return True
        return self._occ[(iy + 1) * self._stride + ix + 1] != 0

    # -- clearance --------------------------------------------------------

    def _clearance_at(self, x, y, ix, iy):
        """clearance(x, y) for a point of cell (ix, iy), by rings of cells around that cell.

        The scan starts at the first ring that holds an occupied cell. Every
        cell k rings out lies at least (k - 1) * cell_size from the point, so
        the scan ends at the first ring whose bound exceeds the best distance
        so far by CERT_EPS, far above the rounding of either.
        """
        cs = self.cell_size
        w, h = self.width, self.height
        best = min(x, w * cs - x, y, h * cs - y)
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
                ry0 = jy * cs
                dy = ry0 - y if y < ry0 else (y - ry0 - cs if y > ry0 + cs else 0.0)
                if dy >= best:
                    continue
                for jx in cols:
                    if 0 <= jx < w and occ[jx]:
                        rx0 = jx * cs
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
        """Exact clearance at every cell center, shape (height, width); 0 on occupied cells.

        A standalone query: one ring scan per free cell on every call, with
        no cache.
        """
        iys, ixs = np.nonzero(~self.cells)
        out = np.zeros((self.height, self.width))
        out[iys, ixs] = [self._clearance_at(*self.cell_center(ix, iy), ix, iy)
                         for ix, iy in zip(ixs.tolist(), iys.tolist())]
        out.setflags(write=False)
        return out

    def passable_mask(self, robot_radius):
        """Cells that are free and whose center keeps at least robot_radius clearance.

        Read off the radius's collision checker: a free cell passes when its
        center is not blocked(), which holds exactly when its clearance is at
        least the radius. Cached per radius as a read-only array.
        """
        key = float(robot_radius)
        if key not in self._masks:
            blocked = self.collision_checker(key).blocked
            iys, ixs = np.nonzero(~self.cells)
            mask = np.zeros((self.height, self.width), dtype=bool)
            mask[iys, ixs] = [not blocked(*self.cell_center(ix, iy))
                              for ix, iy in zip(ixs.tolist(), iys.tolist())]
            mask.setflags(write=False)
            self._masks[key] = mask
        return self._masks[key]

    def passable_blocks(self, robot_radius):
        """Per cell, the passable cells of its 3x3 block, cached per radius.

        A flat list laid out like the grid's padded byte table: the block
        around cell (ix, iy), for ix in [-1, width] and iy in [-1, height],
        is entry (iy + 1) * (width + 2) + ix + 1. A block is a tuple of the
        passable cells of passable_mask(robot_radius) in it, in increasing
        (iy, ix) order. Each passable cell is one entry shared by the nine
        blocks that hold it: (flat index iy * width + ix, center x, center y,
        (ix, iy)), its center from cell_center's expression.
        """
        key = float(robot_radius)
        if key not in self._blocks:
            ok = self.passable_mask(key)
            iys, ixs = np.nonzero(ok)
            cs = self.cell_size
            entries = list(zip((iys * self.width + ixs).tolist(), ((ixs + 0.5) * cs).tolist(),
                               ((iys + 0.5) * cs).tolist(), zip(ixs.tolist(), iys.tolist())))
            offs = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
            self._blocks[key] = _stencil_lists(ok, entries, offs, ring=1)
        return self._blocks[key]

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

    A point with a NaN coordinate counts as outside the grid: nearest()
    answers it 0.0, so blocked(), certificate(), near() and penetration()
    treat it as a point beyond the edge.

    nearest() keeps a one-entry memo: the last point it scanned and the
    distance it returned. A query with the same x and y (==) gets that
    distance without a scan, so blocked(), near() and penetration() share
    it. A kinematic step tests the pose the previous step ended on, and
    NavEnv.step's near() measures the pose the step just tested, so most
    queries of a kinematic run repeat the one before; a dynamic-lite step
    that holds its pose leaves the memo on the pose near() measured last, so
    that step's near() costs no scan either. The memo cannot go stale: the
    grid's cells are read-only bytes and the checker's radius and lists
    never change, so the answer depends on x and y alone. Only points
    strictly inside the grid are scanned and remembered; a point on or
    beyond the edge, -0.0 included, or with a NaN coordinate is answered 0.0
    before any scan. The memo is one tuple, stored in one step, so a checker
    shared between threads never pairs one point with another's distance.

    certificate() gives blocked()'s answer with a region on which the answer
    holds, so a caller can answer many points without a query. A blocked
    point gets a disc: the clearance is 1-Lipschitz, so with
    d = nearest(p) <= radius - CERT_EPS every point closer to p than
    radius - d - CERT_EPS is blocked (a point with d within CERT_EPS below
    radius gets the empty disc, r2 = 0). A free point gets an open axis-aligned
    box on which blocked() is False. certificate() reads the point's cell
    list at most once. With r = radius + CERT_EPS, it first measures the
    list as nearest() does, with r as the starting bound. A rectangle closer
    than r refuses the box; the grid edge is farther (a point within r of it
    is handed to nearest() before the list is read), so the distance found
    is nearest()'s answer and the point's disc comes from it. That distance
    does not go into nearest()'s memo, which keeps its own last point: the
    probes of a substep loop would otherwise push out the pose a control
    step measures. Otherwise the box starts as the point's cell pulled in
    from the grid edge by r, and every rectangle whose r-neighbourhood may
    meet it cuts it:

    - if the point's gap to the rectangle along an axis exceeds r, the box
      side facing the rectangle moves to r from it along that axis (with
      two such axes, the cut that keeps more of the box);
    - otherwise the point lies beside a corner of the rectangle, at least r
      from it, and both facing sides move to the point of the circle of
      radius r about that corner on the ray to the query point.

    Every point of the box is then at least r from the grid edge and from
    every rectangle of the list. The box lies in the cell, whose list holds
    every rectangle within radius + cap of any point of the cell, so no
    other rectangle comes that close. A wall thus only removes the
    half-plane beyond it, where a disc about the point would shrink to the
    gap to the wall.

    The checker remembers the last box it built, as one tuple like
    nearest()'s memo, and answers any point strictly inside it with it. A
    box is free wherever it lies, so the memo cannot go stale, and a NaN
    lies inside no box. A free point that fits in no box of its own (one
    within r of the grid edge or on its cell's boundary, or rarely one
    within rounding of distance r, where the cuts leave the box empty at
    float precision) gets the last box as well: it need not hold the point,
    but it is free. A dynamic-lite step starts where the previous one
    stopped, which is usually inside the last box.

    CERT_EPS = 1e-9 m is orders of magnitude above the rounding error of the
    distance arithmetic (about 1e-16 relative, under 1e-12 m on maps up to
    kilometres across), and of the box's cuts. A caller that answers a point
    strictly inside a certified disc or box without a query therefore gets
    exactly the answer blocked() would have given.
    """

    def __init__(self, grid, radius):
        self.grid = grid
        self.radius = radius
        self.cap = 0.5 * grid.cell_size
        cs = grid.cell_size
        _, _, self._x1, self._y1 = grid.extent
        self._cs = cs
        self._w = grid.width
        self._h = grid.height
        iys, ixs = np.nonzero(grid.cells)
        self._rects = list(zip((ixs * cs).tolist(), (iys * cs).tolist()))
        self._exact_to = radius + self.cap
        self._free_from = radius + CERT_EPS
        self._blocked_to = radius - CERT_EPS
        # nearest()'s memo (x, y, distance), empty until the first scan: NaN matches no query
        self._last = (math.nan, math.nan, math.nan)
        # certificate()'s last box (x0, y0, x1, y1), empty until the first: NaN contains no point
        self._box = (math.nan, math.nan, math.nan, math.nan)
        # rects within radius + cap of a point, via their centers, from anywhere in the cell
        self._lists = self._cell_lists(radius + self.cap + SQRT2 * cs)

    def _cell_lists(self, reach):
        """Per cell, the rects whose center lies within reach of the cell center.

        Rect and cell centers share one lattice, so a fixed stencil of cell
        offsets, those at most reach away, picks every cell's rects. Lists hold
        rects in index order.
        """
        cs = self._cs
        n = int(reach / cs)
        offs = [(dy, dx) for dy in range(-n, n + 1) for dx in range(-n, n + 1)
                if (dx * dx + dy * dy) * cs * cs <= reach * reach]
        return _stencil_lists(self.grid.cells, self._rects, offs)

    def blocked(self, x, y):
        """True when a disc of the checker's radius at (x, y) overlaps occupied space."""
        return self.nearest(x, y) < self.radius

    def nearest(self, x, y):
        """Distance from (x, y) to the nearest occupied boundary, grid edge included.

        Equal to grid.clearance(x, y) wherever either is below radius + cap,
        and at least radius + cap elsewhere: it is a minimum over a subset of
        the rects, so it never understates the clearance, but above
        radius + cap it may overstate it. Zero outside the grid and for a NaN
        coordinate.
        """
        last = self._last
        if x == last[0] and y == last[1]:
            return last[2]
        best = x
        d = self._x1 - x
        if d < best:
            best = d
        if y < best:
            best = y
        d = self._y1 - y
        if d < best:
            best = d
        # on or beyond the edge; a NaN x leaves best NaN, a NaN y needs its own test
        if not best > 0.0 or y != y:
            return 0.0
        cs = self._cs
        ix = int(x / cs)
        iy = int(y / cs)
        if ix >= self._w:
            ix = self._w - 1
        if iy >= self._h:
            iy = self._h - 1
        best = self._scan(self._lists[iy * self._w + ix], x, y, best)
        self._last = (x, y, best)
        return best

    def _scan(self, rects, x, y, best):
        """min(best, distance from (x, y) to each of rects), in grid.clearance()'s arithmetic."""
        cs = self._cs
        for rx0, ry0 in rects:
            # hypot(dx, dy) >= max(dx, dy), so a rect with dx or dy at least
            # best cannot lower it
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

    def certificate(self, x, y):
        """(blocked(x, y), region): a region around (x, y) with the same answer.

        For a blocked point the region is r2: blocked() stays True within
        sqrt(r2) of it. For a free point it is an open box (x0, y0, x1, y1)
        on which blocked() is False: the last box if it holds the point, else
        the box built around it, else, where no box fits (see the class
        docstring), the last box, which holds no point before the first box
        is built. Reads the point's cell list at most once.
        """
        box = self._box
        if box[0] < x < box[2] and box[1] < y < box[3]:
            return False, box
        r = self._free_from
        if r < x < self._x1 - r and r < y < self._y1 - r:
            cs = self._cs
            ix = int(x / cs)
            iy = int(y / cs)
            if ix >= self._w:
                ix = self._w - 1
            if iy >= self._h:
                iy = self._h - 1
            rects = self._lists[iy * self._w + ix]
            # a rect closer than r refuses the box; the edge is farther, so the
            # distance found is nearest()'s answer
            d = self._scan(rects, x, y, r)
            if d >= r:
                return False, self._build_box(rects, ix, iy, x, y)
        else:
            d = self.nearest(x, y)
        if d <= self._blocked_to:
            reach = self._blocked_to - d
            return True, reach * reach
        if d < self.radius:
            return True, 0.0
        return False, box

    def _build_box(self, rects, ix, iy, x, y):
        """Cut the box about free point (x, y) from its cell (ix, iy); it becomes
        the last box if it holds the point. Returns the last box."""
        cs = self._cs
        r = self._free_from
        # the point's cell, pulled in from the grid edge
        x0 = max(ix * cs, r)
        x1 = min((ix + 1) * cs, self._x1 - r)
        y0 = max(iy * cs, r)
        y1 = min((iy + 1) * cs, self._y1 - r)
        for rx0, ry0 in rects:
            # the square [ax, bx] x [ay, by] bounds the rect's r-neighbourhood
            ax = rx0 - r
            if ax >= x1:
                continue
            bx = rx0 + cs + r
            if bx <= x0:
                continue
            ay = ry0 - r
            if ay >= y1:
                continue
            by = ry0 + cs + r
            if by <= y0:
                continue
            cut_x = x < ax or x > bx
            if y < ay or y > by:
                # a side of the box can move to the square's side along either
                # axis: move the one that keeps more of the box
                if cut_x:
                    cut_x = ((x1 - ax if x < ax else bx - x0) * (y1 - y0)
                             <= (y1 - ay if y < ay else by - y0) * (x1 - x0))
                if not cut_x:
                    if y < ay:
                        y1 = ay
                    else:
                        y0 = by
                    continue
            elif not cut_x:
                # inside the square, so beside a corner of the rect, at least
                # r from it: the box's corner toward it moves onto the circle
                # of radius r about it, on the ray to (x, y)
                dx = rx0 - x if x < rx0 else (x - rx0 - cs if x > rx0 + cs else 0.0)
                dy = ry0 - y if y < ry0 else (y - ry0 - cs if y > ry0 + cs else 0.0)
                s = r / math.hypot(dx, dy)
                if x < rx0:
                    x1 = min(x1, rx0 - dx * s)
                else:
                    x0 = max(x0, rx0 + cs + dx * s)
                if y < ry0:
                    y1 = min(y1, ry0 - dy * s)
                else:
                    y0 = max(y0, ry0 + cs + dy * s)
                continue
            if x < ax:
                x1 = ax
            else:
                x0 = bx
        if x0 < x < x1 and y0 < y < y1:
            self._box = (x0, y0, x1, y1)
        return self._box


def _stencil_lists(members, items, offs, ring=0):
    """Per cell, the items of the member cells at the cell offsets offs from it.

    members is a (h, w) bool array and items holds one entry per member cell,
    in row-major order. offs lists (dy, dx) offsets in row-major order, so each
    cell's items come out in row-major order of their cells. Returns a flat
    row-major list over the grid grown by ring cells all round, so cell
    (ix, iy) is entry (iy + ring) * (w + 2 * ring) + ix + ring; a cell with
    no member at any offset gets (). Built one row at a time.
    """
    h, w = members.shape
    ow = w + 2 * ring
    out = [()] * (ow * (h + 2 * ring))
    if not items:
        return out
    # member index per cell, -1 elsewhere, padded so that every offset of every
    # output cell lands inside
    pad = ring + max(max(abs(dy), abs(dx)) for dy, dx in offs)
    pw = w + 2 * pad
    ids = np.where(members, np.cumsum(members).reshape(h, w) - 1, -1)
    ids = np.pad(ids, pad, constant_values=-1).ravel()
    stencil = np.arange(pad - ring, pad - ring + ow)[:, None] + np.array([dy * pw + dx for dy, dx in offs])
    for oy in range(h + 2 * ring):
        hits = ids[(oy + pad - ring) * pw + stencil]
        found = hits >= 0
        counts = found.sum(axis=1).tolist()
        idx = hits[found].tolist()
        row = oy * ow
        for ox, (c, end) in enumerate(zip(counts, itertools.accumulate(counts))):
            if c:
                out[row + ox] = tuple([items[i] for i in idx[end - c:end]])
    return out


# -- map document I/O -----------------------------------------------------


def load_world(text):
    """Parse a map document: a `cell_size <float>` header then rows of '#'/'.'.

    Text row j after the header is grid row iy = j, so the first row holds the
    lowest y; character i of a row is column ix = i. The world frame is
    OccupancyGrid's: (0, 0) at the outer corner of the first row's first cell.
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
    for j, row in enumerate(rows):
        lineno = j + 2
        if len(row) != width:
            raise MapError(f"ragged row at line {lineno}")
        if not set(row) <= {"#", "."}:
            ch = next(ch for ch in row if ch not in "#.")
            raise MapError(f"line {lineno}: unknown character {ch!r}")
    # text row j is grid row j: world y grows with line number
    body = "".join(rows).encode("ascii")
    cells = np.frombuffer(body, dtype=np.uint8).reshape(len(rows), width) == ord("#")
    return OccupancyGrid(cells, cell_size)


def save_world(grid):
    """Canonical serialization of a grid (inverse of load_world).

    cell_size is written with 6 significant digits when they read back as the
    same float, and otherwise as the shortest text that does (repr).
    """
    size = f"{grid.cell_size:.6g}"
    if float(size) != grid.cell_size:
        size = repr(grid.cell_size)
    rows = np.where(grid.cells, ord("#"), ord(".")).astype(np.uint8)
    out = [f"cell_size {size}"] + [row.tobytes().decode("ascii") for row in rows]
    return "\n".join(out) + "\n"


# -- geodesic distance field ----------------------------------------------


class DistanceField:
    """Per-cell geodesic distance to a goal point over the radius-inflated grid.

    Built by 8-connected Dijkstra; straight moves cost cell_size, diagonals
    sqrt(2)*cell_size. Unreachable and inflated cells hold +inf: a cell that
    passable_mask excludes has no move in the graph, so only the goal's
    component of passable cells is finite.

    flat_values is a read-only row-major memoryview of values, so
    flat_values[iy * width + ix] reads values[iy, ix] as a Python float
    without a copy; the per-step queries read through it. One 3x3 scan,
    lower_envelope, holds the off-lattice rule: value_at returns its value
    and OracleAgent heads for its cell. A point whose whole 3x3 neighborhood
    is +inf falls back on the nearest finite cell center, found by an argmin
    over those centers. Another, descent_step, holds the on-lattice rule: a
    cell's next cell is its lowest strictly lower 8-neighbor, memoized per
    field; descent_path walks it and OracleAgent merges its first moves.

    Both scans read only the passable cells of the 3x3 block, from the
    grid's passable_blocks table for the field's radius, which every field
    of that grid and radius shares. Every other cell holds +inf, so it can
    neither lower a sum nor a value: skipping it leaves the minimum, its
    (ny, nx) tie order and its floats as a scan of all nine cells gives
    them. A field built from other values must keep that invariant.

    lower_envelope keeps a one-entry memo, like the collision checker's
    nearest(): the last point it scanned and its (value, cell), as one
    tuple. A query with the same x and y (==) gets that answer without a
    scan. NavEnv.step's value_at and the oracle's next off-lattice target
    measure the same pose, and a step that holds its pose measures it again,
    so each pose costs one scan. The values are read-only, so the memo
    cannot go stale. -0.0 and 0.0 give the same answer (the coordinates only
    enter floor(x / cs) and differences with positive cell centers), and a
    NaN never equals the memo.
    """

    def __init__(self, grid, goal, robot_radius, values):
        self.grid = grid
        self.goal = (float(goal[0]), float(goal[1]))
        self.robot_radius = float(robot_radius)
        values.setflags(write=False)
        self.values = values
        self.flat_values = memoryview(values.reshape(-1))
        self.goal_cell = grid.world_to_cell(*self.goal)
        self._blocks = grid.passable_blocks(self.robot_radius)
        self._finite = None
        self._next = {}
        # lower_envelope's memo (x, y, (value, cell)), empty until the first scan
        self._last = (math.nan, math.nan, None)

    def lower_envelope(self, x, y):
        """(value + distance to center, cell) minimized over the finite cells
        of the 3x3 block around (x, y); (inf, None) when none is finite.

        Cells are scanned in increasing (ny, nx) order and only a strictly
        lower sum replaces the best, so ties go to the lowest (ny, nx). The
        last point's answer is remembered (see the class docstring).
        """
        last = self._last
        if x == last[0] and y == last[1]:
            return last[2]
        grid = self.grid
        cs = grid.cell_size
        # the expression of grid.world_to_cell, inline; math.floor already
        # returns an int, and raises on a NaN or infinite coordinate
        ix = math.floor(x / cs)
        iy = math.floor(y / cs)
        best = math.inf
        cell = None
        # a point more than one cell outside the grid has no block
        if -1 <= ix <= grid.width and -1 <= iy <= grid.height:
            vals = self.flat_values
            hypot = math.hypot
            # an unreachable cell's sum is +inf, which never replaces the best
            for i, cx, cy, c in self._blocks[(iy + 1) * (grid.width + 2) + ix + 1]:
                d = vals[i] + hypot(x - cx, y - cy)
                if d < best:
                    best = d
                    cell = c
        out = best, cell
        self._last = (x, y, out)
        return out

    def value_at(self, x, y):
        """Continuous geodesic distance at a world point.

        The lower envelope of value + straight-line distance over the 3x3
        cell neighborhood (lower_envelope); falls back to the nearest finite
        cell when the whole neighborhood is unreachable.
        """
        best, _ = self.lower_envelope(x, y)
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

    def descent_step(self, cell):
        """The cell after `cell` on its descent path, or None where the path ends.

        The next cell is the lowest-valued 8-neighbor whose value is strictly
        below the cell's own. Neighbors are scanned in increasing (ny, nx)
        order and only a strictly lower value replaces the best, so ties go to
        the lowest (ny, nx). The path ends at the goal cell and at a cell none
        of whose neighbors is strictly lower. Results are memoized per field
        as cells are asked for.
        """
        nxt = self._next.get(cell, False)
        if nxt is False:
            nxt = None
            if cell != self.goal_cell:
                ix, iy = cell
                w = self.grid.width
                vals = self.flat_values
                best_v = vals[iy * w + ix]
                # the cell itself is never strictly below best_v
                for i, _, _, c in self._blocks[(iy + 1) * (w + 2) + ix + 1]:
                    v = vals[i]
                    if v < best_v:
                        best_v = v
                        nxt = c
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

    Exact grid traversal (Amanatides-Woo) over the grid's padded byte table:
    the occupied ring around the grid ends every ray at the closed-world edge,
    so the walk steps a flat index (x by 1, y by a row) with no bounds test.
    An origin outside the grid or in an occupied cell returns 0.0.
    """
    x, y = origin
    ix, iy = grid.world_to_cell(x, y)
    if grid.is_occupied(ix, iy):
        return 0.0
    dx = math.cos(angle)
    dy = math.sin(angle)
    cs = grid.cell_size
    row = grid._stride

    if dx > 0:
        step_x, t_max_x = 1, ((ix + 1) * cs - x) / dx
        t_dx = cs / dx
    elif dx < 0:
        step_x, t_max_x = -1, (ix * cs - x) / dx
        t_dx = -cs / dx
    else:
        step_x, t_max_x, t_dx = 0, math.inf, math.inf
    if dy > 0:
        step_y, t_max_y = row, ((iy + 1) * cs - y) / dy
        t_dy = cs / dy
    elif dy < 0:
        step_y, t_max_y = -row, (iy * cs - y) / dy
        t_dy = -cs / dy
    else:
        step_y, t_max_y, t_dy = 0, math.inf, math.inf

    occ = grid._occ
    i = (iy + 1) * row + ix + 1
    while True:
        if t_max_x < t_max_y:
            t = t_max_x
            i += step_x
            t_max_x += t_dx
        else:
            t = t_max_y
            i += step_y
            t_max_y += t_dy
        if t >= max_range:
            return max_range
        if occ[i]:
            return t
