"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and written with plain scalar loops so
that it shares no code path with the package under test. The exceptions are
earlier versions of package code, kept verbatim so that faster replacements
can be checked against them for exact equality: dynlite_reference_step runs on
the package's exact collision tests, so it checks the free boxes, the blocked
discs and the hold horizon, which skips the tests of contacts certified in
advance (tests/test_motion.py compares them on hugging starts at walls,
corners and the grid edge, for Spot, AlienGo and A1 at 24, 60 and 240
substeps, with reversed velocities and turns at the angular limit), and
cell_lists_reference builds a collision checker's per-cell lists.
descent_neighbor_reference is the neighbor scan that DistanceField ran
before it was folded into descent_step, and lower_envelope_reference the
nine-cell scan that lower_envelope ran before it read the grid's
passable_blocks table; descent_step_reference,
descent_path_reference and oracle_target_reference walk it, so they share no
read with the package. The numpy-indexing versions of the distance-field
reads (value_at_reference, descent_neighbor_reference,
oracle_target_numpy_reference) and the one-way move graph searched undirected
(distance_values_reference) check the memoryview reads and the symmetric
graph. KDGridReference and KDFieldReference answer clearance, center_clearance
and the distance field's far-from-reach fallback from KD-trees, as the package
did before it answered them from the cell lattice alone. raycast_reference is
the ray caster as it walked cell indices with a bounds test per cell, before
it walked a flat index over the grid's padded byte table. save_world_reference
is save_world as it built each row one cell at a time and always wrote 6
significant digits. CountingLists counts the cell lists a collision checker
reads.
"""

import heapq
import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from kinnav.agents import NoPathError
from kinnav.motion import InconsistentStateError, Pose, VelocityCommand, wrap_angle
from kinnav.world import OutOfBoundsError

SQRT2 = math.sqrt(2.0)


def clearance_oracle(grid, x, y):
    """Exhaustive min distance to the boundary and every occupied cell rect.

    Each rect in the package's one expression, with its far edge measured as
    x - x0 - cs, and math.hypot on every rect: the same float operations as
    clearance() and nearest(), so those must equal it exactly, not merely
    closely. numpy's elementwise float64 operations round exactly as the
    scalar ones do.
    """
    x0, y0, x1, y1 = grid.extent
    best = min(x - x0, x1 - x, y - y0, y1 - y)
    cs = grid.cell_size
    iys, ixs = np.nonzero(grid.cells)
    rx0 = ixs * cs
    ry0 = iys * cs
    dx = np.where(x < rx0, rx0 - x, np.where(x > rx0 + cs, x - rx0 - cs, 0.0))
    dy = np.where(y < ry0, ry0 - y, np.where(y > ry0 + cs, y - ry0 - cs, 0.0))
    best = min([best, *map(math.hypot, dx.tolist(), dy.tolist())])
    return max(best, 0.0)


def blocked_oracle(grid, radius, x, y):
    """_CollisionChecker.blocked over every occupied cell rect: clearance below the radius."""
    return clearance_oracle(grid, x, y) < radius


def passable_oracle(grid, robot_radius):
    """Free cells whose center keeps robot_radius clearance, by brute force."""
    ok = [[False] * grid.width for _ in range(grid.height)]
    for iy in range(grid.height):
        for ix in range(grid.width):
            if grid.cells[iy, ix]:
                continue
            cx, cy = grid.cell_center(ix, iy)
            ok[iy][ix] = clearance_oracle(grid, cx, cy) >= robot_radius
    return ok


def dijkstra_oracle(grid, goal_cell, robot_radius):
    """Heap-based 8-connected Dijkstra over the inflated grid.

    Returns a height x width list-of-lists of distances (math.inf when
    unreachable or inflated).
    """
    ok = passable_oracle(grid, robot_radius)
    dist = [[math.inf] * grid.width for _ in range(grid.height)]
    gx, gy = goal_cell
    if not ok[gy][gx]:
        raise ValueError("goal cell not passable")
    cs = grid.cell_size
    dist[gy][gx] = 0.0
    heap = [(0.0, gx, gy)]
    while heap:
        d, ix, iy = heapq.heappop(heap)
        if d > dist[iy][ix]:
            continue
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                if 0 <= nx < grid.width and 0 <= ny < grid.height and ok[ny][nx]:
                    step = SQRT2 * cs if dx and dy else cs
                    nd = d + step
                    if nd < dist[ny][nx]:
                        dist[ny][nx] = nd
                        heapq.heappush(heap, (nd, nx, ny))
    return dist


def raymarch_oracle(grid, origin, angle, max_range, step=1e-4):
    """March along the ray in tiny steps until the point enters occupied space."""
    x, y = origin
    dx = math.cos(angle)
    dy = math.sin(angle)
    n = int(max_range / step)
    for k in range(1, n + 1):
        t = k * step
        ix, iy = grid.world_to_cell(x + t * dx, y + t * dy)
        if grid.is_occupied(ix, iy):
            return t
    return max_range


def raycast_reference(grid, origin, angle, max_range):
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

    if dx > 0:
        step_x, t_max_x = 1, ((ix + 1) * cs - x) / dx
        t_dx = cs / dx
    elif dx < 0:
        step_x, t_max_x = -1, (ix * cs - x) / dx
        t_dx = -cs / dx
    else:
        step_x, t_max_x, t_dx = 0, math.inf, math.inf
    if dy > 0:
        step_y, t_max_y = 1, ((iy + 1) * cs - y) / dy
        t_dy = cs / dy
    elif dy < 0:
        step_y, t_max_y = -1, (iy * cs - y) / dy
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


def dynlite_scalar_oracle(x0, v0, cmd, tau, substeps, dt=1.0):
    """Open-space 1D dynamic-lite reference: velocity lag plus Euler position."""
    delta = dt / substeps
    alpha = delta / tau
    x, v = x0, v0
    for _ in range(substeps):
        v += alpha * (cmd - v)
        x += v * delta
    return x, v


class CountingLists(list):
    """A collision checker's per-cell list table that counts the lists read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def dynlite_reference_step(grid, pose, actual_vel, cmd, config, spec, dt=1.0):
    """The dynamic-lite control step with an exact collision test on every substep.

    The substep loop of the original implementation, kept verbatim: it calls
    only checker.blocked and checker.penetration, so certified shortcuts in
    the package can be checked against it for exact equality.
    """
    checker = grid.collision_checker(spec.footprint_radius)
    if checker.blocked(pose.x, pose.y):
        raise InconsistentStateError(f"pose {pose} starts in collision")
    delta = dt / config.substeps
    alpha = min(delta / config.tau, 1.0)
    slide = config.slide_on_contact
    x, y, th = pose.x, pose.y, pose.theta
    vx, vy, w = actual_vel.vx, actual_vel.vy, actual_vel.w
    cvx, cvy, cw = cmd.vx, cmd.vy, cmd.w
    cos, sin = math.cos, math.sin
    events = []
    blocked = checker.blocked
    for k in range(config.substeps):
        vx += alpha * (cvx - vx)
        vy += alpha * (cvy - vy)
        w += alpha * (cw - w)
        c = cos(th)
        s = sin(th)
        nx = x + (vx * c - vy * s) * delta
        ny = y + (vx * s + vy * c) * delta
        if blocked(nx, ny):
            events.append(("contact", k))
            if slide:
                if not blocked(nx, y):
                    x = nx
                elif not blocked(x, ny):
                    y = ny
            pen = checker.penetration(nx, ny)
            if pen > config.fall_penetration:
                events.append(("fall", k))
                th += w * delta
                break
        else:
            x, y = nx, ny
        th += w * delta
    return Pose(x, y, wrap_angle(th)), VelocityCommand(vx, vy, w), events


def descent_path_reference(field, ix, iy):
    """DistanceField.descent_path as it was: the whole path, one neighbor scan per cell.

    The scan is descent_neighbor_reference, so no package read is shared.
    """
    path = [(ix, iy)]
    cur = (ix, iy)
    guard = field.grid.width * field.grid.height + 1
    while cur != field.goal_cell and guard > 0:
        nxt = descent_neighbor_reference(field, *cur)
        if nxt is None or field.values[nxt[1], nxt[0]] >= field.values[cur[1], cur[0]]:
            break
        path.append(nxt)
        cur = nxt
        guard -= 1
    return path


def oracle_target_reference(field, spec, dt, pose):
    """OracleAgent._target as it was: merges along the whole descent path."""
    grid = field.grid
    ix, iy = grid.world_to_cell(pose.x, pose.y)
    cx, cy = grid.cell_center(ix, iy)
    budget = spec.lin_limit * dt
    at_center = math.hypot(pose.x - cx, pose.y - cy) < 1e-9
    if at_center and math.isfinite(field.values[iy, ix]):
        path = descent_path_reference(field, ix, iy)
        if len(path) < 2:
            raise NoPathError(f"no descent from cell ({ix}, {iy})")
        # merge colinear descent moves while they fit in one step
        first = grid.cell_center(*path[1])
        fx, fy = first[0] - pose.x, first[1] - pose.y
        target = first
        for cell in path[2:]:
            nx, ny = grid.cell_center(*cell)
            tx, ty = nx - pose.x, ny - pose.y
            d = math.hypot(tx, ty)
            colinear = abs(fx * ty - fy * tx) < 1e-9 and (fx * tx + fy * ty) > 0
            if not colinear or d > budget + 1e-12:
                break
            target = (nx, ny)
        return target
    # off the lattice (or in an inflated cell): head for the best nearby center
    best = None
    best_d = math.inf
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nx, ny = ix + dx, iy + dy
            if 0 <= nx < grid.width and 0 <= ny < grid.height:
                v = field.values[ny, nx]
                if math.isfinite(v):
                    px, py = grid.cell_center(nx, ny)
                    step = math.hypot(pose.x - px, pose.y - py)
                    d = v + step
                    if d < best_d and step > 1e-9:
                        best_d = d
                        best = (px, py)
    if best is None:
        raise NoPathError(f"no reachable cell near ({pose.x}, {pose.y})")
    return best


def cell_lists_reference(checker, reach):
    """_CollisionChecker._cell_lists as it was: one KD query per grid row."""
    grid = checker.grid
    w = checker._w
    out = [()] * (w * checker._h)
    tree = KDGridReference(grid)._tree
    if tree is None:
        return out
    cs = checker._cs
    xs = (np.arange(w) + 0.5) * cs
    ys = (np.arange(checker._h) + 0.5) * cs
    rects = checker._rects
    for iy, cy in enumerate(ys):
        # a multi-point query lists each point's indices in ascending order
        hits = tree.query_ball_point(np.column_stack([xs, np.full(w, cy)]), reach)
        row = iy * w
        for ix, h in enumerate(hits):
            if h:
                out[row + ix] = tuple([rects[i] for i in h])
    return out


class KDGridReference:
    """OccupancyGrid's clearance queries as they were, from a KD-tree over occupied-cell centers.

    The tree, the candidate radius and the methods are kept verbatim.
    """

    def __init__(self, grid):
        self.grid = grid
        cs = grid.cell_size
        iys, ixs = np.nonzero(grid.cells)
        self._occ_x0 = ixs * cs
        self._occ_y0 = iys * cs
        centers = np.column_stack([self._occ_x0 + 0.5 * cs, self._occ_y0 + 0.5 * cs])
        self._tree = cKDTree(centers) if len(centers) else None
        self._half_diag = 0.5 * SQRT2 * cs

    def _edge_distance(self, x, y):
        x0, y0, x1, y1 = self.grid.extent
        return min(x - x0, x1 - x, y - y0, y1 - y)

    def _rect_distance_min(self, x, y, idxs):
        cs = self.grid.cell_size
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
        if not self.grid.in_bounds(x, y):
            raise OutOfBoundsError(f"point ({x}, {y}) outside grid")
        best = self._edge_distance(x, y)
        if self._tree is not None:
            d0, _ = self._tree.query((x, y))
            # nearest rect can only belong to a center within d0 + half-diagonal
            idxs = self._tree.query_ball_point((x, y), min(d0, best) + self._half_diag)
            best = min(best, self._rect_distance_min(x, y, idxs))
        return max(best, 0.0)

    def center_clearance(self):
        grid = self.grid
        cs = grid.cell_size
        xs = (np.arange(grid.width) + 0.5) * cs
        ys = (np.arange(grid.height) + 0.5) * cs
        gx, gy = np.meshgrid(xs, ys)
        x0, y0, x1, y1 = grid.extent
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
            out = np.minimum(edge, exact.reshape(grid.height, grid.width))
        return np.maximum(out, 0.0)


class KDFieldReference:
    """DistanceField._fallback_value as it was, from a KD-tree over finite-cell centers."""

    def __init__(self, field):
        self.values = field.values
        self.grid = field.grid
        self._finite_tree = None
        self._finite_cells = None

    def _fallback_value(self, x, y):
        if self._finite_tree is None:
            iys, ixs = np.nonzero(np.isfinite(self.values))
            if len(ixs) == 0:
                return math.inf
            cs = self.grid.cell_size
            pts = np.column_stack([(ixs + 0.5) * cs, (iys + 0.5) * cs])
            self._finite_tree = cKDTree(pts)
            self._finite_cells = self.values[iys, ixs]
        d, i = self._finite_tree.query((x, y))
        return float(self._finite_cells[i] + d)


def value_at_reference(field, x, y):
    """DistanceField.value_at as it was: numpy-scalar reads, grid coordinate helpers."""
    grid = field.grid
    ix, iy = grid.world_to_cell(x, y)
    vals = field.values
    best = math.inf
    for dy in (-1, 0, 1):
        ny = iy + dy
        if ny < 0 or ny >= grid.height:
            continue
        for dx in (-1, 0, 1):
            nx = ix + dx
            if nx < 0 or nx >= grid.width:
                continue
            v = vals[ny, nx]
            if v < math.inf:
                cx, cy = grid.cell_center(nx, ny)
                d = v + math.hypot(x - cx, y - cy)
                if d < best:
                    best = d
    if best < math.inf:
        return best
    return field._fallback_value(x, y)


def passable_blocks_oracle(grid, robot_radius):
    """OccupancyGrid.passable_blocks by brute force: every block's nine cells, one at a time."""
    ok = grid.passable_mask(robot_radius)
    w, h, cs = grid.width, grid.height, grid.cell_size
    out = []
    for iy in range(-1, h + 1):
        for ix in range(-1, w + 1):
            out.append(tuple((ny * w + nx, (nx + 0.5) * cs, (ny + 0.5) * cs, (nx, ny))
                             for ny in (iy - 1, iy, iy + 1) for nx in (ix - 1, ix, ix + 1)
                             if 0 <= nx < w and 0 <= ny < h and ok[ny, nx]))
    return out


def lower_envelope_reference(field, x, y):
    """DistanceField.lower_envelope as it was: all nine cells of the block, each
    with a bounds test, and no memo."""
    grid = field.grid
    cs = grid.cell_size
    w, h = grid.width, grid.height
    ix = math.floor(x / cs)
    iy = math.floor(y / cs)
    vals = field.flat_values
    inf = best = math.inf
    cell = None
    for ny in (iy - 1, iy, iy + 1):
        if ny < 0 or ny >= h:
            continue
        dy = y - (ny + 0.5) * cs
        row = ny * w
        for nx in (ix - 1, ix, ix + 1):
            if nx < 0 or nx >= w:
                continue
            v = vals[row + nx]
            if v < inf:
                d = v + math.hypot(x - (nx + 0.5) * cs, dy)
                if d < best:
                    best = d
                    cell = (nx, ny)
    return best, cell


def descent_neighbor_reference(field, ix, iy):
    """DistanceField.descent_neighbor as it was: numpy-scalar reads and a tie clause.

    Lowest-valued 8-neighbor of a cell, or None if all are +inf.
    """
    grid = field.grid
    vals = field.values
    best = None
    best_v = math.inf
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = ix + dx, iy + dy
            if 0 <= nx < grid.width and 0 <= ny < grid.height:
                v = vals[ny, nx]
                if v < best_v or (v == best_v and best is not None and (ny, nx) < best[::-1]):
                    best_v = v
                    best = (nx, ny)
    if best_v == math.inf:
        return None
    return best


def descent_step_reference(field, cell):
    """DistanceField.descent_step as it was, on the numpy reads and without the memo."""
    nxt = None
    if cell != field.goal_cell:
        nxt = descent_neighbor_reference(field, *cell)
        vals = field.values
        if nxt is not None and vals[nxt[1], nxt[0]] >= vals[cell[1], cell[0]]:
            nxt = None
    return nxt


def oracle_target_numpy_reference(field, spec, dt, pose):
    """OracleAgent._target as it was before the memoryview reads.

    Verbatim but for the descent steps, which come from descent_step_reference.
    """
    grid = field.grid
    ix, iy = grid.world_to_cell(pose.x, pose.y)
    cx, cy = grid.cell_center(ix, iy)
    budget = spec.lin_limit * dt
    at_center = math.hypot(pose.x - cx, pose.y - cy) < 1e-9
    if at_center and math.isfinite(field.values[iy, ix]):
        def step(cell):
            return descent_step_reference(field, cell)
        cell = step((ix, iy))
        if cell is None:
            raise NoPathError(f"no descent from cell ({ix}, {iy})")
        # merge colinear descent moves while they fit in one step
        first = grid.cell_center(*cell)
        fx, fy = first[0] - pose.x, first[1] - pose.y
        target = first
        cell = step(cell)
        while cell is not None:
            nx, ny = grid.cell_center(*cell)
            tx, ty = nx - pose.x, ny - pose.y
            d = math.hypot(tx, ty)
            colinear = abs(fx * ty - fy * tx) < 1e-9 and (fx * tx + fy * ty) > 0
            if not colinear or d > budget + 1e-12:
                break
            target = (nx, ny)
            cell = step(cell)
        return target
    # off the lattice (or in an inflated cell): head for the best nearby center
    best = None
    best_d = math.inf
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nx, ny = ix + dx, iy + dy
            if 0 <= nx < grid.width and 0 <= ny < grid.height:
                v = field.values[ny, nx]
                if math.isfinite(v):
                    px, py = grid.cell_center(nx, ny)
                    step = math.hypot(pose.x - px, pose.y - py)
                    d = v + step
                    if d < best_d and step > 1e-9:
                        best_d = d
                        best = (px, py)
    if best is None:
        raise NoPathError(f"no reachable cell near ({pose.x}, {pose.y})")
    return best


def neighbor_graph_reference(grid, robot_radius):
    """OccupancyGrid._neighbor_graph as it was: each move listed once, one way."""
    key = float(robot_radius)
    ok = grid.passable_mask(key)
    h, w = ok.shape
    idx = np.arange(h * w).reshape(h, w)
    cs = grid.cell_size
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
    return sparse.coo_matrix((costs, (rows, cols)), shape=(h * w, h * w)).tocsr()


def distance_values_reference(grid, graph, goal_cell):
    """distance_field's values as they were: the one-way graph searched with directed=False."""
    ix, iy = goal_cell
    dist = csgraph.dijkstra(graph, directed=False, indices=iy * grid.width + ix)
    return dist.reshape(grid.height, grid.width)


def save_world_reference(grid):
    """Canonical serialization of a grid (inverse of load_world)."""
    out = [f"cell_size {grid.cell_size:.6g}"]
    for iy in range(grid.height):
        out.append("".join("#" if grid.cells[iy, ix] else "." for ix in range(grid.width)))
    return "\n".join(out) + "\n"
