"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and written with plain scalar loops so
that it shares no code path with the package under test. The one exception is
dynlite_reference_step, which runs on the package's exact collision tests and
checks how the package avoids calling them.
"""

import heapq
import math

from kinnav.motion import InconsistentStateError, Pose, VelocityCommand, wrap_angle

SQRT2 = math.sqrt(2.0)


def clearance_oracle(grid, x, y):
    """Exhaustive min distance to the boundary and every occupied cell rect."""
    x0, y0, x1, y1 = grid.extent
    best = min(x - x0, x1 - x, y - y0, y1 - y)
    cs = grid.cell_size
    ox, oy = grid.origin
    for iy in range(grid.height):
        for ix in range(grid.width):
            if not grid.cells[iy, ix]:
                continue
            rx0 = ox + ix * cs
            ry0 = oy + iy * cs
            dx = max(rx0 - x, x - (rx0 + cs), 0.0)
            dy = max(ry0 - y, y - (ry0 + cs), 0.0)
            best = min(best, math.hypot(dx, dy))
    return max(best, 0.0)


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


def dynlite_scalar_oracle(x0, v0, cmd, tau, substeps, dt=1.0):
    """Open-space 1D dynamic-lite reference: velocity lag plus Euler position."""
    delta = dt / substeps
    alpha = delta / tau
    x, v = x0, v0
    for _ in range(substeps):
        v += alpha * (cmd - v)
        x += v * delta
    return x, v


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
