"""Reference agents and the pluggable policy interface.

All agents implement act(observation, memory) -> (AgentAction, memory); memory
is opaque to the harness and round-tripped untouched, so recurrent external
policies can carry hidden state. The oracle is privileged: it reads the robot
pose off the observation (available only when the environment exposes it) and
the goal distance field it was constructed with.
"""

import math
from typing import NamedTuple

from .motion import VelocityCommand, wrap_angle


class NoPathError(RuntimeError):
    """Oracle has no reachable route to the goal."""


class AgentAction(NamedTuple):
    cmd: VelocityCommand
    stop: bool = False


STOP = AgentAction(VelocityCommand(0.0, 0.0, 0.0), stop=True)


class OracleAgent:
    """Steepest-descent agent on the goal distance field; upper-bound reference.

    Moves from cell center to cell center along the descent path, merging
    colinear moves up to the velocity limit, and stops inside the success
    radius. Never commands into inflated cells, so it never collides under the
    kinematic backend. Its commands are not clamped here: NavEnv.step clamps
    every action to the robot's limits.

    Each step looks ahead only as far as the merge can reach: it takes the
    path one cell at a time (DistanceField.descent_step) and stops at the
    first cell that turns off the line of the first move or lies beyond
    lin_limit * 1 s (NavEnv's control period), so it reads at most
    lin_limit / cell_size + 1 cells of the path, whatever its length. A pose
    is on the lattice when it lies within 1e-9 m of its cell's center; the
    cell and the centers come from the expressions of grid.world_to_cell and
    grid.cell_center, written inline.

    Off the lattice, or on an inflated cell's center, it heads for the center
    of the cell that minimizes DistanceField.value_at's 3x3 envelope
    (DistanceField.lower_envelope, whose memo answers the pose NavEnv.step's
    value_at just measured without a second scan), and raises NoPathError
    when no cell of that block is finite.
    """

    def __init__(self, dist_field, spec):
        self.field = dist_field
        self.spec = spec

    def reset(self):
        return None

    def act(self, obs, memory=None):
        if obs.goal_vector[0] <= self.spec.success_radius:
            return STOP, memory
        pose = obs.pose
        if pose is None:
            raise ValueError("oracle needs a pose-exposing observation")
        target = self._target(pose)
        dxw = target[0] - pose.x
        dyw = target[1] - pose.y
        dist = math.hypot(dxw, dyw)
        speed = min(self.spec.lin_limit, dist)
        ux, uy = dxw / dist, dyw / dist
        c = math.cos(pose.theta)
        s = math.sin(pose.theta)
        vx = (c * ux + s * uy) * speed
        vy = (-s * ux + c * uy) * speed
        err = wrap_angle(math.atan2(dyw, dxw) - pose.theta)
        w = min(max(err, -self.spec.ang_limit), self.spec.ang_limit)
        return AgentAction(VelocityCommand(vx, vy, w)), memory

    def _target(self, pose):
        field = self.field
        grid = field.grid
        vals = field.flat_values
        w = grid.width
        cs = grid.cell_size
        x, y = pose.x, pose.y
        # the expressions of grid.world_to_cell and grid.cell_center, inline
        ix = math.floor(x / cs)
        iy = math.floor(y / cs)
        at_center = math.hypot(x - (ix + 0.5) * cs, y - (iy + 0.5) * cs) < 1e-9
        if at_center and math.isfinite(vals[iy * w + ix]):
            step = field.descent_step
            cell = step((ix, iy))
            if cell is None:
                raise NoPathError(f"no descent from cell ({ix}, {iy})")
            # merge colinear descent moves while they fit in one step
            budget = self.spec.lin_limit + 1e-12
            target = ((cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs)
            fx, fy = target[0] - x, target[1] - y
            cell = step(cell)
            while cell is not None:
                nx = (cell[0] + 0.5) * cs
                ny = (cell[1] + 0.5) * cs
                tx, ty = nx - x, ny - y
                colinear = abs(fx * ty - fy * tx) < 1e-9 and (fx * tx + fy * ty) > 0
                if not colinear or math.hypot(tx, ty) > budget:
                    break
                target = (nx, ny)
                cell = step(cell)
            return target
        # off the lattice (or in an inflated cell): head for value_at's minimizer
        _, cell = field.lower_envelope(x, y)
        if cell is None:
            raise NoPathError(f"no reachable cell near ({x}, {y})")
        return grid.cell_center(*cell)


class RandomAgent:
    """Uniform random commands within the clamp limits; never stops."""

    def __init__(self, spec, rng):
        self.spec = spec
        self.rng = rng

    def reset(self):
        return None

    def act(self, obs, memory=None):
        # Python floats: numpy scalars would slow every pose the backends compute
        vx, vy = self.rng.uniform(-self.spec.lin_limit, self.spec.lin_limit, size=2).tolist()
        w = self.rng.uniform(-self.spec.ang_limit, self.spec.ang_limit)
        return AgentAction(VelocityCommand(vx, vy, w)), memory


class ConstantAgent:
    """Scripted fixed-velocity agent; handy for interface and plumbing tests."""

    def __init__(self, cmd):
        self.cmd = cmd

    def reset(self):
        return None

    def act(self, obs, memory=None):
        return AgentAction(self.cmd), memory
