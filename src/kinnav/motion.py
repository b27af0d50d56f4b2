"""Velocity commands, the kinematic teleport backend, and the dynamic-lite surrogate."""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .world import CERT_EPS


class InvalidCommandError(ValueError):
    """Command contains NaN components."""


class InconsistentStateError(RuntimeError):
    """Stepping was attempted from a pose already in collision."""


def wrap_angle(theta):
    """Normalize an angle to (-pi, pi]."""
    t = math.remainder(theta, math.tau)
    if t <= -math.pi:
        t += math.tau
    return t


class Pose(NamedTuple):
    """Planar robot state: world position plus heading in (-pi, pi]."""

    x: float
    y: float
    theta: float


class VelocityCommand(NamedTuple):
    """Body-frame CoM velocity action: forward vx, lateral vy, angular w."""

    vx: float
    vy: float
    w: float


def clamp_command(cmd, spec):
    """Clip each component to the robot's symmetric limit. Idempotent.

    A command already within the limits is returned as it is.
    """
    vx, vy, w = cmd.vx, cmd.vy, cmd.w
    if math.isnan(vx) or math.isnan(vy) or math.isnan(w):
        raise InvalidCommandError(f"command has NaN component: {cmd}")
    lin, ang = spec.lin_limit, spec.ang_limit
    if -lin <= vx <= lin and -lin <= vy <= lin and -ang <= w <= ang:
        return cmd
    return VelocityCommand(
        min(max(vx, -lin), lin),
        min(max(vy, -lin), lin),
        min(max(w, -ang), ang),
    )


def kinematic_step(grid, pose, cmd, dt, spec):
    """Teleport to the Euler-integrated next state, or hold position on collision.

    The candidate position uses the start-of-step heading. If the footprint disc
    would overlap occupied space there, the position is kept and blocked=True;
    the heading still updates. Only the end point is tested, not the segment.
    """
    checker = grid.collision_checker(spec.footprint_radius)
    if checker.blocked(pose.x, pose.y):
        raise InconsistentStateError(f"pose {pose} starts in collision")
    c = math.cos(pose.theta)
    s = math.sin(pose.theta)
    nx = pose.x + (cmd.vx * c - cmd.vy * s) * dt
    ny = pose.y + (cmd.vx * s + cmd.vy * c) * dt
    nth = wrap_angle(pose.theta + cmd.w * dt)
    blocked = checker.blocked(nx, ny)
    if blocked:
        return Pose(pose.x, pose.y, nth), True
    return Pose(nx, ny, nth), False


@dataclass(frozen=True)
class DynamicLiteConfig:
    """First-order velocity-lag surrogate for a physics-stepped backend.

    tau is the velocity tracking time constant; each control step is split into
    `substeps` physics substeps. On contact the position update either slides
    along the free axis-aligned component or holds. A fall fires when the
    prevented penetration in one substep exceeds fall_penetration.

    Every substep starts from a free pose and clearance is 1-Lipschitz, so the
    penetration of a substep is at most its displacement. A fall therefore
    needs a speed above fall_penetration * substeps / dt: 12 m/s at the
    defaults and dt = 1 s, far beyond every robot's limits, so profiles A and B
    cannot fall at 240 substeps. Only coarse substepping (substeps=1 in the
    tests) reaches the fall path.
    """

    tau: float
    substeps: int = 240
    slide_on_contact: bool = True
    fall_penetration: float = 0.05

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")


# Two controller personalities, mirroring a tight tracker used for training
# and a sluggish non-sliding one used for evaluation.
PROFILES = {
    "profile-A": DynamicLiteConfig(tau=0.30, slide_on_contact=True),
    "profile-B": DynamicLiteConfig(tau=0.60, slide_on_contact=False),
}


def dynamic_lite_step(grid, pose, actual_vel, cmd, config, spec, dt=1.0):
    """Advance one control step of the dynamic-lite backend.

    Returns (new pose, new actual velocity, events); events is a list of
    ('contact', substep) and ('fall', substep) tuples. A fall ends the step.

    Collision answers equal checker.blocked() at every tested point, but most
    come from two certified discs (see _CollisionChecker): points within
    sqrt(f2) of (fx, fy) are free, points within sqrt(b2) of (bx, by) blocked.
    A query runs only when a point falls outside both.
    """
    checker = grid.collision_checker(spec.footprint_radius)
    certify = checker.certify
    x, y, th = pose.x, pose.y, pose.theta
    hit, f2 = certify(x, y)
    if hit:
        raise InconsistentStateError(f"pose {pose} starts in collision")
    fx, fy = x, y
    bx = by = b2 = 0.0
    delta = dt / config.substeps
    # gain capped at 1: for delta >= tau the lag collapses to exact tracking
    # (an uncapped explicit update would be unstable for delta > 2*tau)
    alpha = min(delta / config.tau, 1.0)
    slide = config.slide_on_contact
    fall_pen = config.fall_penetration
    # a substep starts free, so its penetration is at most its displacement:
    # a fall needs a displacement above this
    gate = fall_pen - CERT_EPS
    vx, vy, w = actual_vel.vx, actual_vel.vy, actual_vel.w
    cvx, cvy, cw = cmd.vx, cmd.vy, cmd.w
    cos, sin = math.cos, math.sin
    events = []
    for k in range(config.substeps):
        vx += alpha * (cvx - vx)
        vy += alpha * (cvy - vy)
        w += alpha * (cw - w)
        c = cos(th)
        s = sin(th)
        nx = x + (vx * c - vy * s) * delta
        ny = y + (vx * s + vy * c) * delta
        ex = nx - fx
        ey = ny - fy
        if ex * ex + ey * ey < f2:
            hit = False
        else:
            ex = nx - bx
            ey = ny - by
            if ex * ex + ey * ey < b2:
                hit = True
            else:
                hit, reach2 = certify(nx, ny)
                if hit:
                    bx, by, b2 = nx, ny, reach2
                else:
                    fx, fy, f2 = nx, ny, reach2
        if hit:
            events.append(("contact", k))
            deep = math.hypot(nx - x, ny - y) > gate
            if slide:
                for px, py in ((nx, y), (x, ny)):
                    ex = px - fx
                    ey = py - fy
                    if ex * ex + ey * ey < f2:
                        hit = False
                    else:
                        ex = px - bx
                        ey = py - by
                        if ex * ex + ey * ey < b2:
                            hit = True
                        else:
                            hit, reach2 = certify(px, py)
                            if hit:
                                bx, by, b2 = px, py, reach2
                            else:
                                fx, fy, f2 = px, py, reach2
                    if not hit:
                        x, y = px, py
                        break
            if deep and checker.penetration(nx, ny) > fall_pen:
                events.append(("fall", k))
                th += w * delta
                break
        else:
            x, y = nx, ny
        th += w * delta
    return Pose(x, y, wrap_angle(th)), VelocityCommand(vx, vy, w), events
