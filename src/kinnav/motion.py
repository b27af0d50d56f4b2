"""Velocity commands, the kinematic teleport backend, and the dynamic-lite surrogate."""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

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


def kinematic_step(grid, pose, cmd, spec):
    """Teleport to the Euler-integrated state after one 1 s control step, or hold.

    The candidate position uses the start-of-step heading. If the footprint disc
    would overlap occupied space there, the position is kept and blocked=True;
    the heading still updates. Only the end point is tested, not the segment.
    """
    checker = grid.collision_checker(spec.footprint_radius)
    if checker.blocked(pose.x, pose.y):
        raise InconsistentStateError(f"pose {pose} starts in collision")
    c = math.cos(pose.theta)
    s = math.sin(pose.theta)
    nx = pose.x + (cmd.vx * c - cmd.vy * s)
    ny = pose.y + (cmd.vx * s + cmd.vy * c)
    nth = wrap_angle(pose.theta + cmd.w)
    blocked = checker.blocked(nx, ny)
    if blocked:
        return Pose(pose.x, pose.y, nth), True
    return Pose(nx, ny, nth), False


@dataclass(frozen=True)
class DynamicLiteConfig:
    """First-order velocity-lag surrogate for a physics-stepped backend.

    tau is the velocity tracking time constant, positive and finite; each
    1 s control step is split into `substeps` physics substeps of
    1 / substeps s. On contact the position update either slides along the
    free axis-aligned component or holds. A fall fires when the prevented
    penetration in one substep exceeds fall_penetration, a fixed 0.05 m for
    every config (a class constant, not a field).

    Every substep starts from a free pose and clearance is 1-Lipschitz, so the
    penetration of a substep is at most its displacement. The lagged velocity
    moves along a straight line toward the command, so from any substep on the
    speed is at most v_max, the larger of the current and the commanded speed,
    and each displacement at most v_max / substeps. A fall therefore needs
    v_max / substeps above fall_penetration, which dynamic_lite_step tests
    once per step, at its first contact. Within every robot's limits
    (v_max <= 0.5 * sqrt(2) m/s) that never happens at 240 substeps, nor for
    Spot from 15 substeps up; only coarse substepping (substeps=1 in the
    tests) reaches the fall path.
    """

    tau: float
    substeps: int = 240
    slide_on_contact: bool = True
    fall_penetration: ClassVar[float] = 0.05

    def __post_init__(self):
        # an infinite tau gives alpha = 0: the robot would never move
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not isinstance(self.substeps, int) or isinstance(self.substeps, bool):
            raise ValueError("substeps must be an int")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")


# Two controller personalities, mirroring a tight tracker used for training
# and a sluggish non-sliding one used for evaluation.
PROFILES = {
    "profile-A": DynamicLiteConfig(tau=0.30, slide_on_contact=True),
    "profile-B": DynamicLiteConfig(tau=0.60, slide_on_contact=False),
}

# relative and absolute padding of the hold-horizon bounds, far above their rounding
_PAD_REL = 1.0 + 1e-6
_PAD_ABS = 1e-15


@functools.lru_cache(maxsize=None)
def _contact_events(substeps):
    """(('contact', 0), ..., ('contact', substeps - 1)), sliced for a held run."""
    return tuple(("contact", k) for k in range(substeps))


def dynamic_lite_step(grid, pose, actual_vel, cmd, config, spec):
    """Advance one 1 s control step of the dynamic-lite backend.

    Returns (new pose, new actual velocity, events); events is a list of
    ('contact', substep) and ('fall', substep) tuples. A fall ends the step.

    Collision answers equal checker.blocked(), that is clearance < radius, at
    every tested point, but most come from the two regions of
    checker.certificate() (see _CollisionChecker): points strictly inside the
    free box (x0, y0, x1, y1) are free, points within sqrt(b2) of (bx, by)
    blocked. A point outside both asks certificate(), which pays at most one
    scan of its cell list and replaces the box or the disc; the box is
    always the checker's last box. Near a wall the box keeps the whole cell
    short of it, so a robot moving along the wall stays inside one box per
    cell.

    Hold horizon: a profile that does not slide stays at (x, y) in contact, and
    substep j tests the candidate (x, y) + d_j with d_j = R(theta_j) v_j delta.
    At the first contact of a step, with v, w the velocity there and c, cw the
    command, three bounds hold for that substep and every later one:

    - speed: |v_j| <= v_max = max(|v|, |c|) and |w_j| <= w_max = max(|w|, |cw|).
      Each substep moves the velocity toward the command by alpha times the
      remaining gap, so v_j lies on the segment from v to c, and the gap
      |c - v_j| never grows.
    - fall: each displacement is at most v_max * delta. If that stays below
      the fall gate the step cannot fall, and its contacts skip the fall test.
    - drift: |d_{j+1} - d_j| <= drift = delta * (alpha * |c - v| + w_max *
      delta * v_max): the velocity changes by alpha * |c - v_j| and the
      heading turns by |w_j| * delta.

    In a step that cannot fall, a contact whose candidate lies e from the
    centre of the blocked disc certifies the next m substeps blocked while
    e + m * drift < sqrt(b2). Those substeps only advance the velocity lag and
    the heading and record their contacts. Both bounds are padded well above
    their rounding, and the certificate's CERT_EPS covers the rounding of the
    candidates themselves. The answers, and so every output, are those of a
    test per substep.
    """
    checker = grid.collision_checker(spec.footprint_radius)
    certificate = checker.certificate
    x, y, th = pose.x, pose.y, pose.theta
    hit, box = certificate(x, y)
    if hit:
        raise InconsistentStateError(f"pose {pose} starts in collision")
    x0, y0, x1, y1 = box
    bx = by = b2 = 0.0
    n = config.substeps
    delta = 1.0 / n
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
    hold = None  # set at the first contact: True when the step holds and cannot fall
    ks = iter(range(n))
    for k in ks:
        vx += alpha * (cvx - vx)
        vy += alpha * (cvy - vy)
        w += alpha * (cw - w)
        c = cos(th)
        s = sin(th)
        th += w * delta
        nx = x + (vx * c - vy * s) * delta
        ny = y + (vx * s + vy * c) * delta
        if x0 < nx < x1 and y0 < ny < y1:
            x, y = nx, ny
            continue
        ex = nx - bx
        ey = ny - by
        e2 = ex * ex + ey * ey
        if e2 >= b2:
            hit, region = certificate(nx, ny)
            if not hit:
                x0, y0, x1, y1 = region
                x, y = nx, ny
                continue
            bx, by, b2 = nx, ny, region
            e2 = 0.0
        events.append(("contact", k))
        if hold is None:
            hold = False
            if not slide:
                vmax = max(math.hypot(vx, vy), math.hypot(cvx, cvy))
                if vmax * delta * _PAD_REL + _PAD_ABS < gate:
                    hold = True
                    wmax = max(abs(w), abs(cw))
                    drift = (delta * (alpha * math.hypot(cvx - vx, cvy - vy)
                                      + wmax * delta * vmax)) * _PAD_REL + _PAD_ABS
                    contacts = _contact_events(n)
        if hold:
            m = int((math.sqrt(b2) - math.sqrt(e2)) / drift)
            if m:
                for _ in itertools.islice(ks, m):
                    vx += alpha * (cvx - vx)
                    vy += alpha * (cvy - vy)
                    w += alpha * (cw - w)
                    th += w * delta
                events += contacts[k + 1:k + 1 + m]
            continue
        deep = math.hypot(nx - x, ny - y) > gate
        if slide:
            for px, py in ((nx, y), (x, ny)):
                if x0 < px < x1 and y0 < py < y1:
                    hit = False
                else:
                    ex = px - bx
                    ey = py - by
                    if ex * ex + ey * ey < b2:
                        hit = True
                    else:
                        hit, region = certificate(px, py)
                        if hit:
                            bx, by, b2 = px, py, region
                        else:
                            x0, y0, x1, y1 = region
                if not hit:
                    x, y = px, py
                    break
        if deep and checker.penetration(nx, ny) > fall_pen:
            events.append(("fall", k))
            break
    return Pose(x, y, wrap_angle(th)), VelocityCommand(vx, vy, w), events
