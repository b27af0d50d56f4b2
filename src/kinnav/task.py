"""PointGoal episode loop: observations, reward, termination, and metrics."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import world as world_mod
from .motion import (DynamicLiteConfig, Pose, VelocityCommand, clamp_command,
                     dynamic_lite_step, kinematic_step, wrap_angle)
from .noise import apply_noise
from .tables import read_table, write_table

# Real-world protocol: a step counts as a collision when the footprint comes
# within this margin of any obstacle.
PROXIMITY_MARGIN = 0.20

TRAJ_TYPES = {"step": int, "x": float, "y": float, "theta": float,
              "cmd_vx": float, "cmd_vy": float, "cmd_w": float,
              "applied_vx": float, "applied_vy": float, "applied_w": float,
              "dgeo": float, "reward": float, "blocked": int, "clearance": float}


class EpisodeFinishedError(RuntimeError):
    """step() was called after the episode terminated."""


class InvalidEpisodeError(ValueError):
    """Episode data violates its invariants."""


@dataclass(frozen=True)
class KinematicBackend:
    """The kinematic backend: one `kinematic_step` per control step.

    step(grid, pose, vel, cmd, spec) -> (pose, vel, events). The command it
    was given is its velocity, and events is [("contact", 0)] on a blocked
    step and [] otherwise.
    """

    def step(self, grid, pose, vel, cmd, spec):
        new_pose, blocked = kinematic_step(grid, pose, cmd, spec)
        return new_pose, cmd, [("contact", 0)] if blocked else []


@dataclass(frozen=True)
class DynamicLiteBackend:
    """The dynamic-lite backend with one config: one `dynamic_lite_step` per control step."""

    config: DynamicLiteConfig

    def step(self, grid, pose, vel, cmd, spec):
        return dynamic_lite_step(grid, pose, vel, cmd, self.config, spec)


KINEMATIC = KinematicBackend()


@dataclass(frozen=True)
class Episode:
    """One navigation problem: start pose, goal point, and its geodesic length."""

    episode_id: int
    scene_id: str
    start: Pose
    goal: tuple
    geodesic_distance: float


class RewardConfig:
    """The reward's fixed penalty terms, as class constants that reward() reads.

    Geodesic progress always enters with weight 1. Nothing sets the terms:
    RewardConfig() takes no arguments.
    """

    coll = -0.03
    fall = -5.0
    success = 10.0
    slack = -0.002
    backward = -0.03


@dataclass(frozen=True)
class SensorConfig:
    """Depth-scan fan and goal-vector sensor settings."""

    n_rays: int = 64
    fov: float = math.pi / 2
    max_range: float = 10.0
    expose_pose: bool = False

    def __post_init__(self):
        if (not isinstance(self.n_rays, int) or isinstance(self.n_rays, bool)
                or self.n_rays < 1):
            raise ValueError("n_rays must be a positive int")
        if not (self.fov > 0 and math.isfinite(self.fov)):
            raise ValueError("fov must be positive and finite")
        # inf is a valid range: the closed world ends every ray
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")


class Observation:
    """Egocentric observation: goal polar vector plus a lazily computed depth fan.

    `pose` is only populated for privileged agents when the environment is
    configured with expose_pose; learned policies must not rely on it.
    """

    __slots__ = ("goal_vector", "pose", "_depth_fn", "_depth")

    def __init__(self, goal_vector, depth_fn, pose=None):
        self.goal_vector = goal_vector
        self.pose = pose
        self._depth_fn = depth_fn
        self._depth = None

    @property
    def depth(self):
        if self._depth is None:
            self._depth = self._depth_fn()
        return self._depth


def depth_fan(grid, pose, cfg):
    """Raycast fan over the field of view, centered on the robot heading.

    n_rays angles from pose.theta - fov / 2 to pose.theta + fov / 2
    (counter-clockwise), each one exact `world.raycast` call from the pose.
    """
    angles = (pose.theta + np.linspace(-cfg.fov / 2, cfg.fov / 2, cfg.n_rays)).tolist()
    origin = (pose.x, pose.y)
    return np.array([world_mod.raycast(grid, origin, a, cfg.max_range) for a in angles])


def observe(grid, pose, goal, cfg):
    dx = goal[0] - pose.x
    dy = goal[1] - pose.y
    rho = math.hypot(dx, dy)
    phi = wrap_angle(math.atan2(dy, dx) - pose.theta)
    return Observation(
        (rho, phi),
        lambda: depth_fan(grid, pose, cfg),
        pose=pose if cfg.expose_pose else None,
    )


def reward(prev_dgeo, new_dgeo, blocked, cmd, terminal):
    """Shaped navigation reward: geodesic progress plus the RewardConfig penalty terms."""
    r = (prev_dgeo - new_dgeo) + RewardConfig.slack
    if blocked:
        r += RewardConfig.coll
    if terminal == "fall":
        r += RewardConfig.fall
    elif terminal == "success":
        r += RewardConfig.success
    if cmd.vx < 0:
        r += RewardConfig.backward
    return r


def compute_spl(success, geodesic, path_length):
    """Success weighted by path length: S * l / max(p, l)."""
    if not geodesic > 0:
        raise InvalidEpisodeError("geodesic distance must be positive")
    if path_length < 0:
        raise InvalidEpisodeError("path length must be non-negative")
    if not success:
        return 0.0
    return geodesic / max(path_length, geodesic)


@dataclass
class EpisodeResult:
    success: bool
    spl: float
    num_actions: int
    num_collisions: int
    path_length: float
    total_reward: float
    termination_reason: str
    trajectory: list = field(default_factory=list)


class NavEnv:
    """One PointGoal environment: grid + robot + backend + episode state.

    Owned by a single execution context at a time; stepping is synchronous.
    The agent issues a VelocityCommand (or AgentAction with a stop flag) once
    per 1 s control period, and the reward uses the fixed RewardConfig terms.
    step() returns an info dict with the keys "blocked", "dgeo", "r_geo" and
    "reason".

    backend is any object with a step(grid, pose, vel, cmd, spec) -> (pose,
    vel, events) method, such as KINEMATIC (the default) or a
    DynamicLiteBackend. A step is blocked when events is not empty and falls
    when its last event is a "fall"; the velocity it returns is the step's
    applied velocity.

    With record_trajectory=True every step appends a TRAJ_TYPES record,
    including the exact clearance at the new pose, to the episode's
    trajectory; otherwise the trajectory stays empty and no step pays for it.
    """

    def __init__(self, grid, spec, backend=KINEMATIC, noise_model=None, rng=None,
                 sensor=SensorConfig(), record_trajectory=False):
        if noise_model is not None and rng is None:
            raise ValueError("noise injection needs an rng")
        self.grid = grid
        self.spec = spec
        self.backend = backend
        self.noise_model = noise_model
        self.rng = rng
        self.sensor = sensor
        self.record_trajectory = record_trajectory
        self._checker = grid.collision_checker(spec.footprint_radius)
        self.episode = None

    def reset(self, episode, dist_field):
        """Start an episode; dist_field is its goal's field for the robot's footprint."""
        self.episode = episode
        self.field = dist_field
        self.pose = episode.start
        self.actual_vel = VelocityCommand(0.0, 0.0, 0.0)
        self.prev_dgeo = dist_field.value_at(episode.start.x, episode.start.y)
        self.done = False
        self.reason = None
        self.num_actions = 0
        self.num_collisions = 0
        self.path_length = 0.0
        self.total_reward = 0.0
        self.trajectory = []
        if self._checker.blocked(episode.start.x, episode.start.y):
            raise InvalidEpisodeError(f"start pose of episode {episode.episode_id} in collision")
        return self._observe()

    def _observe(self):
        return observe(self.grid, self.pose, self.episode.goal, self.sensor)

    def _is_slow(self, cmd):
        return (max(abs(cmd.vx), abs(cmd.vy)) < 0.1 * self.spec.lin_limit
                and abs(cmd.w) < 0.1 * self.spec.ang_limit)

    def step(self, action):
        """Clamp -> noise -> backend step -> reward -> termination -> metrics."""
        if self.episode is None:
            raise EpisodeFinishedError("call reset() first")
        if self.done:
            raise EpisodeFinishedError("episode already terminated")
        stop = bool(getattr(action, "stop", False))
        cmd = getattr(action, "cmd", action)
        cmd = clamp_command(cmd, self.spec)

        fell = False
        blocked = False
        if stop:
            applied = VelocityCommand(0.0, 0.0, 0.0)
            new_pose = self.pose
        else:
            applied = cmd
            if self.noise_model is not None:
                applied = apply_noise(cmd, self.noise_model, self.rng)
            new_pose, applied, events = self.backend.step(
                self.grid, self.pose, self.actual_vel, applied, self.spec)
            self.actual_vel = applied
            # every event list opens with a contact, and a fall ends it
            blocked = bool(events)
            fell = blocked and events[-1][0] == "fall"

        step_dist = math.hypot(new_pose.x - self.pose.x, new_pose.y - self.pose.y)
        self.pose = new_pose
        self.num_actions += 1
        self.path_length += step_dist

        new_dgeo = self.field.value_at(self.pose.x, self.pose.y)
        obs = self._observe()
        within = obs.goal_vector[0] <= self.spec.success_radius

        terminal = "none"
        if fell:
            self.done, self.reason, terminal = True, "fall", "fall"
        elif within and (stop or self._is_slow(cmd)):
            self.done, self.reason, terminal = True, "success", "success"
        elif stop:
            # explicit stop away from the goal ends the episode unsuccessfully
            self.done, self.reason = True, "stop"
        elif self.num_actions >= self.spec.max_steps:
            self.done, self.reason = True, "step_budget"

        r = reward(self.prev_dgeo, new_dgeo, blocked, cmd, terminal)
        r_geo = self.prev_dgeo - new_dgeo
        self.prev_dgeo = new_dgeo
        self.total_reward += r

        if self._checker.near(self.pose.x, self.pose.y, PROXIMITY_MARGIN):
            self.num_collisions += 1

        if self.record_trajectory:
            self.trajectory.append({
                "step": self.num_actions, "x": self.pose.x, "y": self.pose.y,
                "theta": self.pose.theta, "cmd_vx": cmd.vx, "cmd_vy": cmd.vy,
                "cmd_w": cmd.w, "applied_vx": applied.vx, "applied_vy": applied.vy,
                "applied_w": applied.w, "dgeo": new_dgeo, "reward": r,
                "blocked": int(blocked),
                "clearance": self.grid.clearance(self.pose.x, self.pose.y),
            })
        info = {"blocked": blocked, "dgeo": new_dgeo, "r_geo": r_geo, "reason": self.reason}
        return obs, r, self.done, info

    def result(self):
        success = self.reason == "success"
        return EpisodeResult(
            success=success,
            spl=compute_spl(success, self.episode.geodesic_distance, self.path_length),
            num_actions=self.num_actions,
            num_collisions=self.num_collisions,
            path_length=self.path_length,
            total_reward=self.total_reward,
            termination_reason=self.reason,
            trajectory=self.trajectory,
        )


def write_trajectory(records, path_or_stream):
    """CSV trajectory log, one TRAJ_TYPES row per step."""
    write_table(path_or_stream, TRAJ_TYPES, records)


def read_trajectory(path_or_stream):
    return read_table(path_or_stream, TRAJ_TYPES)
