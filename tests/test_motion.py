import contextlib
import math
import types
from dataclasses import replace

import numpy as np
import pytest

from kinnav import motion
from kinnav.agents import AgentAction
from kinnav.motion import (PROFILES, DynamicLiteConfig, InconsistentStateError,
                           InvalidCommandError, Pose, VelocityCommand,
                           clamp_command, dynamic_lite_step, kinematic_step,
                           wrap_angle)
from kinnav.maps import random_maze
from kinnav.robots import A1, ALIENGO, SPOT
from kinnav.world import CERT_EPS, OccupancyGrid, load_world

from oracles import CountingLists, dynlite_reference_step, dynlite_scalar_oracle


def open_grid(n=60, cs=1.0):
    return OccupancyGrid(np.zeros((n, n), dtype=bool), cs)


# -- wrap / clamp ----------------------------------------------------------


def test_wrap_angle_range():
    for t in np.linspace(-20, 20, 401):
        w = wrap_angle(t)
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)


def test_clamp_limits():
    assert clamp_command(VelocityCommand(0.8, 0.0, 0.0), SPOT) == \
        VelocityCommand(0.5, 0.0, 0.0)
    c = VelocityCommand(0.2, -0.1, 0.1)
    assert clamp_command(c, SPOT) == c


def test_clamp_idempotent_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = VelocityCommand(*rng.uniform(-2, 2, 3))
        once = clamp_command(c, SPOT)
        assert clamp_command(once, SPOT) == once
        assert abs(once.vx) <= SPOT.lin_limit
        assert abs(once.vy) <= SPOT.lin_limit
        assert abs(once.w) <= SPOT.ang_limit


def test_clamp_nan_rejected():
    with pytest.raises(InvalidCommandError):
        clamp_command(VelocityCommand(float("nan"), 0.0, 0.0), SPOT)


def test_value_types_keep_fields_defaults_and_repr():
    assert repr(Pose(1.0, -2.5, 0.25)) == "Pose(x=1.0, y=-2.5, theta=0.25)"
    cmd = VelocityCommand(0.1, 0.0, -0.2)
    assert repr(cmd) == "VelocityCommand(vx=0.1, vy=0.0, w=-0.2)"
    assert repr(AgentAction(cmd)) == ("AgentAction(cmd=VelocityCommand(vx=0.1, vy=0.0, w=-0.2), "
                                      "stop=False)")
    with pytest.raises(AttributeError):
        cmd.vx = 0.3


def test_clamp_returns_in_range_command_itself():
    lin, ang = SPOT.lin_limit, SPOT.ang_limit
    rng = np.random.default_rng(1)
    inside = [VelocityCommand(*v) for v in rng.uniform(-1, 1, (200, 3)) * (lin, lin, ang)]
    inside += [VelocityCommand(lin, -lin, ang), VelocityCommand(-lin, lin, -ang),
               VelocityCommand(-0.0, 0.0, -0.0)]
    for c in inside:
        assert clamp_command(c, SPOT) is c
    c = VelocityCommand(lin, 0.0, math.nextafter(ang, math.inf))
    assert clamp_command(c, SPOT) == VelocityCommand(lin, 0.0, ang)
    for k in range(3):
        v = [0.0, 0.0, 0.0]
        v[k] = float("nan")
        with pytest.raises(InvalidCommandError):
            clamp_command(VelocityCommand(*v), SPOT)


# -- kinematic backend -----------------------------------------------------


def test_kinematic_forward():
    grid = open_grid()
    pose, blocked = kinematic_step(grid, Pose(30.0, 30.0, 0.0),
                                   VelocityCommand(0.5, 0.0, 0.0), SPOT)
    assert not blocked
    assert (pose.x, pose.y, pose.theta) == pytest.approx((30.5, 30.0, 0.0), abs=1e-12)


def test_kinematic_frame_rotation():
    grid = open_grid()
    pose, blocked = kinematic_step(grid, Pose(30.0, 30.0, math.pi / 2),
                                   VelocityCommand(0.5, 0.0, 0.3), SPOT)
    assert not blocked
    assert pose.x == pytest.approx(30.0, abs=1e-12)
    assert pose.y == pytest.approx(30.5, abs=1e-12)
    assert pose.theta == pytest.approx(math.pi / 2 + 0.3, abs=1e-12)


def test_kinematic_random_open_space_matches_euler():
    grid = open_grid()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x, y = rng.uniform(10, 50, 2)
        th = rng.uniform(-math.pi, math.pi)
        cmd = clamp_command(VelocityCommand(*rng.uniform(-0.6, 0.6, 3)), SPOT)
        pose, blocked = kinematic_step(grid, Pose(x, y, th), cmd, SPOT)
        assert not blocked
        ex = x + (cmd.vx * math.cos(th) - cmd.vy * math.sin(th))
        ey = y + (cmd.vx * math.sin(th) + cmd.vy * math.cos(th))
        assert pose.x == pytest.approx(ex, abs=1e-12)
        assert pose.y == pytest.approx(ey, abs=1e-12)
        assert pose.theta == pytest.approx(wrap_angle(th + cmd.w), abs=1e-12)
        # displacement never exceeds the commanded speed times the 1 s step
        disp = math.hypot(pose.x - x, pose.y - y)
        assert disp <= math.hypot(cmd.vx, cmd.vy) + 1e-12


def wall_grid():
    # cell column ix=5 occupied: wall slab x in [5, 6]
    rows = ["".join("#" if ix == 5 else "." for ix in range(10))] * 10
    return load_world("cell_size 1\n" + "\n".join(rows) + "\n")


def test_kinematic_block_in_place():
    grid = wall_grid()
    # footprint face 0.35 m from the wall face at x=5
    start = Pose(5.0 - SPOT.footprint_radius - 0.35, 5.0, 0.0)
    pose, blocked = kinematic_step(grid, start, VelocityCommand(0.5, 0.0, 0.2), SPOT)
    assert blocked
    assert (pose.x, pose.y) == (start.x, start.y)
    assert pose.theta == pytest.approx(0.2, abs=1e-12)  # heading still updates


def test_kinematic_determinism():
    grid = wall_grid()
    args = (Pose(2.2, 3.3, 0.7), VelocityCommand(0.4, -0.2, 0.1), SPOT)
    a = kinematic_step(grid, *args)
    b = kinematic_step(grid, *args)
    assert a == b


def test_kinematic_start_in_collision_raises():
    grid = wall_grid()
    with pytest.raises(InconsistentStateError):
        kinematic_step(grid, Pose(4.9, 5.0, 0.0), VelocityCommand(0.1, 0, 0), SPOT)


def test_kinematic_never_ends_in_collision():
    grid = wall_grid()
    checker = grid.collision_checker(SPOT.footprint_radius)
    rng = np.random.default_rng(5)
    pose = Pose(2.5, 5.0, 0.0)
    for _ in range(500):
        cmd = clamp_command(VelocityCommand(*rng.uniform(-0.6, 0.6, 3)), SPOT)
        pose, _ = kinematic_step(grid, pose, cmd, SPOT)
        assert not checker.blocked(pose.x, pose.y)
        assert -math.pi < pose.theta <= math.pi


# -- dynamic-lite backend --------------------------------------------------


def test_profiles_shipped():
    assert PROFILES["profile-A"].tau == 0.30
    assert PROFILES["profile-A"].slide_on_contact
    assert PROFILES["profile-B"].tau == 0.60
    assert not PROFILES["profile-B"].slide_on_contact
    for cfg in PROFILES.values():
        assert cfg.substeps == 240
        assert cfg.fall_penetration == 0.05


def test_config_invariants():
    with pytest.raises(ValueError):
        DynamicLiteConfig(tau=0.0)
    with pytest.raises(ValueError):
        DynamicLiteConfig(tau=0.3, substeps=0)
    for substeps in (2.5, 240.0, True, "240", None):
        with pytest.raises(ValueError):
            DynamicLiteConfig(tau=0.3, substeps=substeps)
    cfg = DynamicLiteConfig(tau=0.3, substeps=1)
    assert cfg.substeps == 1


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_config_rejects_a_non_finite_tau(tau):
    # tau = inf gives alpha = 0, so the robot would never follow a command
    with pytest.raises(ValueError, match="tau"):
        DynamicLiteConfig(tau=tau)
    with pytest.raises(ValueError, match="tau"):
        replace(PROFILES["profile-A"], tau=tau)


def test_fall_threshold_is_fixed():
    with pytest.raises(TypeError):
        DynamicLiteConfig(tau=0.3, fall_penetration=0.01)
    with pytest.raises(TypeError):
        replace(PROFILES["profile-B"], fall_penetration=0.01)


def test_dynlite_tau_equals_delta_matches_kinematic():
    grid = open_grid()
    substeps = 240
    cfg = DynamicLiteConfig(tau=1.0 / substeps, substeps=substeps)
    pose0 = Pose(30.0, 30.0, 0.4)
    cmd = VelocityCommand(0.4, -0.2, 0.0)  # zero w: heading identical either way
    k_pose, _ = kinematic_step(grid, pose0, cmd, SPOT)
    d_pose, vel, events = dynamic_lite_step(grid, pose0, cmd, cmd, cfg, SPOT)
    assert not events
    assert d_pose.x == pytest.approx(k_pose.x, abs=1e-6)
    assert d_pose.y == pytest.approx(k_pose.y, abs=1e-6)
    assert (vel.vx, vel.vy, vel.w) == pytest.approx((cmd.vx, cmd.vy, cmd.w), abs=1e-12)


def test_dynlite_velocity_lag_closed_form():
    grid = open_grid()
    cfg = DynamicLiteConfig(tau=1.0, substeps=240)
    cmd = VelocityCommand(0.5, 0.0, 0.0)
    pose, vel, events = dynamic_lite_step(
        grid, Pose(30.0, 30.0, 0.0), VelocityCommand(0.0, 0.0, 0.0), cmd, cfg, SPOT)
    assert not events
    expected = 0.5 * (1.0 - (1.0 - 1.0 / 240) ** 240)  # ~0.316444 m/s
    assert vel.vx == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.3164, abs=5e-4)


def test_dynlite_position_matches_scalar_oracle():
    grid = open_grid()
    for tau, substeps in ((1.0, 240), (0.3, 240), (0.6, 97)):
        cfg = DynamicLiteConfig(tau=tau, substeps=substeps)
        pose, vel, _ = dynamic_lite_step(
            grid, Pose(30.0, 30.0, 0.0), VelocityCommand(0.1, 0.0, 0.0),
            VelocityCommand(0.5, 0.0, 0.0), cfg, SPOT)
        ref_x, ref_v = dynlite_scalar_oracle(30.0, 0.1, 0.5, tau, substeps)
        assert pose.x == pytest.approx(ref_x, abs=1e-9)
        assert vel.vx == pytest.approx(ref_v, abs=1e-12)
        assert pose.y == pytest.approx(30.0, abs=1e-12)


def test_dynlite_contact_and_slide():
    # wall slab y in [5, 6]; approach diagonally from below
    rows = []
    for iy in range(10):
        rows.append("#" * 10 if iy == 5 else "." * 10)
    grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")
    start = Pose(3.0, 5.0 - SPOT.footprint_radius - 0.05, 0.0)
    cmd = VelocityCommand(0.4, 0.4, 0.0)
    slide_cfg = DynamicLiteConfig(tau=0.3, slide_on_contact=True)
    hold_cfg = DynamicLiteConfig(tau=0.3, slide_on_contact=False)
    p_slide, _, ev_slide = dynamic_lite_step(
        grid, start, VelocityCommand(0, 0, 0), cmd, slide_cfg, SPOT)
    p_hold, _, ev_hold = dynamic_lite_step(
        grid, start, VelocityCommand(0, 0, 0), cmd, hold_cfg, SPOT)
    assert any(e[0] == "contact" for e in ev_slide)
    assert any(e[0] == "contact" for e in ev_hold)
    assert not any(e[0] == "fall" for e in ev_slide + ev_hold)
    # sliding keeps making progress along the wall; holding stalls
    assert p_slide.x - start.x > p_hold.x - start.x + 0.05
    checker = grid.collision_checker(SPOT.footprint_radius)
    assert not checker.blocked(p_slide.x, p_slide.y)
    assert not checker.blocked(p_hold.x, p_hold.y)


def test_dynlite_fall_on_deep_penetration():
    rows = ["".join("#" if ix == 5 else "." for ix in range(10))] * 10
    grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")
    cfg = DynamicLiteConfig(tau=1.0, substeps=1, slide_on_contact=False)
    start = Pose(5.0 - SPOT.footprint_radius - 0.1, 5.0, 0.0)
    pose, vel, events = dynamic_lite_step(
        grid, start, VelocityCommand(0, 0, 0), VelocityCommand(0.5, 0, 0), cfg, SPOT)
    # single coarse substep drives the disc 0.4 m into the wall margin
    assert ("fall", 0) in events
    assert (pose.x, pose.y) == (start.x, start.y)


def test_dynlite_never_ends_in_collision():
    grid = wall_grid()
    checker = grid.collision_checker(SPOT.footprint_radius)
    rng = np.random.default_rng(8)
    pose = Pose(3.5, 5.0, 0.0)
    vel = VelocityCommand(0.0, 0.0, 0.0)
    cfg = DynamicLiteConfig(tau=0.3, substeps=40)
    for _ in range(200):
        cmd = clamp_command(VelocityCommand(*rng.uniform(-0.6, 0.6, 3)), SPOT)
        pose, vel, events = dynamic_lite_step(grid, pose, vel, cmd, cfg, SPOT)
        assert not checker.blocked(pose.x, pose.y)
        assert -math.pi < pose.theta <= math.pi
        if any(e[0] == "fall" for e in events):
            break


# -- certified collision queries vs the exact-per-substep reference ---------


def hugging_pose(checker, grid, rng):
    """A free pose a few ulps short of the blocked region, heading into it.

    Bisects blocked() along a random ray from a random free point; in a closed
    world every ray ends blocked, at an obstacle or at the grid edge.
    """
    x0, y0, x1, y1 = grid.extent
    while True:
        px, py = rng.uniform((x0, y0), (x1, y1)).tolist()
        if not checker.blocked(px, py):
            break
    return hug(checker, grid, px, py, rng.uniform(-math.pi, math.pi))


def hug(checker, grid, px, py, th):
    """The last free pose, to a few ulps, on the ray from free (px, py) at heading th."""
    ux, uy = math.cos(th), math.sin(th)
    lo, hi = 0.0, grid.cell_size
    while not checker.blocked(px + hi * ux, py + hi * uy):
        lo, hi = hi, hi + grid.cell_size
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if checker.blocked(px + mid * ux, py + mid * uy):
            hi = mid
        else:
            lo = mid
    return Pose(px + lo * ux, py + lo * uy, th)


def random_free_pose(checker, grid, rng):
    x0, y0, x1, y1 = grid.extent
    while True:
        px, py = rng.uniform((x0, y0), (x1, y1)).tolist()
        if not checker.blocked(px, py):
            return Pose(px, py, rng.uniform(-math.pi, math.pi))


@pytest.fixture(scope="module")
def dynlite_runs():
    """(grid, spec, cfg, start pose, velocity, cmd, new result, reference result) per step.

    Random mazes, random obstacle fields and an empty grid (only the
    closed-world edge to hit); Spot and A1; both profiles at
    1, 7 and 240 substeps. Starts are random free poses and poses hugging a
    wall or the edge; each runs a short chain of random commands, some with a
    fast initial velocity so that coarse substeps dig in deep enough to fall.
    """
    grids = [
        random_maze(24, 24, 0.25, seed=3),
        random_maze(32, 24, 0.3, seed=4),
        OccupancyGrid(np.random.default_rng(5).random((14, 14)) < 0.2, 0.5),
        OccupancyGrid(np.random.default_rng(6).random((20, 16)) < 0.35, 0.25),
        OccupancyGrid(np.zeros((6, 9), dtype=bool), 0.5),
    ]
    rng = np.random.default_rng(11)
    runs = []
    for grid in grids:
        for spec in (SPOT, A1):
            checker = grid.collision_checker(spec.footprint_radius)
            for name in sorted(PROFILES):
                for substeps in (1, 7, 240):
                    cfg = DynamicLiteConfig(PROFILES[name].tau, substeps,
                                            PROFILES[name].slide_on_contact)
                    starts = [random_free_pose(checker, grid, rng) for _ in range(2)]
                    starts += [hugging_pose(checker, grid, rng) for _ in range(4)]
                    for j, pose in enumerate(starts):
                        speed = 3.0 if j % 2 else 0.0
                        vel = VelocityCommand(speed * math.cos(pose.theta),
                                              speed * math.sin(pose.theta), 0.0)
                        for _ in range(4):
                            cmd = clamp_command(VelocityCommand(
                                rng.uniform(0.0, 0.6), rng.uniform(-0.3, 0.3),
                                rng.uniform(-0.4, 0.4)), spec)
                            new = dynamic_lite_step(grid, pose, vel, cmd, cfg, spec)
                            ref = dynlite_reference_step(grid, pose, vel, cmd, cfg, spec)
                            runs.append((grid, spec, cfg, pose, vel, cmd, new, ref))
                            pose, vel, events = ref
                            if events and events[-1][0] == "fall":
                                break
    return runs


def test_dynlite_matches_exact_reference(dynlite_runs):
    for grid, spec, cfg, pose, vel, cmd, new, ref in dynlite_runs:
        assert new == ref, (cfg, pose, vel, cmd)
    events = [e for *_, (_, _, ev) in dynlite_runs for e in ev]
    assert sum(kind == "fall" for kind, _ in events) >= 10
    assert sum(kind == "contact" for kind, _ in events) >= 1000
    # steps where sliding moved the robot: holding instead ends elsewhere
    slid = [ref for grid, spec, cfg, pose, vel, cmd, _, ref in dynlite_runs
            if cfg.slide_on_contact and ref[2] and ref[0] != dynlite_reference_step(
                grid, pose, vel, cmd, replace(cfg, slide_on_contact=False), spec)[0]]
    assert len(slid) >= 10
    # starts whose clearance is within CERT_EPS of the radius get no free box
    edge = [pose for grid, spec, _, pose, *_ in dynlite_runs
            if abs(grid.collision_checker(spec.footprint_radius).nearest(pose.x, pose.y)
                   - spec.footprint_radius) < CERT_EPS]
    assert len(edge) >= 50


def test_wall_parallel_steps_read_one_cell_list():
    # 1 mm clear of a wall and moving along it, every substep stays in the
    # free box built at the start (the cell, cut at the wall): a profile-B
    # step and a profile-A step read the cell lists at most three times,
    # where a free disc as wide as the gap needs a query almost every substep
    grid = wall_grid()
    checker = grid.collision_checker(SPOT.footprint_radius)
    touch = hug(checker, grid, 3.0, 5.1, 0.0)
    pose = Pose(touch.x - 0.001, touch.y, math.pi / 2)
    assert 0.0009 < checker.nearest(pose.x, pose.y) - SPOT.footprint_radius < 0.0011
    vel = VelocityCommand(0.0, 0.0, 0.0)
    cmd = VelocityCommand(SPOT.lin_limit, 0.0, 0.0)
    checker._lists = lists = CountingLists(checker._lists)
    reads = 0
    for cfg in (PROFILES["profile-B"], PROFILES["profile-A"]):
        before = lists.reads
        out = dynamic_lite_step(grid, pose, vel, cmd, cfg, SPOT)
        reads += lists.reads - before
        assert out == dynlite_reference_step(grid, pose, vel, cmd, cfg, SPOT)
        new, vel, events = out
        assert events == [] and new.y > pose.y + 0.2
        assert grid.world_to_cell(new.x, new.y) == grid.world_to_cell(pose.x, pose.y)
        pose = new
    assert reads <= 3


def test_dynlite_event_order(dynlite_runs):
    # NavEnv reads blocked as bool(events) and a fall as the last event
    for *_, (_, _, events), _ in dynlite_runs:
        kinds = [kind for kind, _ in events]
        steps = [k for _, k in events]
        if "fall" in kinds:
            assert kinds.count("fall") == 1 and kinds[-1] == "fall"
            assert len(kinds) >= 2 and kinds[-2] == "contact" and steps[-2] == steps[-1]
            kinds, steps = kinds[:-1], steps[:-1]
        assert set(kinds) <= {"contact"}
        assert steps == sorted(set(steps))


# -- the hold horizon: contacts certified blocked ahead of time -------------


@contextlib.contextmanager
def counting_cos():
    """Count the candidates dynamic_lite_step evaluates: one cos per tested substep."""
    calls = [0]

    def cos(t):
        calls[0] += 1
        return math.cos(t)

    fake = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                    if not k.startswith("_")})
    fake.cos = cos
    saved = motion.math
    motion.math = fake
    try:
        yield calls
    finally:
        motion.math = saved


def hold_grids():
    """A wall slab, an L-shaped inner corner, a random maze and a bare grid edge."""
    corner = load_world("cell_size 0.5\n" + "\n".join([
        "..........",
        "..........",
        "..######..",
        "..#.......",
        "..#.......",
        "..#.......",
        "..........",
    ]) + "\n")
    return [wall_grid(), corner, random_maze(24, 24, 0.25, seed=13),
            OccupancyGrid(np.zeros((8, 8), dtype=bool), 0.5)]


def hold_starts(checker, grid, rng):
    """Poses hugging walls, corners and the grid edge, each heading into its contact.

    Three rays from free points of a 3x3 lattice, toward a side or a
    diagonal; a diagonal into a concave corner (the grid's own, or the L's
    inner one) ends touching both walls. Plus one random hugging pose.
    """
    x0, y0, x1, y1 = grid.extent
    free = [(px, py) for px in np.linspace(x0, x1, 5)[1:-1].tolist()
            for py in np.linspace(y0, y1, 5)[1:-1].tolist() if not checker.blocked(px, py)]
    starts = []
    for i in rng.choice(8 * len(free), size=3, replace=False).tolist():
        px, py = free[i // 8]
        starts.append(hug(checker, grid, px, py, wrap_angle((i % 8) * math.pi / 4 + 1e-3)))
    return starts + [hugging_pose(checker, grid, rng)]


def hold_commands(spec, rng):
    """(start velocity, command) pairs, body frame; +x presses into the contact.

    Pressing from rest, reversals of the start velocity along and across the
    heading, turns at |w| = ang_limit that swing a grazing velocity off the
    wall, and random commands.
    """
    lin, ang = spec.lin_limit, spec.ang_limit
    zero = VelocityCommand(0.0, 0.0, 0.0)
    graze = 0.15 * lin
    pairs = [
        (zero, VelocityCommand(lin, 0.0, 0.0)),
        (VelocityCommand(lin, 0.0, 0.0), VelocityCommand(-lin, 0.0, 0.0)),
        (VelocityCommand(-lin, 0.0, 0.0), VelocityCommand(lin, 0.0, 0.0)),
        (VelocityCommand(1.5, 0.0, 0.0), VelocityCommand(-lin, 0.3 * lin, 0.0)),
        (VelocityCommand(0.3 * lin, lin, 0.0), VelocityCommand(0.3 * lin, -lin, 0.0)),
        (VelocityCommand(lin, 0.0, -ang), VelocityCommand(lin, 0.0, ang)),
        (VelocityCommand(graze, lin, ang), VelocityCommand(graze, lin, ang)),
        (VelocityCommand(graze, -lin, -ang), VelocityCommand(graze, -lin, -ang)),
        (VelocityCommand(0.5 * graze, lin, 0.0), VelocityCommand(0.5 * graze, lin, ang)),
    ]
    pairs.append((clamp_command(VelocityCommand(*rng.uniform(-1, 1, 3)), spec),
                  clamp_command(VelocityCommand(*rng.uniform(-1, 1, 3)), spec)))
    return pairs


@pytest.fixture(scope="module")
def hold_runs():
    """(cfg, start pose, velocity, cmd, new result, reference result, candidates) per step.

    Non-sliding configs at 24, 60 and 240 substeps (profile B's tau and a
    faster one), Spot, AlienGo and A1, from hugging starts; each (velocity,
    command) pair runs two steps, the second from the first's end state.
    candidates counts the substeps dynamic_lite_step tested.
    """
    rng = np.random.default_rng(21)
    runs = []
    with counting_cos() as calls:
        for grid in hold_grids():
            for spec in (SPOT, ALIENGO, A1):
                checker = grid.collision_checker(spec.footprint_radius)
                for substeps in (24, 60, 240):
                    for tau in (PROFILES["profile-B"].tau, 0.15):
                        cfg = DynamicLiteConfig(tau, substeps, slide_on_contact=False)
                        for start in hold_starts(checker, grid, rng):
                            for vel, cmd in hold_commands(spec, rng):
                                pose = start
                                for _ in range(2):
                                    before = calls[0]
                                    new = dynamic_lite_step(grid, pose, vel, cmd, cfg, spec)
                                    tested = calls[0] - before
                                    ref = dynlite_reference_step(grid, pose, vel, cmd, cfg, spec)
                                    runs.append((cfg, pose, vel, cmd, new, ref, tested))
                                    pose, vel, _ = ref
    return runs


def test_hold_horizon_matches_exact_reference(hold_runs):
    for cfg, pose, vel, cmd, new, ref, _ in hold_runs:
        assert new == ref, (cfg, pose, vel, cmd)
    substeps = sum(cfg.substeps for cfg, *_ in hold_runs)
    tested = sum(run[-1] for run in hold_runs)
    contacts = sum(len(ref[2]) for *_, ref, _ in hold_runs)
    # the horizon skipped most contacts, and many steps let go of the wall in time
    assert substeps - tested > 0.8 * contacts > 0.4 * substeps
    left = [ref for cfg, *_, ref, _ in hold_runs
            if ref[2] and ref[2][-1] != ("contact", cfg.substeps - 1)]
    assert len(left) >= 300


def test_hold_horizon_skips_most_candidates_against_a_wall():
    grid = wall_grid()
    for spec in (SPOT, ALIENGO, A1):
        checker = grid.collision_checker(spec.footprint_radius)
        pose = hug(checker, grid, 3.0, 5.0, 0.0)
        lin = spec.lin_limit
        press = VelocityCommand(lin, 0.0, 0.0)
        runs = [(PROFILES["profile-B"], VelocityCommand(0.0, 0.0, 0.0), press),
                # backing off, then pressing again: the horizon's bounds come from
                # the velocity at the first contact, far closer to the command than
                # the start velocity, so the held run tests few of its substeps
                (DynamicLiteConfig(0.15, slide_on_contact=False), VelocityCommand(-lin, 0, 0),
                 press)]
        for cfg, vel, cmd in runs:
            with counting_cos() as calls:
                out = dynamic_lite_step(grid, pose, vel, cmd, cfg, spec)
            assert out == dynlite_reference_step(grid, pose, vel, cmd, cfg, spec)
            contacts = [k for _, k in out[2]]
            assert contacts == list(range(contacts[0], cfg.substeps))
            free = contacts[0]
            assert calls[0] - free < 0.2 * len(contacts), (spec.name, cfg, calls[0], free)


def test_hold_horizon_off_where_sliding_or_falls_are_possible():
    grid = wall_grid()
    checker = grid.collision_checker(SPOT.footprint_radius)
    pose = hug(checker, grid, 3.0, 5.0, 0.0)
    rest = VelocityCommand(0.0, 0.0, 0.0)
    press = VelocityCommand(SPOT.lin_limit, 0.0, 0.0)
    # profile A slides; at 1 to 8 substeps a substep may dig in by more than
    # fall_penetration, so every substep up to the end or the fall is tested
    runs = [(PROFILES["profile-A"], rest, press)]
    runs += [(DynamicLiteConfig(0.6, n, slide_on_contact=False), vel, press)
             for n in (1, 4, 8) for vel in (rest, press)]
    # the bound alone turns the horizon off: this step comes within 0.01 m of a fall
    runs.append((DynamicLiteConfig(0.6, 8, slide_on_contact=False), rest,
                 VelocityCommand(0.42, 0.0, 0.0)))
    falls = 0
    for cfg, vel, cmd in runs:
        with counting_cos() as calls:
            out = dynamic_lite_step(grid, pose, vel, cmd, cfg, SPOT)
        assert out == dynlite_reference_step(grid, pose, vel, cmd, cfg, SPOT)
        contacts = [k for kind, k in out[2] if kind == "contact"]
        assert contacts == list(range(calls[0])), (cfg, vel, cmd)
        fell = len(out[2]) - len(contacts)
        assert fell or len(contacts) == cfg.substeps
        falls += fell
    # every coarse non-sliding press falls; profile A and the slower command do not
    assert falls == len(runs) - 2
