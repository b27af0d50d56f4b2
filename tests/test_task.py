import io
import math

import numpy as np
import pytest

from kinnav.agents import STOP, AgentAction, ConstantAgent, OracleAgent, RandomAgent
from kinnav.episodes import sample_episodes
from kinnav.maps import random_maze
from kinnav.motion import PROFILES, Pose, VelocityCommand
from kinnav.noise import reference_model
from kinnav.robots import SPOT
from kinnav.task import (KINEMATIC, PROXIMITY_MARGIN, DynamicLiteBackend, Episode,
                         EpisodeFinishedError, InvalidEpisodeError, NavEnv, RewardConfig,
                         SensorConfig, compute_spl, depth_fan, observe, read_trajectory,
                         reward, write_trajectory)
from kinnav.world import OccupancyGrid, distance_field, load_world

from oracles import CountingLists, raycast_reference


def open_grid(n=40, cs=1.0):
    return OccupancyGrid(np.zeros((n, n), dtype=bool), cs)


# -- observations ----------------------------------------------------------


def test_goal_vector_geometry():
    grid = open_grid()
    obs = observe(grid, Pose(10.0, 10.0, 0.0), (11.0, 11.0), SensorConfig())
    rho, phi = obs.goal_vector
    assert rho == pytest.approx(math.sqrt(2), abs=1e-12)
    assert phi == pytest.approx(math.pi / 4, abs=1e-12)


def test_goal_vector_facing_goal():
    grid = open_grid()
    obs = observe(grid, Pose(10.0, 10.0, math.pi / 4), (11.0, 11.0), SensorConfig())
    assert obs.goal_vector[1] == 0.0


def test_depth_fan_shape_and_range():
    grid = load_world("cell_size 1\n" + "\n".join(["......"] * 6) + "\n")
    cfg = SensorConfig(n_rays=32, max_range=2.5)
    obs = observe(grid, Pose(3.0, 3.0, 0.4), (5.0, 5.0), cfg)
    depth = obs.depth
    assert depth.shape == (32,)
    assert np.all(depth >= 0) and np.all(depth <= 2.5)


def test_depth_fan_mirror_reversal():
    grid = load_world("cell_size 1\n"
                      "########\n"
                      "#..#...#\n"
                      "#......#\n"
                      "#....#.#\n"
                      "########\n")
    mirrored = OccupancyGrid(np.array(grid.cells[:, ::-1]), grid.cell_size)
    cfg = SensorConfig(n_rays=16, max_range=8.0)
    pose = Pose(3.25, 2.5, math.pi / 2)
    w = grid.width * grid.cell_size
    pose_m = Pose(w - pose.x, pose.y, math.pi - pose.theta)
    d = observe(grid, pose, (1.0, 1.0), cfg).depth
    dm = observe(mirrored, pose_m, (1.0, 1.0), cfg).depth
    assert np.allclose(dm, d[::-1], atol=1e-9)


def _noisy_spot_poses(grid, n_episodes, steps):
    """Poses along oracle rollouts under Spot's coupled actuation noise."""
    ds = sample_episodes(grid, n_episodes, seed=3, largest_spec=SPOT)
    poses = []
    for k, ep in enumerate(ds.episodes):
        field = distance_field(grid, ep.goal, SPOT.footprint_radius)
        env = NavEnv(grid, SPOT, noise_model=reference_model("coupled"),
                     rng=np.random.default_rng(k), sensor=SensorConfig(expose_pose=True))
        agent = OracleAgent(field, SPOT)
        obs = env.reset(ep, field)
        memory = agent.reset()
        poses.append(env.pose)
        for _ in range(steps):
            action, memory = agent.act(obs, memory)
            obs, _, done, _ = env.step(action)
            poses.append(env.pose)
            if done:
                break
    return poses


@pytest.mark.parametrize("cfg", [SensorConfig(), SensorConfig(n_rays=7, fov=2.5, max_range=1.3),
                                 SensorConfig(n_rays=1, fov=0.1, max_range=math.inf)],
                         ids=["default", "narrow-short", "one-ray-unbounded"])
def test_depth_fan_equals_reference_fan(cfg):
    grid = random_maze(33, 33, 0.25, seed=31)
    poses = _noisy_spot_poses(grid, 4, 40)
    assert len(poses) > 100
    # off the cell lattice, as noise leaves the robot
    assert sum((p.x, p.y) != grid.cell_center(*grid.world_to_cell(p.x, p.y))
               for p in poses) > 50
    for pose in poses:
        angles = pose.theta + np.linspace(-cfg.fov / 2, cfg.fov / 2, cfg.n_rays)
        ref = np.array([raycast_reference(grid, (pose.x, pose.y), a, cfg.max_range)
                        for a in angles])
        got = depth_fan(grid, pose, cfg)
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist(), pose


def test_depth_fan_unbounded_range_ends_at_the_world_edge():
    grid = open_grid(8)
    depth = depth_fan(grid, Pose(4.0, 4.0, 0.0), SensorConfig(n_rays=5, max_range=math.inf))
    assert np.isfinite(depth).all()
    assert depth[2] == 4.0


@pytest.mark.parametrize("kwargs, field", [
    ({"n_rays": 0}, "n_rays"), ({"n_rays": -3}, "n_rays"), ({"n_rays": 4.0}, "n_rays"),
    ({"n_rays": True}, "n_rays"), ({"n_rays": "64"}, "n_rays"),
    ({"fov": 0.0}, "fov"), ({"fov": -1.0}, "fov"), ({"fov": math.nan}, "fov"),
    ({"fov": math.inf}, "fov"),
    ({"max_range": 0.0}, "max_range"), ({"max_range": -2.0}, "max_range"),
    ({"max_range": math.nan}, "max_range"), ({"max_range": -math.inf}, "max_range"),
])
def test_sensor_config_rejects_bad_values(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        SensorConfig(**kwargs)


def test_sensor_config_accepts_unbounded_range():
    assert SensorConfig(n_rays=1, fov=0.5, max_range=math.inf).max_range == math.inf


def test_pose_only_exposed_when_configured():
    grid = open_grid()
    pose = Pose(5.0, 5.0, 0.0)
    assert observe(grid, pose, (6.0, 6.0), SensorConfig()).pose is None
    assert observe(grid, pose, (6.0, 6.0),
                   SensorConfig(expose_pose=True)).pose == pose


# -- reward ----------------------------------------------------------------


def test_reward_progress_spot_value():
    r = reward(5.0, 4.5, False, VelocityCommand(0.3, 0, 0), "none")
    assert r == pytest.approx(0.498, abs=1e-12)


def test_reward_blocked_backward_spot_value():
    r = reward(4.0, 4.0, True, VelocityCommand(-0.2, 0, 0), "none")
    assert r == pytest.approx(-0.062, abs=1e-12)


def test_reward_success_spot_value():
    r = reward(0.3, 0.0, False, VelocityCommand(0.1, 0, 0), "success")
    assert r == pytest.approx(10.298, abs=1e-12)


def test_reward_fall():
    r = reward(2.0, 2.0, True, VelocityCommand(0.2, 0, 0), "fall")
    assert r == pytest.approx(-0.03 - 5.0 - 0.002, abs=1e-12)


def test_reward_terms_are_fixed():
    with pytest.raises(TypeError):
        RewardConfig(coll=-1.0)


# -- SPL -------------------------------------------------------------------


def test_spl_values():
    assert compute_spl(True, 10.0, 10.0) == 1.0
    assert compute_spl(False, 10.0, 3.0) == 0.0
    assert compute_spl(True, 10.0, 12.5) == pytest.approx(0.8, abs=1e-12)
    assert compute_spl(True, 10.0, 5.0) == 1.0  # p < geodesic caps at 1


def test_spl_errors():
    with pytest.raises(InvalidEpisodeError):
        compute_spl(True, 0.0, 1.0)
    with pytest.raises(InvalidEpisodeError):
        compute_spl(True, 1.0, -0.1)


# -- episode loop ----------------------------------------------------------


def make_episode(start, goal, field):
    six, siy = field.grid.world_to_cell(start.x, start.y)
    # keep the recorded geodesic positive even for synthetic near-goal starts
    return Episode(0, "test", start, goal, max(float(field.values[siy, six]), 1.0))


def test_success_by_slowing():
    grid = open_grid()
    goal = (20.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    ep = make_episode(Pose(20.5, 20.2, 0.0), goal, field)
    env.reset(ep, field)
    _, r, done, info = env.step(VelocityCommand(0.01, 0.0, 0.0))
    assert done and info["reason"] == "success"
    res = env.result()
    assert res.success and res.termination_reason == "success"


def test_success_by_stop_action():
    grid = open_grid()
    goal = (20.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(20.5, 20.2, 0.0), goal, field), field)
    _, _, done, info = env.step(STOP)
    assert done and info["reason"] == "success"
    # stop consumes an action but does not move
    assert env.result().num_actions == 1
    assert env.result().path_length == 0.0


def test_stop_away_from_goal_fails():
    grid = open_grid()
    goal = (30.5, 30.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(10.5, 10.5, 0.0), goal, field), field)
    _, _, done, info = env.step(STOP)
    assert done and info["reason"] == "stop"
    assert not env.result().success
    assert env.result().spl == 0.0


def test_fast_pass_through_goal_not_success():
    grid = open_grid()
    goal = (20.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(20.5, 20.2, math.pi / 2), goal, field), field)
    # full-speed command while inside the radius: not a stop, keeps going
    _, _, done, info = env.step(VelocityCommand(0.5, 0.0, 0.0))
    assert not done


def test_step_budget_termination():
    grid = open_grid()
    goal = (30.5, 30.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(5.5, 5.5, 0.0), goal, field), field)
    done = False
    n = 0
    while not done:
        _, _, done, info = env.step(VelocityCommand(0.0, 0.0, 0.3))
        n += 1
    assert info["reason"] == "step_budget"
    assert n == SPOT.max_steps
    res = env.result()
    assert not res.success and res.num_actions == SPOT.max_steps


def test_step_after_done_raises():
    grid = open_grid()
    goal = (20.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(20.5, 20.2, 0.0), goal, field), field)
    env.step(STOP)
    with pytest.raises(EpisodeFinishedError):
        env.step(STOP)
    env2 = NavEnv(grid, SPOT)
    with pytest.raises(EpisodeFinishedError):
        env2.step(STOP)


def test_invalid_start_rejected():
    grid = load_world("cell_size 1\n" + "\n".join(
        "".join("#" if ix == 5 else "." for ix in range(12)) for _ in range(12)) + "\n")
    goal = (1.5, 1.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    with pytest.raises(InvalidEpisodeError):
        env.reset(Episode(0, "t", Pose(4.9, 5.5, 0.0), goal, 3.0), field)


def test_reward_telescoping_and_path_length():
    grid = random_maze(40, 40, 0.25, seed=21)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= SPOT.footprint_radius))
    gy, gx = ok[0]
    goal = grid.cell_center(int(gx), int(gy))
    field = distance_field(grid, goal, SPOT.footprint_radius)
    sy, sx = ok[len(ok) // 2]
    if not math.isfinite(field.values[sy, sx]):
        pytest.skip("start unreachable on this seed")
    start = Pose(*grid.cell_center(int(sx), int(sy)), 0.3)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(start, goal, field), field)
    d0 = field.value_at(start.x, start.y)
    agent = RandomAgent(SPOT, np.random.default_rng(17))
    geo_sum = 0.0
    disp_sum = 0.0
    prev = (start.x, start.y)
    for _ in range(60):
        action, _ = agent.act(None, None)
        _, _, done, info = env.step(action.cmd)
        geo_sum += info["r_geo"]
        disp_sum += math.hypot(env.pose.x - prev[0], env.pose.y - prev[1])
        prev = (env.pose.x, env.pose.y)
        if done:
            break
    d_end = field.value_at(env.pose.x, env.pose.y)
    assert geo_sum == pytest.approx(d0 - d_end, abs=1e-9)
    assert env.path_length == pytest.approx(disp_sum, abs=1e-9)


def test_no_proximity_collisions_in_open_space():
    grid = open_grid()
    goal = (30.5, 30.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(20.5, 20.5, 0.0), goal, field), field)
    for _ in range(5):
        env.step(VelocityCommand(0.5, 0.0, 0.0))
    assert env.result().num_collisions == 0


def test_proximity_collision_counted():
    grid = load_world("cell_size 1\n" + "\n".join(
        "".join("#" if ix == 8 else "." for ix in range(16)) for _ in range(16)) + "\n")
    goal = (1.5, 1.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    # stand so that clearance - footprint < 0.20 m
    start = Pose(8.0 - SPOT.footprint_radius - 0.1, 8.5, math.pi)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(start, goal, field), field)
    env.step(VelocityCommand(0.0, 0.0, 0.0))
    assert env.result().num_collisions == 1
    assert PROXIMITY_MARGIN == 0.20


@pytest.mark.parametrize("cell_size", [0.25, 0.5])
def test_proximity_count_matches_logged_clearance(cell_size):
    grid = random_maze(33, 33, cell_size, seed=31)
    ds = sample_episodes(grid, 4, seed=7, largest_spec=SPOT)
    for k, ep in enumerate(ds.episodes):
        field = distance_field(grid, ep.goal, SPOT.footprint_radius)
        rng = np.random.default_rng(k)
        backend = DynamicLiteBackend(PROFILES["profile-B"]) if k % 2 else KINEMATIC
        env = NavEnv(grid, SPOT, backend=backend,
                     noise_model=reference_model("coupled"),
                     rng=rng, record_trajectory=True)
        agent = RandomAgent(SPOT, rng)
        env.reset(ep, field)
        for _ in range(30):
            if env.step(agent.act(None)[0])[2]:
                break
        res = env.result()
        assert res.num_collisions == sum(
            rec["clearance"] - SPOT.footprint_radius < PROXIMITY_MARGIN for rec in res.trajectory)


def test_kinematic_step_scans_one_cell_list():
    # the step's start pose was tested by the previous step (or reset), and
    # near() measures the pose the step just tested: only a new candidate is
    # scanned, and near() scans the start again after a blocked one
    grid = random_maze(33, 33, 0.25, seed=31)
    checker = grid.collision_checker(SPOT.footprint_radius)
    checker._lists = lists = CountingLists(checker._lists)
    steps = 0
    for ep in sample_episodes(grid, 3, seed=7, largest_spec=SPOT).episodes:
        field = distance_field(grid, ep.goal, SPOT.footprint_radius)
        env = NavEnv(grid, SPOT, sensor=SensorConfig(expose_pose=True))
        agent = OracleAgent(field, SPOT)
        obs = env.reset(ep, field)
        memory = agent.reset()
        done = False
        while not done:
            action, memory = agent.act(obs, memory)
            lists.reads = 0
            start = env.pose
            obs, _, done, info = env.step(action)
            moved = (env.pose.x, env.pose.y) != (start.x, start.y)
            assert lists.reads == (2 if info["blocked"] else int(moved))
            steps += moved
    assert steps > 20


def test_dynlite_oracle_measures_each_pose_once():
    # NavEnv.step's value_at and the oracle's off-lattice target share one
    # lower_envelope scan per pose, and a step that holds its pose scans
    # neither the field nor, for its near(), a cell list
    grid = random_maze(24, 24, 0.25, seed=1)
    checker = grid.collision_checker(SPOT.footprint_radius)
    checker._lists = lists = CountingLists(checker._lists)
    nears = []

    def counting_near(x, y, margin, near=checker.near):
        before = lists.reads
        out = near(x, y, margin)
        nears.append((x, y, lists.reads - before))
        return out

    checker.near = counting_near
    env = NavEnv(grid, SPOT, backend=DynamicLiteBackend(PROFILES["profile-B"]),
                 sensor=SensorConfig(expose_pose=True))
    held = 0
    for ep in sample_episodes(grid, 6, seed=1, largest_spec=SPOT).episodes:
        field = distance_field(grid, ep.goal, SPOT.footprint_radius)
        scans = []

        def counting_envelope(x, y, field=field, envelope=field.lower_envelope, scans=scans):
            before = field._last
            out = envelope(x, y)
            if field._last is not before:
                scans.append((x, y))
            return out

        field.lower_envelope = counting_envelope
        agent = OracleAgent(field, SPOT)
        obs = env.reset(ep, field)
        poses = [(env.pose.x, env.pose.y)]
        for _ in range(60):
            action, _ = agent.act(obs)
            obs, _, done, info = env.step(action)
            pose = (env.pose.x, env.pose.y)
            assert nears[-1][:2] == pose
            if pose == poses[-1]:
                assert nears[-1][2] == 0
                held += info["blocked"]
            else:
                poses.append(pose)
            if done:
                break
        assert scans == poses
    assert held >= 40


def test_trajectory_only_when_recorded():
    grid = open_grid()
    goal = (25.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    env.reset(make_episode(Pose(20.5, 20.5, 0.0), goal, field), field)
    _, _, _, info = env.step(VelocityCommand(0.5, 0.0, 0.1))
    assert env.result().trajectory == []
    assert set(info) == {"blocked", "dgeo", "r_geo", "reason"}


# -- trajectory log --------------------------------------------------------


def test_trajectory_roundtrip():
    grid = open_grid()
    goal = (25.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT, record_trajectory=True)
    env.reset(make_episode(Pose(20.5, 20.5, 0.0), goal, field), field)
    for _ in range(4):
        env.step(VelocityCommand(0.5, 0.0, 0.1))
    records = env.result().trajectory
    buf = io.StringIO()
    write_trajectory(records, buf)
    buf.seek(0)
    back = read_trajectory(buf)
    assert len(back) == len(records) == 4
    for a, b in zip(records, back):
        assert b["step"] == a["step"]
        assert b["x"] == pytest.approx(a["x"], rel=1e-5)
        assert b["dgeo"] == pytest.approx(a["dgeo"], rel=1e-5)
        assert b["blocked"] == a["blocked"]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
     "line 4 has too few values"),
    (lambda lines: lines[:3] + [lines[3] + ",0"] + lines[4:], "line 4 has too many values"),
    (lambda lines: [lines[0].replace("dgeo", "dgeo_m")] + lines[1:], "missing column(s) dgeo"),
], ids=["short", "long", "missing"])
def test_read_trajectory_rejects_bad_rows(tmp_path, edit, message):
    grid = open_grid()
    goal = (25.5, 20.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT, record_trajectory=True)
    env.reset(make_episode(Pose(20.5, 20.5, 0.0), goal, field), field)
    for _ in range(4):
        env.step(VelocityCommand(0.5, 0.0, 0.1))
    path = tmp_path / "traj.csv"
    write_trajectory(env.result().trajectory, str(path))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trajectory(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_env_rejects_bad_config():
    grid = open_grid()
    with pytest.raises(ValueError):
        NavEnv(grid, SPOT, noise_model=object())
