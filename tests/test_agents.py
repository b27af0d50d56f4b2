import math

import numpy as np
import pytest

from kinnav.agents import (STOP, AgentAction, ConstantAgent, NoPathError,
                           OracleAgent, RandomAgent)
from kinnav.episodes import sample_episodes
from kinnav.maps import random_maze
from kinnav.motion import Pose, VelocityCommand
from kinnav.noise import reference_model
from kinnav.robots import SPOT, get_robot
from kinnav.task import Episode, NavEnv, SensorConfig
from kinnav.world import OccupancyGrid, distance_field

from oracles import oracle_target_numpy_reference, oracle_target_reference


def open_grid(n=40, cs=0.25):
    return OccupancyGrid(np.zeros((n, n), dtype=bool), cs)


def run_episode(grid, field, start, goal, agent, max_iters=500):
    env = NavEnv(grid, SPOT, sensor=SensorConfig(expose_pose=True))
    six, siy = grid.world_to_cell(start.x, start.y)
    ep = Episode(0, "t", start, goal, float(field.values[siy, six]))
    obs = env.reset(ep, field)
    memory = agent.reset()
    done = False
    dgeos = [env.prev_dgeo]
    for _ in range(max_iters):
        action, memory = agent.act(obs, memory)
        obs, _, done, info = env.step(action)
        dgeos.append(info["dgeo"])
        if done:
            break
    return env.result(), dgeos


def test_oracle_stop_at_goal():
    grid = open_grid()
    goal = grid.cell_center(20, 20)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    agent = OracleAgent(field, SPOT)
    obs_pose = Pose(goal[0], goal[1] - 0.2, 0.0)
    env = NavEnv(grid, SPOT, sensor=SensorConfig(expose_pose=True))
    ep = Episode(0, "t", obs_pose, goal, 1.0)
    obs = env.reset(ep, field)
    action, _ = agent.act(obs, None)
    assert action.stop
    assert action.cmd == VelocityCommand(0.0, 0.0, 0.0)


def test_oracle_three_step_straight_approach():
    grid = open_grid(60)
    goal = grid.cell_center(30, 30)
    start_cell = (26, 30)  # 4 cells = 1.0 m straight ahead of the goal
    start = Pose(*grid.cell_center(*start_cell), 0.0)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    agent = OracleAgent(field, SPOT)
    env = NavEnv(grid, SPOT, sensor=SensorConfig(expose_pose=True))
    ep = Episode(0, "t", start, goal, 1.0)
    obs = env.reset(ep, field)
    action, memory = agent.act(obs, None)
    assert (action.cmd.vx, action.cmd.vy, action.cmd.w) == \
        pytest.approx((0.5, 0.0, 0.0), abs=1e-9)
    n = 0
    done = False
    while not done and n < 5:
        action, memory = agent.act(obs, memory)
        obs, _, done, info = env.step(action)
        n += 1
    assert done and info["reason"] == "success"
    assert n <= 3


def test_oracle_requires_pose():
    grid = open_grid()
    goal = grid.cell_center(20, 20)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    agent = OracleAgent(field, SPOT)
    env = NavEnv(grid, SPOT)  # pose not exposed
    ep = Episode(0, "t", Pose(1.125, 1.125, 0.0), goal, 5.0)
    obs = env.reset(ep, field)
    with pytest.raises(ValueError):
        agent.act(obs, None)


def test_oracle_no_path_error():
    grid = open_grid(40)
    goal = grid.cell_center(20, 20)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    agent = OracleAgent(field, SPOT)

    class FakeObs:
        goal_vector = (5.0, 0.0)
        pose = Pose(goal[0], goal[1], 0.0)  # at goal cell: descent path empty

    with pytest.raises(NoPathError):
        agent._target(FakeObs.pose)


def test_oracle_monotone_dgeo_on_maze():
    grid = random_maze(64, 64, 0.25, seed=12)
    clear = grid.center_clearance()
    ok = np.argwhere((~grid.cells) & (clear >= SPOT.footprint_radius))
    gy, gx = ok[3]
    goal = grid.cell_center(int(gx), int(gy))
    field = distance_field(grid, goal, SPOT.footprint_radius)
    finite = np.argwhere(np.isfinite(field.values) & (field.values > 2.0)
                         & (field.values < 20.0))
    assert len(finite), "no usable start on this seed"
    sy, sx = finite[len(finite) // 2]
    start = Pose(*grid.cell_center(int(sx), int(sy)), 1.0)
    res, dgeos = run_episode(grid, field, start, goal, OracleAgent(field, SPOT))
    assert res.success
    assert res.spl >= 0.90
    # strictly decreasing until the terminal stop step
    for a, b in zip(dgeos[:-2], dgeos[1:-1]):
        assert b < a - 1e-12


# offsets from a cell center on both sides of _target's 1e-9 at-center
# tolerance: along each axis, both ways, and diagonally (hypot 0.85e-9 and 1.13e-9)
CENTER_OFFSETS = [(d * sx, 0.0) for d in (0.5e-9, 0.9e-9, 1.1e-9, 2e-9) for sx in (1, -1)]
CENTER_OFFSETS += [(dy, dx) for dx, dy in CENTER_OFFSETS]
CENTER_OFFSETS += [(d * sx, d * sy) for d in (0.6e-9, 0.8e-9) for sx in (1, -1) for sy in (1, -1)]


def test_oracle_targets_match_reference():
    # oracle rollouts on and off the cell lattice (noise), for robots whose
    # one-step reach spans one to five cells; every on-lattice pose is also
    # tried at CENTER_OFFSETS from its center
    on_lattice = off_lattice = near_center = flips = 0
    for cell_size, corridor, robot, noisy in ((0.25, 3, "spot", False), (0.25, 3, "spot", True),
                                              (0.5, 3, "spot", True), (0.25, 3, "a1", False),
                                              (0.25, 3, "aliengo", True), (0.1, 9, "spot", False)):
        spec = get_robot(robot)
        grid = random_maze(41, 41, cell_size, seed=17, corridor=corridor)
        ds = sample_episodes(grid, 5, seed=4, largest_spec=spec)
        for ep in ds.episodes:
            field = distance_field(grid, ep.goal, spec.footprint_radius)
            agent = OracleAgent(field, spec)
            env = NavEnv(grid, spec, noise_model=reference_model("coupled") if noisy else None,
                         rng=np.random.default_rng(ep.episode_id),
                         sensor=SensorConfig(expose_pose=True))
            obs = env.reset(ep, field)
            done = False
            while not done:
                if obs.goal_vector[0] > spec.success_radius:
                    pose = obs.pose
                    target = agent._target(pose)
                    assert target == oracle_target_reference(field, spec, 1.0, pose)
                    cx, cy = grid.cell_center(*grid.world_to_cell(pose.x, pose.y))
                    if math.hypot(pose.x - cx, pose.y - cy) < 1e-9:
                        on_lattice += 1
                        for dx, dy in CENTER_OFFSETS:
                            moved = Pose(cx + dx, cy + dy, pose.theta)
                            got = target_or_error(agent._target, moved)
                            assert got == target_or_error(oracle_target_reference,
                                                          field, spec, 1.0, moved), moved
                            if math.hypot(moved.x - cx, moved.y - cy) < 1e-9:
                                near_center += 1
                                flips += got != target
                    else:
                        off_lattice += 1
                obs, _, done, _ = env.step(agent.act(obs)[0])
    assert on_lattice >= 200 and off_lattice >= 200
    # inside the tolerance the merge budget test can flip (Spot's 0.5 m is two 0.25 m cells)
    assert near_center >= 200 * 8 and flips > 0


def target_or_error(target, *args):
    try:
        return target(*args)
    except NoPathError as err:
        return str(err)


def test_oracle_targets_match_numpy_reads():
    # every cell center (finite, inflated, walls) and jittered poses around
    # each, for robots whose one-step reach spans one to five cells
    rng = np.random.default_rng(8)
    counts = {"target": 0, "no_path": 0}
    for cell_size, corridor, robot in ((0.25, 3, "spot"), (0.5, 3, "a1"), (0.1, 9, "aliengo")):
        spec = get_robot(robot)
        grid = random_maze(41, 33, cell_size, seed=19, corridor=corridor)
        ok = np.argwhere(grid.passable_mask(spec.footprint_radius))
        for gy, gx in ok[rng.choice(len(ok), 2, replace=False)]:
            field = distance_field(grid, grid.cell_center(gx, gy), spec.footprint_radius)
            agent = OracleAgent(field, spec)
            for iy in range(grid.height):
                for ix in range(grid.width):
                    cx, cy = grid.cell_center(ix, iy)
                    dx, dy = rng.uniform(-0.5 * cell_size, 0.5 * cell_size, 2).tolist()
                    for pose in (Pose(cx, cy, 0.0), Pose(cx + dx, cy + dy, 0.0)):
                        got = target_or_error(agent._target, pose)
                        assert got == target_or_error(oracle_target_numpy_reference,
                                                      field, spec, 1.0, pose), pose
                        counts["no_path" if isinstance(got, str) else "target"] += 1
    assert counts["target"] > 10000 and counts["no_path"] > 2000


def test_random_agent_within_limits_and_deterministic():
    agent = RandomAgent(SPOT, np.random.default_rng(123))
    draws = []
    for _ in range(100_000):
        action, _ = agent.act(None, None)
        assert not action.stop
        draws.append((action.cmd.vx, action.cmd.vy, action.cmd.w))
    arr = np.array(draws)
    assert np.all(np.abs(arr[:, 0]) <= SPOT.lin_limit)
    assert np.all(np.abs(arr[:, 1]) <= SPOT.lin_limit)
    assert np.all(np.abs(arr[:, 2]) <= SPOT.ang_limit)
    # means near zero, 3 sigma/sqrt(n) for a uniform distribution
    n = len(arr)
    for i, half in enumerate((SPOT.lin_limit, SPOT.lin_limit, SPOT.ang_limit)):
        sigma = half / math.sqrt(3)
        assert abs(arr[:, i].mean()) < 3 * sigma / math.sqrt(n)
    again = RandomAgent(SPOT, np.random.default_rng(123))
    replay = [again.act(None, None)[0].cmd for _ in range(50)]
    assert [(c.vx, c.vy, c.w) for c in replay] == draws[:50]


def test_random_agent_commands_python_floats():
    """Every command component is a Python float, equal to the numpy draws of the seed."""
    agent = RandomAgent(SPOT, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for _ in range(20):
        cmd = agent.act(None, None)[0].cmd
        assert all(type(v) is float for v in (cmd.vx, cmd.vy, cmd.w)), cmd
        vx, vy = rng.uniform(-SPOT.lin_limit, SPOT.lin_limit, size=2)
        w = rng.uniform(-SPOT.ang_limit, SPOT.ang_limit)
        assert (cmd.vx, cmd.vy, cmd.w) == (vx, vy, w)


def test_constant_agent_under_env():
    grid = open_grid(80)
    goal = grid.cell_center(60, 40)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    agent = ConstantAgent(VelocityCommand(0.5, 0.0, 0.0))
    start = Pose(*grid.cell_center(20, 40), 0.0)
    res, _ = run_episode(grid, field, start, goal, agent)
    # drives straight past the goal and runs out the budget
    assert res.num_actions > 1


def test_memory_round_trip():
    class CountingAgent:
        def reset(self):
            return 0

        def act(self, obs, memory):
            return AgentAction(VelocityCommand(0.1, 0.0, 0.0)), memory + 1

    grid = open_grid(80)
    goal = grid.cell_center(60, 40)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    env = NavEnv(grid, SPOT)
    start = Pose(*grid.cell_center(20, 40), 0.0)
    ep = Episode(0, "t", start, goal, 10.0)
    obs = env.reset(ep, field)
    agent = CountingAgent()
    memory = agent.reset()
    for k in range(10):
        action, memory = agent.act(obs, memory)
        obs, _, done, _ = env.step(action)
        assert memory == k + 1
