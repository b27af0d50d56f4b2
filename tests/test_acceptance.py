"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are timed against their stated runtime budgets; shared inputs (the
evaluation maze and its episode dataset) are built once per session and not
counted against any single criterion's clock.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kinnav.agents import OracleAgent
from kinnav.episodes import sample_episodes, validate_episode, write_dataset
from kinnav.harness import EvalConfig, bench_throughput, run_batch, save_run
from kinnav.maps import random_maze, random_obstacles
from kinnav.motion import Pose, VelocityCommand, clamp_command, kinematic_step
from kinnav.noise import NoiseModel, fit_noise_model, reference_model
from kinnav.robots import SPOT, derive_robot_params
from kinnav.task import Episode, NavEnv, RewardConfig, SensorConfig, reward
from kinnav.world import distance_field, save_world

from oracles import dijkstra_oracle


@contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[PRIMARY] criterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"[PRIMARY] criterion {num:2d} ({name}): PASS "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")


@pytest.fixture(scope="session")
def eval_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    grid = random_maze(64, 64, 0.25, seed=77)
    map_path = str(root / "maze64.map")
    with open(map_path, "w") as f:
        f.write(save_world(grid))
    ds = sample_episodes(grid, 200, seed=5, largest_spec=SPOT, scene_id="maze64.map")
    ds_path = str(root / "episodes200.jsonl")
    write_dataset(ds, ds_path)
    return root, grid, map_path, ds_path, ds


def test_criterion_1_robot_parameters():
    with criterion(1, "robot-parameter exactness", 1.0):
        assert derive_robot_params(0.20) == (0.23, 0.14, 326)
        assert derive_robot_params(0.25) == (0.28, 0.17, 268)
        assert derive_robot_params(0.44) == (0.50, 0.30, 150)


def test_criterion_2_kinematic_semantics():
    with criterion(2, "kinematic semantics", 5.0):
        # ten handcrafted block-in-place scenarios against a wall slab x=[5,6]
        rows = ["".join("#" if ix == 5 else "." for ix in range(12))] * 12
        from kinnav.world import load_world
        grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")
        r = SPOT.footprint_radius
        gap = 0.32
        scenarios = [
            (Pose(5.0 - r - gap, 3.0, 0.0), VelocityCommand(0.5, 0.0, 0.0)),
            (Pose(5.0 - r - gap, 6.0, 0.0), VelocityCommand(0.5, 0.0, 0.1)),
            (Pose(5.0 - r - gap, 9.0, 0.0), VelocityCommand(0.4, 0.0, -0.2)),
            (Pose(6.0 + r + gap, 3.0, math.pi), VelocityCommand(0.5, 0.0, 0.0)),
            (Pose(6.0 + r + gap, 8.0, math.pi), VelocityCommand(0.45, 0.0, 0.3)),
            (Pose(5.0 - r - gap, 4.0, math.pi / 2), VelocityCommand(0.0, -0.5, 0.0)),
            (Pose(6.0 + r + gap, 4.0, math.pi / 2), VelocityCommand(0.0, 0.5, 0.0)),
            (Pose(2.0, r + gap, -math.pi / 2), VelocityCommand(0.5, 0.0, 0.0)),
            (Pose(2.0, 12.0 - r - gap, math.pi / 2), VelocityCommand(0.5, 0.0, 0.0)),
            (Pose(r + gap, 9.0, math.pi), VelocityCommand(0.5, 0.0, 0.0)),
        ]
        assert len(scenarios) == 10
        for pose, cmd in scenarios:
            new_pose, blocked = kinematic_step(grid, pose, cmd, SPOT)
            assert blocked, (pose, cmd)
            assert (new_pose.x, new_pose.y) == (pose.x, pose.y)

        # 1000 random open-space steps vs closed-form Euler
        from kinnav.world import OccupancyGrid
        open_grid = OccupancyGrid(np.zeros((60, 60), dtype=bool), 1.0)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x, y = rng.uniform(10, 50, 2)
            th = rng.uniform(-math.pi, math.pi)
            cmd = clamp_command(VelocityCommand(*rng.uniform(-0.6, 0.6, 3)), SPOT)
            pose, blocked = kinematic_step(open_grid, Pose(x, y, th), cmd, SPOT)
            assert not blocked
            ex = x + (cmd.vx * math.cos(th) - cmd.vy * math.sin(th))
            ey = y + (cmd.vx * math.sin(th) + cmd.vy * math.cos(th))
            assert abs(pose.x - ex) < 1e-12
            assert abs(pose.y - ey) < 1e-12


def test_criterion_3_reward_fidelity(eval_setup):
    with criterion(3, "reward fidelity", 10.0):
        cfg = RewardConfig()
        assert (cfg.coll, cfg.fall, cfg.success, cfg.slack, cfg.backward) == \
            (-0.03, -5.0, 10.0, -0.002, -0.03)
        assert reward(5.0, 4.5, False, VelocityCommand(0.3, 0, 0), "none") \
            == pytest.approx(0.498, abs=1e-12)
        assert reward(4.0, 4.0, True, VelocityCommand(-0.2, 0, 0), "none") \
            == pytest.approx(-0.062, abs=1e-12)

        # telescoping of the geodesic-progress term on 100 random rollouts
        root, grid, map_path, ds_path, ds = eval_setup
        from kinnav.agents import RandomAgent
        field_cache = {}
        for k in range(100):
            ep = ds.episodes[k % len(ds.episodes)]
            key = ep.goal
            if key not in field_cache:
                field_cache[key] = distance_field(grid, ep.goal, SPOT.footprint_radius)
            field = field_cache[key]
            env = NavEnv(grid, SPOT)
            env.reset(ep, field)
            d0 = env.prev_dgeo
            agent = RandomAgent(SPOT, np.random.default_rng(k))
            geo_sum = 0.0
            for _ in range(25):
                action, _ = agent.act(None, None)
                _, _, done, info = env.step(action.cmd)
                geo_sum += info["r_geo"]
                if done:
                    break
            d_end = field.value_at(env.pose.x, env.pose.y)
            assert abs(geo_sum - (d0 - d_end)) < 1e-9


def test_criterion_4_geodesic_oracle():
    with criterion(4, "geodesic oracle equivalence", 30.0):
        for seed in range(50):
            grid = random_obstacles(20, 20, 0.5, seed=1000 + seed, density=0.2)
            clear = grid.center_clearance()
            ok = np.argwhere((~grid.cells) & (clear >= 0.0))
            gy, gx = ok[seed % len(ok)]
            f = distance_field(grid, grid.cell_center(int(gx), int(gy)), 0.0)
            ref = dijkstra_oracle(grid, (int(gx), int(gy)), 0.0)
            for iy in range(grid.height):
                for ix in range(grid.width):
                    a, b = f.values[iy, ix], ref[iy][ix]
                    if math.isinf(b):
                        assert math.isinf(a)
                    else:
                        assert abs(a - b) < 1e-9


def test_criterion_5_noise_recovery():
    with criterion(5, "noise-model recovery", 10.0):
        ref = reference_model("coupled")
        rng = np.random.default_rng(99)
        log = []
        for _ in range(6000):
            cmd = rng.uniform(-0.5, 0.5, 3)
            meas = cmd + rng.normal(ref.mu, ref.sigma)
            log.append((tuple(cmd), tuple(meas)))
        fit = fit_noise_model(log, "coupled")
        for i in range(3):
            assert abs(fit.mu[i] - ref.mu[i]) < 0.005
            assert abs(fit.sigma[i] - ref.sigma[i]) < 0.10 * ref.sigma[i]

        # table round-trip with deg->rad conversion
        import io
        from kinnav.noise import load_noise_model, save_noise_model
        assert ref.mu[2] == pytest.approx(math.radians(0.081), abs=1e-9)
        assert ref.sigma[2] == pytest.approx(math.radians(2.599), abs=1e-9)
        back = load_noise_model(io.StringIO(save_noise_model(ref, io.StringIO())))
        for i in range(3):
            assert abs(back.mu[i] - ref.mu[i]) < 1e-9
            assert abs(back.sigma[i] - ref.sigma[i]) < 1e-9


def test_criterion_6_oracle_navigation(eval_setup):
    root, grid, map_path, ds_path, ds = eval_setup
    with criterion(6, "oracle navigation", 120.0):
        field_cache = {}
        successes = 0
        spls = []
        for ep in ds.episodes:
            if ep.goal not in field_cache:
                field_cache[ep.goal] = distance_field(
                    grid, ep.goal, SPOT.footprint_radius)
            field = field_cache[ep.goal]
            env = NavEnv(grid, SPOT, sensor=SensorConfig(expose_pose=True))
            agent = OracleAgent(field, SPOT)
            obs = env.reset(ep, field)
            memory = agent.reset()
            done = False
            prev = env.prev_dgeo
            while not done:
                action, memory = agent.act(obs, memory)
                obs, _, done, info = env.step(action)
                if not done or info["reason"] != "success":
                    # monotone dgeo on every non-terminal (non-stop) step
                    assert info["dgeo"] < prev + 1e-12, ep.episode_id
                prev = info["dgeo"]
            res = env.result()
            successes += res.success
            spls.append(res.spl)
        assert successes == len(ds.episodes)  # SR = 100%
        assert sum(spls) / len(spls) >= 0.90


def test_criterion_7_cross_fidelity_gap(eval_setup):
    root, grid, map_path, ds_path, ds = eval_setup
    with criterion(7, "cross-fidelity gap ordering", 300.0):
        seeds = (0, 1, 2)
        kin, kin_rows = run_batch(EvalConfig(map_path, ds_path, seeds=seeds))
        dyn, dyn_rows = run_batch(EvalConfig(map_path, ds_path,
                                             backend="dynlite-b", seeds=seeds))
        assert kin["episodes"] == dyn["episodes"] == 600
        assert dyn["sr_pct"] <= kin["sr_pct"]
        assert dyn["collisions_mean"] >= kin["collisions_mean"]


def test_criterion_8_throughput(tmp_path):
    with criterion(8, "throughput ratio", 120.0):
        grid = random_maze(128, 128, 0.25, seed=88)
        res = bench_throughput(grid, SPOT, backends=("kinematic", "dynlite-a"),
                               steps=4000, warmup=1000)
        assert res["ratio_dynlite-a"] >= 50.0


def test_criterion_9_worker_determinism(eval_setup, tmp_path):
    root, grid, map_path, ds_path, ds = eval_setup
    with criterion(9, "worker-count determinism", 120.0):
        blobs = {}
        for workers in (1, 8):
            cfg = EvalConfig(map_path, ds_path, seeds=(0, 1, 2), workers=workers)
            summary, rows = run_batch(cfg)
            d = str(tmp_path / f"workers{workers}")
            save_run(d, summary, rows)
            with open(os.path.join(d, "episodes.csv"), "rb") as f:
                blobs[workers] = f.read()
        assert blobs[1] == blobs[8]


def test_criterion_10_episode_generation(eval_setup):
    root, grid, map_path, ds_path, ds = eval_setup
    with criterion(10, "episode-generation validity", 60.0):
        big = sample_episodes(grid, 500, seed=13, largest_spec=SPOT)
        assert len(big.episodes) == 500
        for ep in big.episodes:
            field = distance_field(grid, ep.goal, SPOT.footprint_radius)
            six, siy = grid.world_to_cell(ep.start.x, ep.start.y)
            d_geo = float(field.values[siy, six])
            assert 1.0 <= d_geo <= 30.0
            d_euc = math.hypot(ep.goal[0] - ep.start.x, ep.goal[1] - ep.start.y)
            assert d_geo / d_euc >= 1.1
            for ix, iy in field.descent_path(six, siy):
                cx, cy = grid.cell_center(ix, iy)
                assert grid.clearance(cx, cy) >= SPOT.footprint_radius
            ok, reason = validate_episode(grid, ep.start, ep.goal, SPOT,
                                          dist_field=field)
            assert ok, f"episode {ep.episode_id}: {reason}"
