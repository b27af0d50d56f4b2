import builtins
import hashlib
import io
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from kinnav import harness, task
from kinnav.agents import ConstantAgent
from kinnav.episodes import sample_episodes, write_dataset
from kinnav.harness import (BACKENDS, ConfigError, DatasetMismatchError,
                            EvalConfig, GapTable, bench_throughput, load_run,
                            run_batch, save_run, sim2sim_gap)
from kinnav.maps import random_maze
from kinnav.motion import PROFILES, Pose, VelocityCommand, kinematic_step
from kinnav.noise import reference_model, save_noise_model
from kinnav.plotting import PlotError, emit_plot
from kinnav.robots import SPOT
from kinnav.task import DynamicLiteBackend, NavEnv, read_trajectory
from kinnav.world import save_world

from oracles import dynlite_reference_step
from test_perfbench_targets import load_tracing


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    grid = random_maze(48, 48, 0.25, seed=30)
    map_path = str(root / "maze.map")
    with open(map_path, "w") as f:
        f.write(save_world(grid))
    ds = sample_episodes(grid, 8, seed=3, largest_spec=SPOT, scene_id="maze.map")
    ds_path = str(root / "episodes.jsonl")
    write_dataset(ds, ds_path)
    return root, grid, map_path, ds_path


def test_eval_config_validation(small_setup):
    root, grid, map_path, ds_path = small_setup
    with pytest.raises(ConfigError):
        EvalConfig(map_path, ds_path, backend="warp9")
    with pytest.raises(ConfigError):
        EvalConfig(map_path, ds_path, agent="dqn")
    with pytest.raises(ConfigError):
        EvalConfig(map_path, ds_path, robot="r2d2")
    with pytest.raises(ConfigError):
        EvalConfig(map_path, ds_path, workers=0)
    with pytest.raises(ConfigError):
        EvalConfig(map_path, ds_path, seeds=(0, 0))
    with pytest.raises(ConfigError):
        EvalConfig(map_path, ds_path, seeds=(1, 0, 1))
    cfg = EvalConfig(map_path, ds_path, backend="dynlite-a", noise_path=None)
    assert cfg.label == "spot-dynlite-a-oracle"


@pytest.mark.parametrize("seed", [-1, 1.0, 0.5, True, "1", None])
def test_eval_config_rejects_seeds_the_rng_streams_refuse(small_setup, seed):
    root, grid, map_path, ds_path = small_setup
    with pytest.raises(ConfigError, match=rf"seed {re.escape(repr(seed))} "):
        EvalConfig(map_path, ds_path, seeds=(0, seed))
    assert EvalConfig(map_path, ds_path, seeds=(0, np.int64(2))).seeds == (0, 2)


@pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, True, "2", None])
def test_eval_config_rejects_workers_that_are_not_positive_ints(small_setup, workers):
    root, grid, map_path, ds_path = small_setup
    with pytest.raises(ConfigError, match=rf"workers {re.escape(repr(workers))} "):
        EvalConfig(map_path, ds_path, workers=workers)
    assert EvalConfig(map_path, ds_path, workers=np.int64(2)).workers == 2


def test_label_follows_a_replaced_condition():
    cfg = EvalConfig("maze.map", "episodes.jsonl")
    assert replace(cfg, backend="dynlite-b").label == "spot-dynlite-b-oracle"
    assert replace(cfg, robot="a1", noise_path="spot.noise", agent="random").label == \
        "a1-kinematic-noise-random"
    with pytest.raises(TypeError):
        EvalConfig("maze.map", "episodes.jsonl", label="kin")


def test_oracle_kinematic_batch(small_setup):
    root, grid, map_path, ds_path = small_setup
    cfg = EvalConfig(map_path, ds_path, seeds=(0,), workers=1)
    summary, rows = run_batch(cfg)
    assert summary["episodes"] == 8
    assert summary["sr_pct"] == 100.0
    assert summary["spl_mean"] >= 0.90
    assert summary["sr_pct"] == 100.0 * sum(r["success"] for r in rows) / len(rows)
    assert all(r["termination_reason"] == "success" for r in rows)


def test_empty_dataset_clean(small_setup, tmp_path):
    root, grid, map_path, ds_path = small_setup
    ds = sample_episodes(grid, 0, seed=0, largest_spec=SPOT)
    empty_path = str(tmp_path / "empty.jsonl")
    write_dataset(ds, empty_path)
    cfg = EvalConfig(map_path, empty_path)
    summary, rows = run_batch(cfg)
    assert rows == []
    assert summary["undefined"] == 1
    assert summary["episodes"] == 0


def test_workers_do_not_change_results(small_setup, tmp_path):
    root, grid, map_path, ds_path = small_setup
    out = {}
    for workers in (1, 2):
        cfg = EvalConfig(map_path, ds_path, seeds=(0, 1), workers=workers)
        summary, rows = run_batch(cfg)
        d = str(tmp_path / f"w{workers}")
        save_run(d, summary, rows)
        with open(os.path.join(d, "episodes.csv"), "rb") as f:
            out[workers] = f.read()
    assert out[1] == out[2]


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its use."""

    calls = []
    chunks = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        items = list(zip(*iterables))
        RecordingPool.calls.append(len(items))
        RecordingPool.chunks.extend(pairs for *_, pairs, _ in items)
        return [fn(*item) for item in items]


def read_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def test_trajectories_with_workers(small_setup, tmp_path, monkeypatch):
    root, grid, map_path, ds_path = small_setup
    trajs = {}
    for workers in (1, 2):
        cfg = EvalConfig(map_path, ds_path, seeds=(0, 1), workers=workers)
        run_batch(cfg, traj_dir=str(tmp_path / f"w{workers}"))
        trajs[workers] = read_dir(tmp_path / f"w{workers}")
    assert len(trajs[1]) == 16
    assert trajs[1] == trajs[2]
    # the worker pool evaluates the pairs, trajectories included
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.calls = []
    cfg = EvalConfig(map_path, ds_path, seeds=(0, 1), workers=2)
    run_batch(cfg, traj_dir=str(tmp_path / "fake"))
    assert RecordingPool.calls == [8]
    assert read_dir(tmp_path / "fake") == trajs[1]


@pytest.fixture(scope="module")
def mazes(tmp_path_factory):
    """{cell size: (map path, dataset path)} for a 0.25 m and a 0.5 m maze.

    Each dataset holds 11 episodes; the last repeats episode 0, so two
    episodes share a goal.
    """
    root = tmp_path_factory.mktemp("mazes")
    out = {}
    for cell, grid in ((0.25, random_maze(48, 48, 0.25, seed=77)),
                       (0.5, random_maze(41, 41, 0.5, seed=9))):
        map_path = str(root / f"maze{cell}.map")
        with open(map_path, "w") as f:
            f.write(save_world(grid))
        ds = sample_episodes(grid, 10, seed=3, largest_spec=SPOT)
        ds.episodes.append(replace(ds.episodes[0], episode_id=10))
        ds_path = str(root / f"episodes{cell}.jsonl")
        write_dataset(ds, ds_path)
        out[cell] = map_path, ds_path
    return out


def counted_run(monkeypatch, config, traj_dir=None):
    """run_batch's rows and the number of NavEnv.step calls it made."""
    calls = [0]
    step = NavEnv.step

    def counting(self, action):
        calls[0] += 1
        return step(self, action)

    with monkeypatch.context() as m:
        m.setattr(NavEnv, "step", counting)
        _, rows = run_batch(config, traj_dir=traj_dir)
    return rows, calls[0]


@pytest.mark.parametrize("cell", [0.25, 0.5])
@pytest.mark.parametrize("backend", ["kinematic", "dynlite-b"])
def test_seed_free_condition_rolls_out_once(mazes, monkeypatch, backend, cell):
    map_path, ds_path = mazes[cell]
    single = [counted_run(monkeypatch, EvalConfig(map_path, ds_path, backend=backend,
                                                  seeds=(seed,)))
              for seed in (0, 1, 2)]
    rows, calls = counted_run(monkeypatch, EvalConfig(map_path, ds_path, backend=backend,
                                                      seeds=(0, 1, 2)))
    assert rows == [row for part, _ in single for row in part]
    assert calls == single[0][1] > 0


@pytest.mark.parametrize("agent,noise_file", [("random", None),
                                              ("oracle", "spot_coupled.noise")])
def test_conditions_with_streams_evaluate_every_seed(mazes, monkeypatch, agent, noise_file):
    from importlib import resources
    map_path, ds_path = mazes[0.25]
    noise_path = noise_file and str(resources.files("kinnav.data").joinpath(noise_file))
    single = [counted_run(monkeypatch, EvalConfig(map_path, ds_path, agent=agent,
                                                  noise_path=noise_path, seeds=(seed,)))
              for seed in (0, 1, 2)]
    rows, calls = counted_run(monkeypatch, EvalConfig(map_path, ds_path, agent=agent,
                                                      noise_path=noise_path,
                                                      seeds=(0, 1, 2)))
    assert rows == [row for part, _ in single for row in part]
    assert calls == sum(n for _, n in single)
    outcomes = [[{k: v for k, v in row.items() if k != "seed"} for row in part]
                for part, _ in single]
    assert outcomes[0] != outcomes[1] and outcomes[1] != outcomes[2] \
        and outcomes[0] != outcomes[2]


def test_seed_free_trajectories_per_seed(mazes, tmp_path):
    map_path, ds_path = mazes[0.25]
    single = {}
    for seed in (0, 1, 2):
        run_batch(EvalConfig(map_path, ds_path, seeds=(seed,)),
                  traj_dir=str(tmp_path / f"s{seed}"))
        single.update(read_dir(tmp_path / f"s{seed}"))
    run_batch(EvalConfig(map_path, ds_path, seeds=(0, 1, 2)), traj_dir=str(tmp_path / "all"))
    assert len(single) == 33
    assert read_dir(tmp_path / "all") == single


@pytest.mark.parametrize("agent", ["oracle", "random"])
def test_workers_receive_whole_episodes(mazes, tmp_path, monkeypatch, agent):
    map_path, ds_path = mazes[0.25]
    runs = {}
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    for workers in (1, 2):
        RecordingPool.chunks = []
        cfg = EvalConfig(map_path, ds_path, agent=agent, seeds=(0, 1, 2), workers=workers)
        summary, rows = run_batch(cfg)
        save_run(str(tmp_path / f"w{workers}"), summary, rows)
        runs[workers] = read_dir(tmp_path / f"w{workers}")
    chunk_ids = [{episode_id for _, episode_id in pairs} for pairs in RecordingPool.chunks]
    assert len(chunk_ids) > 1
    assert sum(len(ids) for ids in chunk_ids) == len(set().union(*chunk_ids)) == 11
    assert runs[1] == runs[2]


def steady_agent(dist_field, spec, stream):
    """Registry factory of a deterministic agent that opens no stream."""
    return ConstantAgent(VelocityCommand(0.3, 0.1, 0.2))


def stream_opening_agent(dist_field, spec, stream):
    """The same agent, but it opens its stream (and never draws from it)."""
    stream()
    return steady_agent(dist_field, spec, stream)


def rows_by_seed(rows, seeds):
    return [[{k: v for k, v in r.items() if k != "seed"} for r in rows if r["seed"] == seed]
            for seed in seeds]


@pytest.mark.parametrize("workers", [1, 2])
def test_registered_agent_without_stream_rolls_out_once(mazes, monkeypatch, workers):
    map_path, ds_path = mazes[0.25]
    monkeypatch.setitem(harness.AGENTS, "steady", steady_agent)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    _, once = counted_run(monkeypatch, EvalConfig(map_path, ds_path, agent="steady",
                                                  seeds=(0,)))
    RecordingPool.calls = []
    rows, calls = counted_run(monkeypatch, EvalConfig(map_path, ds_path, agent="steady",
                                                      seeds=(0, 1, 2), workers=workers))
    assert RecordingPool.calls == ([] if workers == 1 else [8])
    assert calls == once > 0
    first, *others = rows_by_seed(rows, (0, 1, 2))
    assert len(first) == 11 and others == [first, first]


def test_registered_agent_opening_a_stream_runs_every_seed(mazes, monkeypatch):
    map_path, ds_path = mazes[0.25]
    monkeypatch.setitem(harness.AGENTS, "opens-stream", stream_opening_agent)
    _, once = counted_run(monkeypatch, EvalConfig(map_path, ds_path, agent="opens-stream",
                                                  seeds=(0,)))
    rows, calls = counted_run(monkeypatch, EvalConfig(map_path, ds_path, agent="opens-stream",
                                                      seeds=(0, 1, 2)))
    assert calls == 3 * once > 0
    first, *others = rows_by_seed(rows, (0, 1, 2))
    assert len(first) == 11 and others == [first, first]


def test_rewritten_dataset_is_reread(small_setup, tmp_path):
    root, grid, map_path, ds_path = small_setup
    path = str(tmp_path / "episodes.jsonl")
    write_dataset(sample_episodes(grid, 8, seed=3, largest_spec=SPOT), path)
    summary, rows = run_batch(EvalConfig(map_path, path, seeds=(0,)))
    assert summary["episodes"] == 8
    write_dataset(sample_episodes(grid, 10, seed=4, largest_spec=SPOT), path)
    summary, rows = run_batch(EvalConfig(map_path, path, seeds=(0,)))
    assert summary["episodes"] == len(rows) == 10
    with open(path, "rb") as f:
        assert summary["dataset_sha256"] == hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_each_input_file_is_opened_once(small_setup, tmp_path, monkeypatch, workers):
    root, grid, map_path, ds_path = small_setup
    noise_path = str(tmp_path / "spot.noise")
    save_noise_model(reference_model("coupled"), noise_path)
    inputs = {os.path.abspath(p) for p in (map_path, ds_path, noise_path)}
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, str) and os.path.abspath(file) in inputs:
            opened.append(os.path.abspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(builtins, "open", counting_open)
    run_batch(EvalConfig(map_path, ds_path, noise_path=noise_path, seeds=(0, 1),
                         workers=workers))
    assert sorted(opened) == sorted(inputs)


def test_runs_on_the_same_bytes_parse_them_once(small_setup, tmp_path, monkeypatch):
    root, grid, map_path, ds_path = small_setup
    parsed = []
    load_world = harness.world_mod.load_world
    monkeypatch.setattr(harness.world_mod, "load_world",
                        lambda text: parsed.append(text) or load_world(text))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    harness._load_context.cache_clear()
    copy = str(shutil.copyfile(map_path, tmp_path / "copy.map"))
    # the second run and every worker chunk reuse the first parse, under any path
    for path, workers in ((map_path, 1), (map_path, 2), (copy, 1)):
        run_batch(EvalConfig(path, ds_path, seeds=(0,), workers=workers))
    assert len(parsed) == 1
    with open(copy, "a") as f:
        f.write("\n")
    run_batch(EvalConfig(copy, ds_path, seeds=(0,)))
    assert len(parsed) == 2


class RewritingPool(RecordingPool):
    """A stand-in pool that first overwrites a file, then runs each chunk on a pickled copy."""

    rewrite = None  # (path, new text)

    def map(self, fn, *iterables):
        path, text = RewritingPool.rewrite
        with open(path, "w") as f:
            f.write(text)
        return [fn(*pickle.loads(pickle.dumps(item))) for item in zip(*iterables)]


def test_workers_run_the_dataset_the_run_read(small_setup, tmp_path, monkeypatch):
    root, grid, map_path, ds_path = small_setup
    want = run_batch(EvalConfig(map_path, ds_path, seeds=(0, 1)))
    path = shutil.copyfile(ds_path, tmp_path / "episodes.jsonl")
    other = write_dataset(sample_episodes(grid, 8, seed=5, largest_spec=SPOT), io.StringIO())
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RewritingPool)
    monkeypatch.setattr(RewritingPool, "rewrite", (path, other))
    summary, rows = run_batch(EvalConfig(map_path, str(path), seeds=(0, 1), workers=2))
    assert path.read_text() == other
    assert summary["dataset_sha256"] == want[0]["dataset_sha256"]
    assert rows == want[1]


def test_save_load_run_roundtrip(small_setup, tmp_path):
    root, grid, map_path, ds_path = small_setup
    cfg = EvalConfig(map_path, ds_path, seeds=(0,))
    summary, rows = run_batch(cfg)
    d = str(tmp_path / "run")
    save_run(d, summary, rows)
    s2, rows2 = load_run(d)
    assert s2["label"] == summary["label"]
    assert s2["dataset_sha256"] == summary["dataset_sha256"]
    assert len(rows2) == len(rows)
    for a, b in zip(rows, rows2):
        assert (a["seed"], a["episode_id"], a["success"]) == \
            (b["seed"], b["episode_id"], b["success"])
        assert b["spl"] == pytest.approx(a["spl"], rel=1e-5)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]], "line 9 has too few values"),
    (lambda lines: lines[:2] + [lines[2] + ",x"] + lines[3:], "line 3 has too many values"),
    (lambda lines: [lines[0].replace(",spl,", ",")] + lines[1:], "missing column(s) spl"),
], ids=["short", "long", "missing"])
def test_read_episode_rows_rejects_bad_rows(small_setup, tmp_path, edit, message):
    root, grid, map_path, ds_path = small_setup
    summary, rows = run_batch(EvalConfig(map_path, ds_path, seeds=(0,)))
    path = tmp_path / "episodes.csv"
    harness.write_episode_rows(rows, str(path))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as exc:
        harness.read_episode_rows(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_gap_zero_for_identical_runs(small_setup):
    root, grid, map_path, ds_path = small_setup
    cfg = EvalConfig(map_path, ds_path, seeds=(0,))
    summary, rows = run_batch(cfg)
    table = sim2sim_gap({"a": (summary, rows), "b": (summary, rows)})
    assert table.gap("a", "b") == 0.0
    assert "success rates" in table.to_text()


def test_gap_labels_are_the_sorted_keys():
    table = GapTable({"b": 50.0, "a": 40.0})
    assert table.labels == ["a", "b"]
    assert table.gap("b", "a") == 10.0


def test_gap_refuses_mismatched_dataset(small_setup, tmp_path):
    root, grid, map_path, ds_path = small_setup
    cfg = EvalConfig(map_path, ds_path, seeds=(0,))
    summary, rows = run_batch(cfg)
    other = dict(summary)
    other["dataset_sha256"] = "0" * 64
    with pytest.raises(DatasetMismatchError):
        sim2sim_gap({"a": (summary, rows), "b": (other, rows)})
    other2 = dict(summary)
    other2["seeds"] = "0 1"
    with pytest.raises(DatasetMismatchError):
        sim2sim_gap({"a": (summary, rows), "b": (other2, rows)})


def test_gap_ordering_kinematic_vs_dynlite_b(small_setup):
    root, grid, map_path, ds_path = small_setup
    results = {}
    for backend in ("kinematic", "dynlite-b"):
        cfg = EvalConfig(map_path, ds_path, backend=backend, seeds=(0,))
        results[cfg.label] = run_batch(cfg)
    table = sim2sim_gap(results)
    assert table.gap("spot-kinematic-oracle", "spot-dynlite-b-oracle") >= 0.0


def test_bench_equal_work_sanity(monkeypatch):
    # equal work order per control step: measure contact-free on an open map
    # (in contact the dynamic-lite slide/penetration handling legitimately
    # costs a few times more) with a 1-substep dynlite-a, retrying to ride
    # out timer noise
    from kinnav.world import OccupancyGrid
    monkeypatch.setitem(harness.BACKENDS, "dynlite-a",
                        DynamicLiteBackend(replace(PROFILES["profile-A"], substeps=1)))
    grid = OccupancyGrid(np.zeros((200, 200), dtype=bool), 1.0)
    for _ in range(3):
        res = bench_throughput(grid, SPOT, backends=("kinematic", "dynlite-a"),
                               steps=20000, warmup=2000)
        if 0.5 <= res["ratio_dynlite-a"] <= 2.0:
            break
    else:
        pytest.fail(f"ratio {res['ratio_dynlite-a']:.2f} outside [0.5, 2]")


def test_bench_measurement_stability(small_setup):
    root, grid, map_path, ds_path = small_setup
    # doubling the step count should not move the measured rate much;
    # retry a couple of times to ride out scheduler noise
    for attempt in range(3):
        a = bench_throughput(grid, SPOT, backends=("kinematic",),
                             steps=20000, warmup=2000)["kinematic"]
        b = bench_throughput(grid, SPOT, backends=("kinematic",),
                             steps=40000, warmup=2000)["kinematic"]
        if abs(a - b) / a < 0.10:
            break
    else:
        pytest.fail(f"throughput unstable: {a:.0f} vs {b:.0f} steps/s")


class RecordingBackend:
    """Steps kinematically and records the type of every number it is handed."""

    def __init__(self):
        self.types = set()

    def step(self, grid, pose, vel, cmd, spec):
        self.types.update(type(v) for v in (*pose, *vel, *cmd))
        return task.KINEMATIC.step(grid, pose, vel, cmd, spec)


def test_bench_steps_python_floats(small_setup, monkeypatch):
    # numpy scalars would time numpy-scalar arithmetic, not the backend's
    root, grid, map_path, ds_path = small_setup
    rec = RecordingBackend()
    monkeypatch.setitem(harness.BACKENDS, "recording", rec)
    bench_throughput(grid, SPOT, backends=("recording",), steps=50, warmup=10)
    assert rec.types == {float}


@pytest.mark.parametrize("steps", [1, 2])
def test_bench_times_fewer_steps_than_chunks(small_setup, steps):
    root, grid, map_path, ds_path = small_setup
    res = bench_throughput(grid, SPOT, backends=("kinematic", "dynlite-b"),
                           steps=steps, warmup=2)
    assert res["kinematic"] > 0 and res["dynlite-b"] > 0 and res["ratio_dynlite-b"] > 0


@pytest.mark.parametrize("steps, warmup", [(0, 10), (-5, 10), (10, -1)])
def test_bench_refuses_bad_step_counts(small_setup, steps, warmup):
    root, grid, map_path, ds_path = small_setup
    with pytest.raises(ValueError, match="steps >= 1 and warmup >= 0"):
        bench_throughput(grid, SPOT, backends=("kinematic", "dynlite-a"),
                         steps=steps, warmup=warmup)


def test_bench_reports_all_backends(small_setup):
    root, grid, map_path, ds_path = small_setup
    res = bench_throughput(grid, SPOT, steps=1000, warmup=200)
    for b in BACKENDS:
        assert res[b] > 0
    assert res["ratio_dynlite-a"] > 1.0
    assert res["ratio_dynlite-b"] > 1.0


# -- backend protocol ------------------------------------------------------


def test_kinematic_backend_contract(small_setup):
    # one contact exactly when kinematic_step is blocked; the command is the velocity
    root, grid, map_path, ds_path = small_setup
    rng = np.random.default_rng(4)
    free = np.argwhere(grid.passable_mask(SPOT.footprint_radius))
    vel = VelocityCommand(0.1, 0.2, 0.3)
    seen = set()
    for iy, ix in free[rng.choice(len(free), 200)]:
        x, y = grid.cell_center(int(ix), int(iy))
        pose = Pose(x, y, rng.uniform(-math.pi, math.pi))
        cmd = VelocityCommand(*rng.uniform(-1.0, 1.0, 3))
        new_pose, blocked = kinematic_step(grid, pose, cmd, SPOT)
        assert BACKENDS["kinematic"].step(grid, pose, vel, cmd, SPOT) == \
            (new_pose, cmd, [("contact", 0)] if blocked else [])
        seen.add(blocked)
    assert seen == {False, True}


class HoldBackend:
    """A stub motion model: holds the pose and reports one contact per step."""

    def __init__(self):
        self.calls = 0

    def step(self, grid, pose, vel, cmd, spec):
        self.calls += 1
        return pose, vel, [("contact", 0)]


def test_a_registered_backend_needs_no_other_change(small_setup, tmp_path, monkeypatch):
    root, grid, map_path, ds_path = small_setup
    hold = HoldBackend()
    monkeypatch.setitem(BACKENDS, "hold", hold)
    cfg = EvalConfig(map_path, ds_path, backend="hold", seeds=(0,))
    summary, rows = run_batch(cfg, traj_dir=str(tmp_path))
    assert summary["label"] == "spot-hold-oracle"
    assert {r["termination_reason"] for r in rows} == {"step_budget"}
    assert {r["num_actions"] for r in rows} == {SPOT.max_steps}
    assert hold.calls == len(rows) * SPOT.max_steps
    for r in rows:
        traj = read_trajectory(str(tmp_path / f"traj_s0_e{r['episode_id']}.csv"))
        assert all(rec["blocked"] == 1 for rec in traj)
        assert len({(rec["x"], rec["y"]) for rec in traj}) == 1
        assert {(rec["applied_vx"], rec["applied_vy"], rec["applied_w"]) for rec in traj} \
            == {(0.0, 0.0, 0.0)}
    hold.calls = 0
    res = bench_throughput(grid, SPOT, backends=("kinematic", "hold"), steps=7, warmup=3)
    assert hold.calls == 10
    assert res["hold"] > 0 and res["ratio_hold"] > 0


def test_kinematic_contacts_reach_no_physics_counter(small_setup, tmp_path):
    # a blocked kinematic step is one contact event, but the traced physics
    # counters (substeps, contact substeps, falls) count dynamic-lite alone
    root, grid, map_path, ds_path = small_setup
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run_batch(EvalConfig(map_path, ds_path, agent="random", seeds=(0,)),
                  traj_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    stats, counters = tracer.take()
    assert stats["motion.kinematic_step"][0] > 0
    assert stats["motion.dynamic_lite_step"][0] == 0
    blocked = sum(rec["blocked"] for name in os.listdir(tmp_path)
                  for rec in read_trajectory(str(tmp_path / name)))
    assert blocked > 0
    for name in ("motion.substeps", "motion.contact_substeps", "motion.falls"):
        assert counters[name] == 0, name


@pytest.mark.parametrize("backend", ["dynlite-a", "dynlite-b"])
def test_dynlite_runs_equal_the_exact_reference(tmp_path, monkeypatch, backend):
    # the certified substep loop against one exact collision test per substep,
    # end to end: rows and trajectories, oracle and random agents, both
    # profiles (dynlite-a slides on contact, dynlite-b holds)
    grid = random_maze(33, 33, 0.25, seed=30)
    map_path = str(tmp_path / "maze.map")
    with open(map_path, "w") as f:
        f.write(save_world(grid))
    ds_path = str(tmp_path / "episodes.jsonl")
    write_dataset(sample_episodes(grid, 4, seed=3, largest_spec=SPOT), ds_path)

    def run(name):
        out = {}
        for agent in ("oracle", "random"):
            traj_dir = tmp_path / name / agent
            cfg = EvalConfig(map_path, ds_path, backend=backend, agent=agent, seeds=(0, 1))
            out[agent] = run_batch(cfg, traj_dir=str(traj_dir))[1]
            for path in sorted(traj_dir.iterdir()):
                out[agent, path.name] = path.read_bytes()
        return out

    fast = run("fast")
    monkeypatch.setattr(task, "dynamic_lite_step", dynlite_reference_step)
    assert fast == run("reference")
    assert sum(r["num_collisions"] for r in fast["random"]) > 100
    assert len(fast) == 2 + 2 * 2 * 4


# -- plotting --------------------------------------------------------------


def traj_records(points):
    out = []
    for k, (x, y) in enumerate(points):
        out.append({"step": k + 1, "x": x, "y": y})
    return out


def test_plot_empty_map_only(small_setup):
    root, grid, map_path, ds_path = small_setup
    svg = emit_plot(grid)
    assert svg.startswith("<svg")
    assert "polyline" not in svg
    assert svg.count("<rect") == 1 + int(grid.cells.sum())


def test_plot_deterministic_and_vertex_count(small_setup):
    root, grid, map_path, ds_path = small_setup
    pts = [(1.0 + 0.1 * k, 2.0 + 0.05 * k) for k in range(7)]
    trajs = [(traj_records(pts), True), (traj_records(pts[:3]), False)]
    a = emit_plot(grid, trajs, start=pts[0], goal=pts[-1])
    b = emit_plot(grid, trajs, start=pts[0], goal=pts[-1])
    assert a == b
    assert a.count("polyline") == 2
    line = [ln for ln in a.splitlines() if "polyline" in ln][0]
    n_vertices = line.split('points="')[1].split('"')[0].count(",")
    assert n_vertices == 7
    assert "#2a9d57" in a and "#d33f3f" in a


def test_plot_rejects_off_map_points(small_setup):
    root, grid, map_path, ds_path = small_setup
    with pytest.raises(PlotError):
        emit_plot(grid, [(traj_records([(-5.0, 2.0)]), True)])


def test_import_leaves_the_process_pool_out():
    # a fresh interpreter that finds kinnav where this one did; only a run
    # with several workers imports the process pool
    src = os.path.dirname(os.path.dirname(harness.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import kinnav, kinnav.cli; " \
           "print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
