"""perfbench traces kinnav by patching named attributes; a renamed one goes untraced."""

import importlib.util
import os
from collections import Counter

from kinnav import task
from kinnav.episodes import sample_episodes, write_dataset
from kinnav.harness import EvalConfig, run_batch
from kinnav.maps import random_maze
from kinnav.robots import SPOT
from kinnav.world import save_world

from oracles import dynlite_reference_step

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    # Tracer.install looks each attribute up in the owner's own namespace
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in load_tracing()._targets()
               if vars(owner).get(attr) is None]
    assert missing == []


def one_episode(tmp_path):
    """(map path, dataset path) of one oracle episode on a 33x33 maze."""
    grid = random_maze(33, 33, 0.25, seed=30)
    map_path = str(tmp_path / "maze.map")
    with open(map_path, "w") as f:
        f.write(save_world(grid))
    ds_path = str(tmp_path / "episodes.jsonl")
    write_dataset(sample_episodes(grid, 1, seed=3, largest_spec=SPOT), ds_path)
    return map_path, ds_path


def test_oracle_episodes_reach_every_hot_span(tmp_path):
    # each layer of an oracle step keeps its own span: code inlined across a
    # traced call would move that layer's time into its caller's self time
    map_path, ds_path = one_episode(tmp_path)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for backend in ("kinematic", "dynlite-b"):
            run_batch(EvalConfig(map_path, ds_path, backend=backend, seeds=(0,)))
    finally:
        tracer.uninstall()
    stats, _ = tracer.take()
    assert tracer.missing == []
    for name in ("task.step", "agents.act", "world.value_at", "world.distance_field",
                 "motion.kinematic_step", "motion.dynamic_lite_step"):
        assert stats[name][0] > 0, name


def test_traced_physics_counts_equal_the_exact_reference(tmp_path, monkeypatch):
    # dynamic_lite_step records the contacts its hold horizon does not test one
    # by one; the tracer counts them from the events, so they must all be there
    map_path, ds_path = one_episode(tmp_path)
    expected = Counter()
    step = task.dynamic_lite_step

    def checked(grid, pose, vel, cmd, cfg, spec):
        out = step(grid, pose, vel, cmd, cfg, spec)
        events = dynlite_reference_step(grid, pose, vel, cmd, cfg, spec)[2]
        falls = [k for kind, k in events if kind == "fall"]
        expected["motion.substeps"] += falls[0] + 1 if falls else cfg.substeps
        expected["motion.contact_substeps"] += len(events) - len(falls)
        expected["motion.falls"] += len(falls)
        return out

    monkeypatch.setattr(task, "dynamic_lite_step", checked)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run_batch(EvalConfig(map_path, ds_path, backend="dynlite-b", seeds=(0,)))
    finally:
        tracer.uninstall()
    _, counters = tracer.take()
    assert expected["motion.contact_substeps"] > 1000
    for name in ("motion.substeps", "motion.contact_substeps", "motion.falls"):
        assert counters[name] == expected[name], name
