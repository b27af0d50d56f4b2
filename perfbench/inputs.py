"""A workload's inputs: the evaluation maze and a seeded episode order, as files.

Every workload evaluates a fixed episode set on a fixed maze, chosen by the
maze seed and the episode seed. The run's ``--seed`` only permutes the order
in which the episodes appear in the dataset file (ids are renumbered), so the
work is the same for every seed while each seed gets its own input file.

Run as a script this module is one timed set-up, as a fresh process sees it:
it imports kinnav, generates the maze and the episodes, writes the map and the
dataset, reads both back and prints ``ready``, probing the host's speed all
the while (``hostspeed``). It then prints one JSON line describing the inputs,
which the benchmark checks against its reference, and the host's slowdown.

    python3 perfbench/inputs.py --episodes 200 --seed 0 --out .bench_work/x
"""

import argparse
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MAZE_SIZE = (64, 64, 0.25)
SCENE_ID = "maze64.map"
DEFAULT_MAZE_SEED = 77
DEFAULT_EPISODE_SEED = 5


def use_checkout_sources():
    """Import kinnav from this checkout's src/; exit with status 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "kinnav", "__init__.py")):
        sys.exit(f"perfbench: no kinnav sources under {SRC}; run from a repository checkout")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def episode_order(seed, n):
    """Pool index of the episode stored at each position of the run's dataset."""
    import numpy as np

    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


def make_inputs(n, order, maze_seed, episode_seed, out_dir):
    """Generate, write and read back the map and the reordered dataset.

    Returns (map_path, dataset_path, generated dataset in generation order).
    """
    from kinnav import episodes, maps, world
    from kinnav.robots import SPOT

    grid = maps.random_maze(*MAZE_SIZE, seed=maze_seed)
    pool = episodes.sample_episodes(grid, n, seed=episode_seed, largest_spec=SPOT,
                                    scene_id=SCENE_ID)
    run_set = replace(pool, episodes=[replace(pool.episodes[p], episode_id=j)
                                      for j, p in enumerate(order)])
    os.makedirs(out_dir, exist_ok=True)
    map_path = os.path.join(out_dir, "maze.map")
    dataset_path = os.path.join(out_dir, "episodes.jsonl")
    with open(map_path, "w") as f:
        f.write(world.save_world(grid))
    episodes.write_dataset(run_set, dataset_path)
    with open(map_path) as f:
        world.load_world(f.read())
    episodes.read_dataset(dataset_path)
    return map_path, dataset_path, pool


def dataset_text(dataset):
    """A dataset as ``write_dataset`` writes it; the reference records the generated one."""
    from kinnav import episodes

    text = io.StringIO()
    episodes.write_dataset(dataset, text)
    return text.getvalue()


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def source_sha256():
    """Fingerprint of the kinnav sources in this checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kinnav")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".noise")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--maze-seed", type=int, default=DEFAULT_MAZE_SEED)
    p.add_argument("--episode-seed", type=int, default=DEFAULT_EPISODE_SEED)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    use_checkout_sources()
    # set-up takes well under a second, so the host is probed more often than in a pass
    with hostspeed.HostSpeed(hostspeed.Probe(), interval=0.05) as host:
        order = episode_order(args.seed, args.episodes)
        map_path, dataset_path, pool = make_inputs(
            args.episodes, order, args.maze_seed, args.episode_seed, args.out)
    print("ready", flush=True)
    print(json.dumps({"map_sha256": file_sha256(map_path),
                      "dataset_sha256": file_sha256(dataset_path),
                      "canonical_dataset": dataset_text(pool),
                      "probe_s": sum(host.samples),
                      "host_slowdown": host.slowdown()}), flush=True)


if __name__ == "__main__":
    main()
