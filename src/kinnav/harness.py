"""Batch evaluation, cross-fidelity gap tables, and throughput benchmarking."""

import functools
import hashlib
import io
import os
import statistics
import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import episodes as episodes_mod
from . import noise as noise_mod
from . import world as world_mod
from .agents import OracleAgent, RandomAgent
from .motion import PROFILES, Pose, VelocityCommand
from .robots import ROBOTS, get_robot
from .tables import read_table, write_table
from .task import KINEMATIC, DynamicLiteBackend, NavEnv, SensorConfig, write_trajectory

# purpose tags for RNG streams keyed by (base_seed, episode_id, purpose)
_RNG_NOISE = 0
_RNG_AGENT = 1

# backend name -> backend, an object with step(grid, pose, vel, cmd, spec) -> (pose, vel, events)
BACKENDS = {"kinematic": KINEMATIC,
            "dynlite-a": DynamicLiteBackend(PROFILES["profile-A"]),
            "dynlite-b": DynamicLiteBackend(PROFILES["profile-B"])}
# agent name -> factory (dist_field, spec, stream) -> agent; stream() opens the
# agent's own RNG stream, keyed (seed, episode_id, _RNG_AGENT)
AGENTS = {"oracle": lambda dist_field, spec, stream: OracleAgent(dist_field, spec),
          "random": lambda dist_field, spec, stream: RandomAgent(spec, stream())}

EPISODE_TYPES = {"seed": int, "episode_id": int, "success": int, "spl": float,
                 "num_actions": int, "num_collisions": int, "path_length": float,
                 "total_reward": float, "termination_reason": str}
EPISODE_FIELDS = tuple(EPISODE_TYPES)


class ConfigError(ValueError):
    """Evaluation configuration references missing or mismatched inputs."""


@dataclass(frozen=True)
class EvalConfig:
    """One evaluation condition: backend, noise, robot, dataset, seeds.

    label is derived from robot, backend, noise and agent, so a copy made by
    `dataclasses.replace` is labelled by what it runs.
    """

    map_path: str
    dataset_path: str
    robot: str = "spot"
    backend: str = "kinematic"
    noise_path: str = None
    agent: str = "oracle"
    seeds: tuple = (0, 1, 2)
    workers: int = 1
    label: str = field(init=False)

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.robot not in ROBOTS:
            raise ConfigError(f"unknown robot {self.robot!r}")
        if self.agent not in AGENTS:
            raise ConfigError(f"unknown agent {self.agent!r}")
        workers = self.workers
        if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
            raise ConfigError(f"workers {workers!r} is not a positive int")
        for seed in self.seeds:
            # the RNG streams are keyed by np.random.SeedSequence, which takes
            # only non-negative ints
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
                raise ConfigError(f"seed {seed!r} is not a non-negative int")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")
        noise_tag = "-noise" if self.noise_path else ""
        object.__setattr__(
            self, "label", f"{self.robot}-{self.backend}{noise_tag}-{self.agent}")


@functools.lru_cache(maxsize=8)
def _load_context(map_data, dataset_data, noise_data, robot):
    """(grid, dataset, spec, noise) parsed from the input files' bytes, cached by those bytes.

    Runs on unchanged files share one grid and its lazy caches; a rewritten file misses.
    """
    grid = world_mod.load_world(map_data.decode())
    dataset = episodes_mod.read_dataset(io.StringIO(dataset_data.decode()))
    noise = (noise_mod.load_noise_model(io.StringIO(noise_data.decode()))
             if noise_data is not None else None)
    return grid, dataset, get_robot(robot), noise


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def ProcessPoolExecutor(max_workers):
    """concurrent.futures.ProcessPoolExecutor, imported on first use.

    Only a run with several workers needs the process pool, so importing
    kinnav leaves its modules, and the memory they take, out.
    """
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


def _run_pairs(config, contents, pairs, traj_dir=None):
    """Evaluate (seed, episode_id) pairs sequentially; fully deterministic.

    Pairs are evaluated grouped by goal, so only one distance field is alive
    at a time, and by episode, so the seeds of one episode run back to back.
    Every RNG stream is keyed by (seed, episode_id, purpose), so the order
    changes no result. A rollout that opens no stream (no noise model, and
    an agent that never calls `stream()`) depends on no seed, so the later
    seeds of its episode get copies of its row and trajectory. Rows come back
    in evaluation order. contents holds the input files' bytes; their parse
    is cached, so a worker process builds the grid at most once per batch.
    """
    grid, dataset, spec, noise = _load_context(*contents, config.robot)
    make_agent = AGENTS[config.agent]
    jobs = sorted((dataset.episodes[episode_id].goal, episode_id, seed)
                  for seed, episode_id in pairs)
    field_goal = dist_field = replay = None
    rows = []
    for goal, episode_id, seed in jobs:
        if replay is not None and replay["episode_id"] == episode_id:
            row = dict(replay, seed=seed)
        else:
            if goal != field_goal:
                field_goal = goal
                dist_field = world_mod.distance_field(grid, goal, spec.footprint_radius)
            opened = []  # purposes of the streams this rollout opens

            def stream(purpose=_RNG_AGENT):
                opened.append(purpose)
                return np.random.default_rng(
                    np.random.SeedSequence([seed, episode_id, purpose]))

            env = NavEnv(grid, spec, backend=BACKENDS[config.backend],
                         noise_model=noise, rng=stream(_RNG_NOISE) if noise else None,
                         sensor=SensorConfig(expose_pose=True),
                         record_trajectory=bool(traj_dir))
            agent = make_agent(dist_field, spec, stream)
            obs = env.reset(dataset.episodes[episode_id], dist_field)
            memory = agent.reset()
            done = False
            while not done:
                action, memory = agent.act(obs, memory)
                obs, _, done, _ = env.step(action)
            res = env.result()
            row = {
                "seed": seed, "episode_id": episode_id, "success": int(res.success),
                "spl": res.spl, "num_actions": res.num_actions,
                "num_collisions": res.num_collisions, "path_length": res.path_length,
                "total_reward": res.total_reward,
                "termination_reason": res.termination_reason,
            }
            replay = None if opened else row  # no stream opened: the same for every seed
        rows.append(row)
        if traj_dir:
            path = os.path.join(traj_dir, f"traj_s{seed}_e{episode_id}.csv")
            write_trajectory(res.trajectory, path)
    return rows


def run_batch(config, traj_dir=None):
    """Run every (episode x seed) pair; results are independent of worker count.

    An episode whose rollout opens no RNG stream is simulated once (see
    _run_pairs); every seed still gets its own row and trajectory. Each input
    file is read once, and the summary's map_sha256 and dataset_sha256 are
    taken over the bytes that are parsed. Workers receive those bytes with
    chunks of whole episodes, all seeds of one episode together.

    With traj_dir, each pair's trajectory is written there as
    traj_s<seed>_e<episode_id>.csv, by whichever worker evaluates it.
    Returns (summary dict, per-episode row dicts sorted by (seed, episode_id)).
    """
    contents = tuple(_read(p) if p else None
                     for p in (config.map_path, config.dataset_path, config.noise_path))
    if traj_dir:
        os.makedirs(traj_dir, exist_ok=True)
    ids = [ep.episode_id for ep in _load_context(*contents, config.robot)[1].episodes]
    if config.workers == 1 or len(ids) < 2:
        rows = _run_pairs(config, contents, [(seed, i) for seed in config.seeds for i in ids],
                          traj_dir=traj_dir)
    else:
        nchunks = min(len(ids), config.workers * 4)
        chunks = [[(seed, i) for i in ids[k::nchunks] for seed in config.seeds]
                  for k in range(nchunks)]
        rows = []
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for part in pool.map(_run_pairs, repeat(config), repeat(contents), chunks,
                                 repeat(traj_dir)):
                rows.extend(part)
    rows.sort(key=lambda r: (r["seed"], r["episode_id"]))
    map_sha256, dataset_sha256 = (hashlib.sha256(c).hexdigest() for c in contents[:2])
    summary = _summarize(config, rows, map_sha256, dataset_sha256)
    return summary, rows


def _summarize(config, rows, map_sha256, dataset_sha256):
    summary = {
        "label": config.label,
        "map": config.map_path,
        "map_sha256": map_sha256,
        "dataset": config.dataset_path,
        "dataset_sha256": dataset_sha256,
        "robot": config.robot,
        "backend": config.backend,
        "noise": config.noise_path or "none",
        "agent": config.agent,
        "seeds": " ".join(str(s) for s in config.seeds),
        "episodes": len(rows),
    }
    if not rows:
        summary["undefined"] = 1
        return summary
    summary["sr_pct"] = 100.0 * sum(r["success"] for r in rows) / len(rows)
    summary["spl_mean"] = sum(r["spl"] for r in rows) / len(rows)
    summary["actions_mean"] = sum(r["num_actions"] for r in rows) / len(rows)
    summary["collisions_mean"] = sum(r["num_collisions"] for r in rows) / len(rows)
    return summary


# -- result persistence -----------------------------------------------------


def write_summary(summary, path):
    with open(path, "w") as f:
        for k, v in summary.items():
            if isinstance(v, float):
                f.write(f"{k} {v:.6g}\n")
            else:
                f.write(f"{k} {v}\n")


def read_summary(path):
    out = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                k, _, v = line.rstrip("\n").partition(" ")
                out[k] = v
    return out


def write_episode_rows(rows, path):
    write_table(path, EPISODE_TYPES, rows)


def read_episode_rows(path):
    return read_table(path, EPISODE_TYPES)


def save_run(out_dir, summary, rows):
    os.makedirs(out_dir, exist_ok=True)
    write_summary(summary, os.path.join(out_dir, "summary.kv"))
    write_episode_rows(rows, os.path.join(out_dir, "episodes.csv"))


def load_run(out_dir):
    summary = read_summary(os.path.join(out_dir, "summary.kv"))
    rows = read_episode_rows(os.path.join(out_dir, "episodes.csv"))
    return summary, rows


# -- cross-fidelity gap -----------------------------------------------------


class DatasetMismatchError(ValueError):
    """Gap comparison across different maps, datasets or seed sets refused."""


# summary keys that every run in one gap table must share
_SHARED_KEYS = ("map_sha256", "dataset_sha256", "seeds")


@dataclass
class GapTable:
    """Success rates per condition label; gap(row, column) is row minus column."""

    sr: dict

    @property
    def labels(self):
        return sorted(self.sr)

    def gap(self, row_label, col_label):
        return self.sr[row_label] - self.sr[col_label]

    def to_text(self):
        width = max(len(l) for l in self.labels) + 2
        lines = ["success rates (%)"]
        for l in self.labels:
            lines.append(f"  {l:<{width}} {self.sr[l]:7.2f}")
        lines.append("")
        lines.append("pairwise gaps, row minus column (%)")
        header = " " * (width + 2) + "".join(f"{l:>{width}}" for l in self.labels)
        lines.append(header)
        for l in self.labels:
            cells = "".join(f"{self.gap(l, m):>{width}.2f}" for m in self.labels)
            lines.append(f"  {l:<{width}}{cells}")
        return "\n".join(lines) + "\n"


def sim2sim_gap(results_by_label):
    """Build a GapTable from {label: (summary, rows)} pairs.

    Refuses to compare runs evaluated on different maps, datasets or seed
    sets (maps and datasets by the SHA-256 of their bytes), or runs whose
    summary does not record them. Noise is part of a condition, so it may
    differ.
    """
    labels = sorted(results_by_label)
    ref = None
    sr = {}
    for label in labels:
        summary, rows = results_by_label[label]
        for k in _SHARED_KEYS:
            if k not in summary:
                raise DatasetMismatchError(f"run {label!r} has no {k!r} in its summary")
        key = tuple(summary[k] for k in _SHARED_KEYS)
        ref = ref or key
        if key != ref:
            raise DatasetMismatchError(
                f"run {label!r} used a different map, dataset or seeds")
        if not rows:
            raise DatasetMismatchError(f"run {label!r} has no episodes")
        sr[label] = 100.0 * sum(r["success"] for r in rows) / len(rows)
    return GapTable(sr)


# -- throughput --------------------------------------------------------------


# timed chunks per backend in bench_throughput
_BENCH_CHUNKS = 3


def bench_throughput(grid, spec, backends=BACKENDS, steps=2000, warmup=1000):
    """Control-steps per second for each backend on the same map and agent.

    Observational only: every backend runs the same `warmup` and then `steps`
    timed random commands from a fixed seed, through one loop. The commands
    run in chunks, the warm-up and then _BENCH_CHUNKS timed ones; every
    backend runs a chunk, continuing from its own pose and velocity, before
    any backend runs the next, and its rate is the median of its timed chunk
    rates. ValueError unless steps >= 1 and warmup >= 0.
    Returns {backend: steps/sec} plus 'ratio_<b>' entries relative to kinematic.
    """
    if steps < 1 or warmup < 0:
        raise ValueError(f"bench needs steps >= 1 and warmup >= 0, got {steps} and {warmup}")
    passable = grid.passable_mask(spec.footprint_radius)
    iys, ixs = np.nonzero(passable)
    if len(ixs) == 0:
        raise ValueError("map has no free non-inflated cells")
    start = grid.cell_center(int(ixs[len(ixs) // 2]), int(iys[len(iys) // 2]))
    rng = np.random.default_rng(0)
    total = warmup + steps
    # Python floats: rows of the array itself would be numpy scalars, whose
    # arithmetic would slow every pose and velocity the backends compute
    cmds = [VelocityCommand(vx, vy, w) for vx, vy, w in np.column_stack([
        rng.uniform(-spec.lin_limit, spec.lin_limit, total),
        rng.uniform(-spec.lin_limit, spec.lin_limit, total),
        rng.uniform(-spec.ang_limit, spec.ang_limit, total)]).tolist()]
    states = {backend: (Pose(start[0], start[1], 0.0), VelocityCommand(0.0, 0.0, 0.0))
              for backend in backends}
    rates = {backend: [] for backend in backends}
    # chunk 0 is the untimed warm-up
    bounds = [0] + [warmup + steps * k // _BENCH_CHUNKS for k in range(_BENCH_CHUNKS + 1)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo == hi:  # no warm-up, or fewer steps than chunks
            continue
        chunk = cmds[lo:hi]
        for backend in backends:
            step = BACKENDS[backend].step
            pose, vel = states[backend]
            t0 = time.perf_counter()
            for cmd in chunk:
                pose, vel, _ = step(grid, pose, vel, cmd, spec)
            if k:
                rates[backend].append((hi - lo) / (time.perf_counter() - t0))
            states[backend] = pose, vel
    results = {backend: statistics.median(r) for backend, r in rates.items()}
    if "kinematic" in results:
        for backend in backends:
            if backend != "kinematic":
                results[f"ratio_{backend}"] = results["kinematic"] / results[backend]
    return results
