"""Batch evaluation, cross-fidelity gap tables, and throughput benchmarking."""

import functools
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import episodes as episodes_mod
from . import noise as noise_mod
from . import world as world_mod
from .agents import OracleAgent, RandomAgent
from .motion import PROFILES, VelocityCommand, dynamic_lite_step, kinematic_step
from .robots import ROBOTS, get_robot
from .task import NavEnv, SensorConfig, write_trajectory

# purpose tags for RNG streams keyed by (base_seed, episode_id, purpose)
_RNG_NOISE = 0
_RNG_AGENT = 1

# backend name -> dynamic-lite config, None for the kinematic backend
BACKENDS = {"kinematic": None,
            "dynlite-a": PROFILES["profile-A"],
            "dynlite-b": PROFILES["profile-B"]}
AGENTS = ("oracle", "random")

EPISODE_FIELDS = ("seed", "episode_id", "success", "spl", "num_actions",
                  "num_collisions", "path_length", "total_reward",
                  "termination_reason")


class ConfigError(ValueError):
    """Evaluation configuration references missing or mismatched inputs."""


@dataclass(frozen=True)
class EvalConfig:
    """One evaluation condition: backend, noise, robot, dataset, seeds."""

    map_path: str
    dataset_path: str
    robot: str = "spot"
    backend: str = "kinematic"
    noise_path: str = None
    agent: str = "oracle"
    seeds: tuple = (0, 1, 2)
    workers: int = 1
    label: str = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.robot not in ROBOTS:
            raise ConfigError(f"unknown robot {self.robot!r}")
        if self.agent not in AGENTS:
            raise ConfigError(f"unknown agent {self.agent!r}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")
        if self.label is None:
            noise_tag = "-noise" if self.noise_path else ""
            object.__setattr__(
                self, "label", f"{self.robot}-{self.backend}{noise_tag}-{self.agent}")


@functools.lru_cache(maxsize=8)
def _load_context(map_path, dataset_path, robot, noise_path, contents_sha256):
    # contents_sha256 only keys the cache: a file rewritten in place misses it
    with open(map_path) as f:
        grid = world_mod.load_world(f.read())
    dataset = episodes_mod.read_dataset(dataset_path)
    spec = get_robot(robot)
    noise = noise_mod.load_noise_model(noise_path) if noise_path else None
    return grid, dataset, spec, noise


def _context(config):
    """(grid, dataset, spec, noise, dataset sha256) of config, cached by file contents."""
    digests = tuple(_sha256(p) if p else None
                    for p in (config.map_path, config.dataset_path, config.noise_path))
    return _load_context(config.map_path, config.dataset_path, config.robot,
                         config.noise_path, digests) + (digests[1],)


def _run_pairs(config, pairs, traj_dir=None):
    """Evaluate (seed, episode_id) pairs sequentially; fully deterministic.

    Pairs are evaluated grouped by goal, so only one distance field is alive
    at a time, and by episode, so the seeds of one episode run back to back.
    Every RNG stream is keyed by (seed, episode_id, purpose), so the order
    changes no result. A condition that draws from no stream (`seed_free`)
    rolls each episode out once and gives every seed a copy of that row and
    trajectory. Rows come back in evaluation order.
    """
    grid, dataset, spec, noise, _ = _context(config)
    by_id = {ep.episode_id: ep for ep in dataset.episodes}
    jobs = []
    for seed, episode_id in pairs:
        try:
            episode = by_id[episode_id]
        except KeyError:
            raise ConfigError(f"dataset has no episode {episode_id}") from None
        if episode.geodesic_distance <= 0:
            raise ConfigError(f"episode {episode_id} has non-positive geodesic distance")
        goal_key = (round(episode.goal[0], 9), round(episode.goal[1], 9))
        jobs.append((goal_key, episode_id, seed, episode))
    jobs.sort(key=lambda job: job[:2])
    # the streams built below are the noise stream (only with a noise model)
    # and the random agent's; with neither, every seed replays one rollout
    seed_free = not noise and config.agent == "oracle"
    field_key = dist_field = row = None
    rows = []
    for goal_key, episode_id, seed, episode in jobs:
        if seed_free and row is not None and row["episode_id"] == episode_id:
            row = dict(row, seed=seed)
        else:
            if goal_key != field_key:
                field_key = goal_key
                dist_field = world_mod.distance_field(grid, episode.goal,
                                                      spec.footprint_radius)
            rng_noise = np.random.default_rng(
                np.random.SeedSequence([seed, episode_id, _RNG_NOISE])) if noise else None
            env = NavEnv(grid, spec, dyn_config=BACKENDS[config.backend],
                         noise_model=noise, rng=rng_noise,
                         sensor=SensorConfig(expose_pose=True),
                         record_trajectory=bool(traj_dir))
            if config.agent == "oracle":
                agent = OracleAgent(dist_field, spec)
            else:
                agent = RandomAgent(spec, np.random.default_rng(
                    np.random.SeedSequence([seed, episode_id, _RNG_AGENT])))
            obs = env.reset(episode, dist_field)
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
        rows.append(row)
        if traj_dir:
            path = os.path.join(traj_dir, f"traj_s{seed}_e{episode_id}.csv")
            write_trajectory(res.trajectory, path)
    return rows


def _worker(args):
    config, pairs, traj_dir = args
    return _run_pairs(config, pairs, traj_dir=traj_dir)


def run_batch(config, traj_dir=None):
    """Run every (episode x seed) pair; results are independent of worker count.

    A condition with no noise model and the oracle agent draws from no RNG
    stream, so its rollout is the same for every seed: each episode is then
    simulated once, and every seed still gets its own row and trajectory.
    Noise and random-agent conditions simulate every pair. Workers receive
    whole episodes, all seeds of one episode in the same chunk.

    With traj_dir, each pair's trajectory is written there as
    traj_s<seed>_e<episode_id>.csv, by whichever worker evaluates it.
    Returns (summary dict, per-episode row dicts sorted by (seed, episode_id)).
    """
    grid, dataset, spec, noise, dataset_sha256 = _context(config)
    if traj_dir:
        os.makedirs(traj_dir, exist_ok=True)
    ids = [ep.episode_id for ep in dataset.episodes]
    if config.workers == 1 or len(ids) < 2:
        rows = _run_pairs(config, [(seed, i) for seed in config.seeds for i in ids],
                          traj_dir=traj_dir)
    else:
        nchunks = min(len(ids), config.workers * 4)
        chunks = [[(seed, i) for i in ids[k::nchunks] for seed in config.seeds]
                  for k in range(nchunks)]
        rows = []
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for part in pool.map(_worker, [(config, c, traj_dir) for c in chunks]):
                rows.extend(part)
    rows.sort(key=lambda r: (r["seed"], r["episode_id"]))
    summary = _summarize(config, rows, dataset_sha256)
    return summary, rows


def _summarize(config, rows, dataset_sha256):
    summary = {
        "label": config.label,
        "map": config.map_path,
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


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


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
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(EPISODE_FIELDS)
        for r in rows:
            writer.writerow([r["seed"], r["episode_id"], r["success"],
                             f"{r['spl']:.6g}", r["num_actions"], r["num_collisions"],
                             f"{r['path_length']:.6g}", f"{r['total_reward']:.6g}",
                             r["termination_reason"]])


def read_episode_rows(path):
    import csv

    rows = []
    with open(path, newline="") as f:
        for rec in csv.DictReader(f):
            rows.append({
                "seed": int(rec["seed"]), "episode_id": int(rec["episode_id"]),
                "success": int(rec["success"]), "spl": float(rec["spl"]),
                "num_actions": int(rec["num_actions"]),
                "num_collisions": int(rec["num_collisions"]),
                "path_length": float(rec["path_length"]),
                "total_reward": float(rec["total_reward"]),
                "termination_reason": rec["termination_reason"],
            })
    return rows


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
    """Gap comparison across different datasets or seed sets refused."""


@dataclass
class GapTable:
    """Success rates per condition label plus all pairwise gaps (row - column)."""

    labels: list
    sr: dict
    gaps: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.gaps is None:
            vals = np.array([self.sr[l] for l in self.labels])
            self.gaps = vals[:, None] - vals[None, :]

    def gap(self, row_label, col_label):
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return float(self.gaps[i, j])

    def to_text(self):
        width = max(len(l) for l in self.labels) + 2
        lines = ["success rates (%)"]
        for l in self.labels:
            lines.append(f"  {l:<{width}} {self.sr[l]:7.2f}")
        lines.append("")
        lines.append("pairwise gaps, row minus column (%)")
        header = " " * (width + 2) + "".join(f"{l:>{width}}" for l in self.labels)
        lines.append(header)
        for i, l in enumerate(self.labels):
            cells = "".join(f"{self.gaps[i, j]:>{width}.2f}" for j in range(len(self.labels)))
            lines.append(f"  {l:<{width}}{cells}")
        return "\n".join(lines) + "\n"


def sim2sim_gap(results_by_label):
    """Build a GapTable from {label: (summary, rows)} pairs.

    Refuses to compare runs evaluated on different datasets or seed sets.
    """
    labels = sorted(results_by_label)
    ref = None
    sr = {}
    for label in labels:
        summary, rows = results_by_label[label]
        key = (summary["dataset_sha256"], summary["seeds"])
        if ref is None:
            ref = key
        elif key != ref:
            raise DatasetMismatchError(
                f"run {label!r} used a different dataset or seeds")
        if not rows:
            raise DatasetMismatchError(f"run {label!r} has no episodes")
        sr[label] = 100.0 * sum(r["success"] for r in rows) / len(rows)
    return GapTable(labels, sr)


# -- throughput --------------------------------------------------------------


def bench_throughput(grid, spec, backends=BACKENDS, steps=2000, warmup=1000,
                     seed=0, substeps=None):
    """Control-steps per second for each backend on the same map and agent.

    Observational only: every backend runs the same `warmup` and then `steps`
    timed random commands from a fixed seed.
    Returns {backend: steps/sec} plus 'ratio_<b>' entries relative to kinematic.
    """
    passable = grid.passable_mask(spec.footprint_radius)
    iys, ixs = np.nonzero(passable)
    if len(ixs) == 0:
        raise ValueError("map has no free non-inflated cells")
    start = grid.cell_center(int(ixs[len(ixs) // 2]), int(iys[len(iys) // 2]))
    rng = np.random.default_rng(seed)
    total = warmup + steps
    cmds = [VelocityCommand(vx, vy, w) for vx, vy, w in np.column_stack([
        rng.uniform(-spec.lin_limit, spec.lin_limit, total),
        rng.uniform(-spec.lin_limit, spec.lin_limit, total),
        rng.uniform(-spec.ang_limit, spec.ang_limit, total)])]

    from .motion import Pose

    results = {}
    for backend in backends:
        pose = Pose(start[0], start[1], 0.0)
        vel = VelocityCommand(0.0, 0.0, 0.0)
        cfg = BACKENDS[backend]
        if cfg is None:
            for cmd in cmds[:warmup]:
                pose, _ = kinematic_step(grid, pose, cmd, 1.0, spec)
            t0 = time.perf_counter()
            for cmd in cmds[warmup:]:
                pose, _ = kinematic_step(grid, pose, cmd, 1.0, spec)
        else:
            if substeps is not None:
                cfg = replace(cfg, substeps=substeps)
            for cmd in cmds[:warmup]:
                pose, vel, _ = dynamic_lite_step(grid, pose, vel, cmd, cfg, spec)
            t0 = time.perf_counter()
            for cmd in cmds[warmup:]:
                pose, vel, _ = dynamic_lite_step(grid, pose, vel, cmd, cfg, spec)
        results[backend] = steps / (time.perf_counter() - t0)
    if "kinematic" in results:
        for backend in backends:
            if backend != "kinematic":
                results[f"ratio_{backend}"] = results["kinematic"] / results[backend]
    return results
