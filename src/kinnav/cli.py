"""Command-line interface: episode generation, evaluation, gaps, benchmarks, plots."""

import argparse
import csv
import os
import sys

import numpy as np

from . import episodes as episodes_mod
from . import harness as harness_mod
from . import noise as noise_mod
from . import plotting
from . import task as task_mod
from . import world as world_mod
from .robots import ROBOTS, get_robot


def _load_grid(path):
    with open(path) as f:
        return world_mod.load_world(f.read())


def cmd_gen_episodes(args):
    grid = _load_grid(args.map)
    spec = get_robot(args.robot)
    ds = episodes_mod.sample_episodes(grid, args.n, args.seed, spec,
                                      ratio_min=args.ratio_min,
                                      scene_id=os.path.basename(args.map))
    episodes_mod.write_dataset(ds, args.out)
    print(f"wrote {len(ds.episodes)} episodes to {args.out}")


def cmd_run(args):
    seeds = tuple(int(s) for s in args.seeds.split(","))
    config = harness_mod.EvalConfig(
        map_path=args.map, dataset_path=args.dataset, robot=args.robot,
        backend=args.backend, noise_path=None if args.noise == "none" else args.noise,
        agent=args.agent, seeds=seeds, workers=args.workers)
    summary, rows = harness_mod.run_batch(config, traj_dir=args.traj_dir)
    harness_mod.save_run(args.out, summary, rows)
    for k in ("label", "episodes", "sr_pct", "spl_mean", "actions_mean", "collisions_mean"):
        if k in summary:
            v = summary[k]
            print(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}")


def cmd_gap(args):
    results = {}
    for name in sorted(os.listdir(args.results)):
        run_dir = os.path.join(args.results, name)
        if os.path.isfile(os.path.join(run_dir, "summary.kv")):
            summary, rows = harness_mod.load_run(run_dir)
            results[summary.get("label", name)] = (summary, rows)
    if not results:
        raise harness_mod.ConfigError(f"no run directories under {args.results}")
    table = harness_mod.sim2sim_gap(results)
    text = table.to_text()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text, end="")


def cmd_bench(args):
    grid = _load_grid(args.map)
    spec = get_robot(args.robot)
    backends = harness_mod.BACKENDS if args.backend == "all" else (args.backend,)
    if args.backend != "all" and args.backend != "kinematic":
        backends = ("kinematic",) + backends  # ratio needs the kinematic baseline
    results = harness_mod.bench_throughput(grid, spec, backends=backends,
                                           steps=args.steps)
    for k, v in results.items():
        print(f"{k} {v:.6g}")


def cmd_fit_noise(args):
    log = []
    columns = ["cmd_vx", "cmd_vy", "cmd_w", "meas_vx", "meas_vy", "meas_w"]
    if args.mode == "decoupled":
        columns.append("axis")
    with open(args.log, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.log}: missing column(s) {', '.join(missing)}")
        for rec in reader:
            cmd = (float(rec["cmd_vx"]), float(rec["cmd_vy"]), float(rec["cmd_w"]))
            meas = (float(rec["meas_vx"]), float(rec["meas_vy"]), float(rec["meas_w"]))
            if args.mode == "decoupled":
                log.append((cmd, meas, rec["axis"]))
            else:
                log.append((cmd, meas))
    model = noise_mod.fit_noise_model(log, args.mode)
    noise_mod.save_noise_model(model, args.out)
    print(f"wrote {args.mode} noise model to {args.out} "
          f"(mu {model.mu.round(4).tolist()}, sigma {model.sigma.round(4).tolist()})")


def cmd_plot(args):
    grid = _load_grid(args.map)
    trajectories = []
    for path in args.traj:
        records = task_mod.read_trajectory(path)
        # success is not recorded in the log, so every route is drawn in the success color
        trajectories.append((records, True))
    svg = plotting.emit_plot(grid, trajectories)
    with open(args.out, "w") as f:
        f.write(svg)
    print(f"wrote {args.out}")


def build_parser():
    p = argparse.ArgumentParser(prog="kinnav",
                                description="2D PointGoal navigation simulator and harness")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-episodes", help="generate an episode dataset")
    g.add_argument("--map", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--ratio-min", type=float, default=episodes_mod.DEFAULT_RATIO_MIN)
    g.add_argument("--robot", default="spot", choices=sorted(ROBOTS))
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_episodes)

    r = sub.add_parser("run", help="evaluate an agent over a dataset")
    r.add_argument("--map", required=True)
    r.add_argument("--dataset", required=True)
    r.add_argument("--robot", default="spot", choices=sorted(ROBOTS))
    r.add_argument("--backend", default="kinematic", choices=harness_mod.BACKENDS)
    r.add_argument("--noise", default="none")
    r.add_argument("--agent", default="oracle", choices=harness_mod.AGENTS)
    r.add_argument("--seeds", default="0,1,2")
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--traj-dir", default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    gp = sub.add_parser("gap", help="cross-fidelity gap table from run outputs")
    gp.add_argument("--results", required=True)
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=cmd_gap)

    b = sub.add_parser("bench", help="steps-per-second throughput benchmark")
    b.add_argument("--map", required=True)
    b.add_argument("--backend", default="all", choices=("all", *harness_mod.BACKENDS))
    b.add_argument("--robot", default="spot", choices=sorted(ROBOTS))
    b.add_argument("--steps", type=int, default=2000)
    b.set_defaults(func=cmd_bench)

    f = sub.add_parser("fit-noise", help="fit an actuation-noise model from a CSV log")
    f.add_argument("--log", required=True)
    f.add_argument("--mode", required=True, choices=noise_mod.MODES)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fit_noise)

    pl = sub.add_parser("plot", help="render trajectories over the map as SVG")
    pl.add_argument("--map", required=True)
    pl.add_argument("--traj", nargs="+", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
