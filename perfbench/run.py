"""Closed-loop kinnav benchmark: one workload per process, one client that waits on every step.

    python3 perfbench/run.py --workload kin-oracle --seed 0 --seconds 30 --trace 0

Workloads (all on the 64x64, 0.25 m maze and Spot, workers=1):

- ``kin-oracle``: ``run_batch``, kinematic backend, oracle, no noise, 200
  episodes x seeds (0, 1, 2). The oracle's ``descent_path`` and per-step
  ``clearance`` dominate; the backend is under 5 %.
- ``dynb-oracle``: ``run_batch``, dynlite-b, oracle, no noise, 60 episodes x
  seed 0. ``blocked`` and ``penetration`` inside the 240-substep loop dominate.
- ``navenv-depth``: the single-env API driven from here, mirroring
  ``harness._run_pairs``: ``NavEnv`` + ``OracleAgent``, kinematic backend, the
  bundled coupled Spot noise keyed by (seed, episode, 0), and a policy that
  reads the 64-ray depth fan every step. It bypasses ``run_batch``.

Set-up (imports, maze, episode sampling, dataset write and read) runs three
times in fresh processes; ``setup_s`` is the median. The workload then runs in
whole passes, as many as come closest to filling ``--seconds``; throughput is
the median over passes. Every pass reads fresh copies of the input files, so
it pays the map load and the grid's collision-checker and clearance builds as
a kinnav run, which evaluates its files once per process, does.

The timed metrics are scaled to the speed of a quiet reference host, as a
shared host's speed can swing twofold within seconds: each pass and each
set-up by probes timed from a timer signal while it runs (``hostspeed``).
The wall-clock figures are in the details.

Every pass's rows, as ``write_episode_rows`` writes them, are checked line by
line against a reference recorded by ``record.py``; an episode that raised or
whose row differs counts as failed.

With ``--trace 1`` the run instead alternates a traced and an untraced pass
and reports per-layer metrics from the traced passes (see ``tracing.py``) and
the tracing overhead. The last stdout line is the JSON result; the line before
it holds the details.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(inputs.ROOT, ".bench_work")
SETUP_REPEATS = 3
NOISE_PURPOSE = 0  # harness._RNG_NOISE: noise streams keyed by (seed, episode, 0)

WORKLOADS = {
    "kin-oracle": {"episodes": 200, "seeds": (0, 1, 2), "backend": "kinematic"},
    "dynb-oracle": {"episodes": 60, "seeds": (0,), "backend": "dynlite-b"},
    "navenv-depth": {"episodes": 200, "seeds": (0,), "backend": None},
}


# -- one pass of a workload ----------------------------------------------------


class PassOutput:
    """Rows in (seed, episode_id) order, the summary figures, and navenv depth sums."""

    def __init__(self, rows, sr_pct, spl_mean, depth=None):
        self.rows = rows
        self.sr_pct = sr_pct
        self.spl_mean = spl_mean
        self.depth = depth or {}


def batch_pass(backend, seeds, map_path, dataset_path):
    from kinnav import harness

    summary, rows = harness.run_batch(harness.EvalConfig(
        map_path, dataset_path, backend=backend, seeds=seeds))
    return PassOutput(rows, summary["sr_pct"], summary["spl_mean"])


def navenv_pass(seeds, map_path, dataset_path, pool_ids):
    """The single-env loop of ``harness._run_pairs``, plus a depth read every step.

    Noise streams are keyed by the episode's index in the generated pool, so
    they do not depend on the order the run's dataset lists the episodes in.
    An episode that raises is left out of the rows and so counts as failed.
    """
    import numpy as np

    from kinnav import agents, episodes, noise, task, world
    from kinnav.robots import SPOT

    with open(map_path) as f:
        grid = world.load_world(f.read())
    dataset = episodes.read_dataset(dataset_path)
    model = noise.reference_model("coupled")
    fields = {}
    rows, depth = [], {}
    for seed in seeds:
        for ep in dataset.episodes:
            try:
                key = (round(ep.goal[0], 9), round(ep.goal[1], 9))
                if key not in fields:
                    fields[key] = world.distance_field(grid, ep.goal, SPOT.footprint_radius)
                rng = np.random.default_rng(np.random.SeedSequence(
                    [seed, pool_ids[ep.episode_id], NOISE_PURPOSE]))
                env = task.NavEnv(grid, SPOT, noise_model=model, rng=rng,
                                  sensor=task.SensorConfig(expose_pose=True))
                agent = agents.OracleAgent(fields[key], SPOT)
                obs = env.reset(ep, fields[key])
                memory = agent.reset()
                depth_sum = 0.0
                done = False
                while not done:
                    depth_sum += float(obs.depth.sum())
                    action, memory = agent.act(obs, memory)
                    obs, _, done, _ = env.step(action)
                res = env.result()
            except Exception as exc:  # counted as a failed episode, run goes on
                print(f"perfbench: seed {seed} episode {ep.episode_id} raised {exc!r}",
                      file=sys.stderr)
                continue
            depth[(seed, ep.episode_id)] = depth_sum
            rows.append({
                "seed": seed, "episode_id": ep.episode_id, "success": int(res.success),
                "spl": res.spl, "num_actions": res.num_actions,
                "num_collisions": res.num_collisions, "path_length": res.path_length,
                "total_reward": res.total_reward,
                "termination_reason": res.termination_reason,
            })
    n = len(rows)
    sr = 100.0 * sum(r["success"] for r in rows) / n if n else None
    spl = sum(r["spl"] for r in rows) / n if n else None
    return PassOutput(rows, sr, spl, depth)


def run_pass(workload, map_path, dataset_path, pool_ids):
    spec = WORKLOADS[workload]
    if spec["backend"] is None:
        return navenv_pass(spec["seeds"], map_path, dataset_path, pool_ids)
    return batch_pass(spec["backend"], spec["seeds"], map_path, dataset_path)


# -- checking against the reference ------------------------------------------


def reference_path(workload, maze_seed, episode_seed):
    return os.path.join(HERE, "reference", f"{workload}-m{maze_seed}-e{episode_seed}.json")


def written_rows(rows, path):
    """The rows exactly as ``write_episode_rows`` writes them."""
    from kinnav import harness

    harness.write_episode_rows(rows, path)
    with open(path, "rb") as f:
        return f.read()


def expected_rows(ref, order, seeds):
    from kinnav.harness import EPISODE_FIELDS

    lines = [",".join(EPISODE_FIELDS)]
    for seed in seeds:
        tails = ref["rows"][str(seed)]
        lines += [f"{seed},{j},{tails[p]}" for j, p in enumerate(order)]
    return lines


def check_pass(ref, order, seeds, out, csv_path):
    """Compare one pass with the reference. Returns (failed episodes, digest, summary ok)."""
    data = written_rows(out.rows, csv_path)
    actual = data.decode().splitlines()
    expected = expected_rows(ref, order, seeds)
    keys = [(s, j) for s in seeds for j in range(len(order))]
    by_key = {tuple(int(v) for v in line.split(",", 2)[:2]): line for line in actual[1:]}
    bad = {key for key, line in zip(keys, expected[1:]) if by_key.get(key) != line}
    if "depth" in ref:
        bad |= {(s, j) for s, j in keys
                if f"{out.depth.get((s, j), float('nan')):.6g}" != ref["depth"][str(s)][order[j]]}
    success = [int(ref["rows"][str(s)][p].split(",")[0]) for s in seeds for p in order]
    spl = [ref["spl"][str(s)][p] for s in seeds for p in order]
    steps = [int(ref["rows"][str(s)][p].split(",")[2]) for s in seeds for p in order]
    summary_ok = (
        len(actual) == len(expected) and actual[0] == expected[0]
        and out.sr_pct is not None
        and f"{out.sr_pct:.6g}" == f"{100.0 * sum(success) / len(success):.6g}"
        and f"{out.spl_mean:.6g}" == f"{sum(spl) / len(spl):.6g}"
        and sum(r["num_actions"] for r in out.rows) == sum(steps))
    return len(bad), hashlib.sha256(data).hexdigest(), summary_ok


def expected_digest(ref, order, seeds):
    text = "\n".join(expected_rows(ref, order, seeds)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def inputs_match(ref, n, map_sha, canonical):
    """The generated maze and episodes are the ones the reference was recorded on."""
    lines = canonical.splitlines()
    ref_lines = ref["canonical_dataset"].splitlines()
    return map_sha == ref["map_sha256"] and lines == ref_lines[:n + 1]


# -- set-up ----------------------------------------------------------------------


def timed_setup(args, n, out_dir):
    """One set-up in a fresh process: its timing and its report on the inputs.

    The timing holds the seconds from its launch to ``ready``, the same less
    the time its host-speed probes took, and the host's slowdown meanwhile.
    """
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--episodes", str(n),
           "--seed", str(args.seed), "--maze-seed", str(args.maze_seed),
           "--episode-seed", str(args.episode_seed), "--out", out_dir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"set-up process failed with status {proc.returncode}")
    report = json.loads(rest)
    # the set-up process probes the host while it works; take its probes' time out
    timing = {"wall_s": seconds, "work_s": seconds - report.pop("probe_s"),
              "host_slowdown": report.pop("host_slowdown")}
    return timing, report


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(stats, counters, episodes_run):
    """Per-layer figures of one traced pass, named as in BENCHMARK.json.

    ``stats`` maps every traced name to (calls, total seconds, self seconds).
    """
    out = {}
    for name in ("world.descent_path", "world.clearance", "world.blocked", "world.penetration",
                 "world.value_at", "world.distance_field", "motion.kinematic_step",
                 "motion.dynamic_lite_step", "noise.apply_noise", "agents.act",
                 "task.step", "task.reset"):
        out[f"{name}.calls"], _, out[f"{name}.self_s"] = stats[name]
    pen = stats["world.penetration"][0]
    substeps = counters["motion.substeps"]
    out.update({
        "world.descent_path.cells": counters["world.descent_path.cells"],
        "world.penetration.useful_frac":
            counters["world.penetration.useful"] / pen if pen else 0.0,
        "world.raycast.calls": stats["world.raycast"][0],
        "world.collision_checker.build_s": stats["world.collision_checker.build"][1],
        "world.center_clearance.build_s": stats["world.center_clearance"][1],
        "motion.substeps": substeps,
        "motion.contact_substeps": counters["motion.contact_substeps"],
        "motion.contact_frac":
            counters["motion.contact_substeps"] / substeps if substeps else 0.0,
        "motion.falls": counters["motion.falls"],
        "task.depth_fan.self_s": stats["task.depth_fan"][2],
        "harness.run_batch.self_s": stats["harness.run_batch"][2],
        "harness.field_reuse_frac": 1.0 - stats["world.distance_field"][0] / episodes_run,
    })
    return out


def setup_metrics(stats, counters):
    validated = stats["episodes.validate_episode"][0]
    return {
        "episodes.sample_episodes_s": stats["episodes.sample_episodes"][1],
        "episodes.accept_frac":
            counters["episodes.validate_episode.accepted"] / validated if validated else 0.0,
        "maps.random_maze_s": stats["maps.random_maze"][1],
    }


# -- runs ------------------------------------------------------------------------


def fresh_inputs(map_path, dataset_path, pass_dir):
    """Copies of the input files under new paths, so no path-keyed cache serves the pass."""
    os.makedirs(pass_dir, exist_ok=True)
    return [shutil.copyfile(p, os.path.join(pass_dir, os.path.basename(p)))
            for p in (map_path, dataset_path)]


def drop_cached_contexts():
    """Empty run_batch's context cache, which would keep earlier passes' grids alive.

    The cache is private to kinnav, so a kinnav without it is run as it is.
    """
    from kinnav import harness

    cache_clear = getattr(getattr(harness, "_load_context", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def measured_pass(args, ref, order, map_path, dataset_path, pass_dir,
                  span=contextlib.nullcontext()):
    """Run one pass on fresh copies of the inputs, timed, and check it against the reference."""
    paths = fresh_inputs(map_path, dataset_path, pass_dir)
    # free earlier passes' grids and their cyclic garbage (grids and their
    # collision checkers refer to each other), so peak memory does not grow
    # with the number of passes
    drop_cached_contexts()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with span:
            out = run_pass(args.workload, *paths, order)
    except Exception as exc:  # the whole pass failed; every episode in it counts
        print(f"perfbench: pass raised {exc!r}", file=sys.stderr)
        out = PassOutput([], None, None)
    wall = time.perf_counter() - t0
    failed, digest, summary_ok = check_pass(ref, order, WORKLOADS[args.workload]["seeds"],
                                            out, os.path.join(pass_dir, "episodes.csv"))
    shutil.rmtree(pass_dir)
    return {"wall_s": wall, "episodes": len(out.rows),
            "steps": sum(r["num_actions"] for r in out.rows),
            "failed": failed, "digest": digest, "summary_ok": summary_ok}


def more_time(start, last_wall, seconds):
    """Whether another pass of ``last_wall`` seconds ends nearer ``seconds`` than stopping now."""
    return time.perf_counter() - start + 0.5 * last_wall < seconds


def peak_rss_mb():
    """Peak resident memory of this process or of any set-up process it ran."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def plain_run(args, ref, order, work):
    n = len(order)
    setups = [timed_setup(args, n, os.path.join(work, f"setup{k}"))
              for k in range(SETUP_REPEATS)]
    report = setups[0][1]
    same_files = all(r == report for _, r in setups)
    ok_inputs = same_files and inputs_match(ref, n, report["map_sha256"],
                                            report["canonical_dataset"])
    map_path = os.path.join(work, "setup0", "maze.map")
    dataset_path = os.path.join(work, "setup0", "episodes.jsonl")

    probe = hostspeed.Probe()
    passes = []
    start = time.perf_counter()
    while not passes or more_time(start, passes[-1]["wall_s"], args.seconds):
        host = hostspeed.HostSpeed(probe)
        record = measured_pass(args, ref, order, map_path, dataset_path,
                               os.path.join(work, f"pass{len(passes)}"), span=host)
        record["work_s"] = host.work_s(record["wall_s"])
        record["host_slowdown"] = host.slowdown()
        passes.append(record)

    metrics = {
        "episodes_per_s": statistics.median(
            p["episodes"] / p["work_s"] * p["host_slowdown"] for p in passes),
        "steps_per_s": statistics.median(
            p["steps"] / p["work_s"] * p["host_slowdown"] for p in passes),
        "setup_s": statistics.median(t["work_s"] / t["host_slowdown"] for t, _ in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = {
        "episodes_per_s": statistics.median(p["episodes"] / p["wall_s"] for p in passes),
        "steps_per_s": statistics.median(p["steps"] / p["wall_s"] for p in passes),
        "setup_s": statistics.median(t["wall_s"] for t, _ in setups),
    }
    details = {"setup_runs": [t for t, _ in setups],
               "inputs_match_reference": ok_inputs, "setup_files_identical": same_files,
               "wall_clock": wall}
    return passes, metrics, details, ok_inputs


def traced_run(args, ref, order, work):
    import tracing

    spec = WORKLOADS[args.workload]
    n = len(order)
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        map_path, dataset_path, pool = inputs.make_inputs(
            n, order, args.maze_seed, args.episode_seed, os.path.join(work, "setup"))
    tracer.uninstall()
    layers_setup = setup_metrics(*tracer.take())
    ok_inputs = inputs_match(ref, n, inputs.file_sha256(map_path), inputs.dataset_text(pool))

    passes, layers, ranking = [], [], None
    start = time.perf_counter()
    k = 0
    while not passes or more_time(start, passes[-1]["wall_s"] + passes[-2]["wall_s"],
                                  args.seconds):
        for traced in (True, False):
            if traced:
                tracer.install()
            record = measured_pass(
                args, ref, order, map_path, dataset_path, os.path.join(work, f"pass{k}"),
                span=tracer.span("bench.pass") if traced else contextlib.nullcontext())
            k += 1
            record["traced"] = traced
            if traced:
                tracer.uninstall()
                stats, counters = tracer.take()
                # the benchmark's own spans hold the time no kinnav call accounts for
                self_sum = sum(s[2] for name, s in stats.items() if not name.startswith("bench."))
                record["unattributed_frac"] = abs(record["wall_s"] - self_sum) / record["wall_s"]
                layers.append(layer_metrics(stats, counters, n * len(spec["seeds"])))
                if ranking is None:
                    ranking = sorted(((s[2], name) for name, s in stats.items()), reverse=True)
            passes.append(record)

    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    unattributed = max(p["unattributed_frac"] for p in passes if p["traced"])
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(layers_setup)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    metrics["trace.unattributed_frac"] = unattributed
    tracer.write(os.path.join(work, "trace.jsonl.gz"))
    wall0 = traced_walls[0]
    details = {
        "inputs_match_reference": ok_inputs,
        "untraced_digest_equals_traced": len({p["digest"] for p in passes}) == 1,
        "self_time_ranking": [[name, s, s / wall0] for s, name in ranking[:8]],
        "not_traced": tracer.missing,
        "spans_recorded": len(tracer.spans),
    }
    ok = ok_inputs and details["untraced_digest_equals_traced"] and unattributed <= 0.05
    return passes, metrics, details, ok


def declared_units():
    """Units of the metrics BENCHMARK.json declares, by trace mode and name."""
    with open(os.path.join(inputs.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {trace: {m["name"]: m["unit"] for m in bench[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="orders the episodes in the run's dataset file")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--maze-seed", type=int, default=inputs.DEFAULT_MAZE_SEED)
    p.add_argument("--episode-seed", type=int, default=inputs.DEFAULT_EPISODE_SEED)
    p.add_argument("--episodes", type=int, default=None,
                   help="run only the first N episodes of the workload (smoke tests)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    inputs.use_checkout_sources()
    import kinnav.harness  # noqa: F401  (imported before any pass is timed)

    ref_path = reference_path(args.workload, args.maze_seed, args.episode_seed)
    if not os.path.isfile(ref_path):
        sys.exit(f"perfbench: no reference {os.path.relpath(ref_path)}; record one at the "
                 f"parent commit with perfbench/record.py")
    with open(ref_path) as f:
        ref = json.load(f)
    n = args.episodes or WORKLOADS[args.workload]["episodes"]
    if not 1 <= n <= ref["episodes"]:
        p.error(f"--episodes must be between 1 and {ref['episodes']}")
    order = inputs.episode_order(args.seed, n)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    units = declared_units()[args.trace]
    run = traced_run if args.trace else plain_run
    passes, metrics, details, ok = run(args, ref, order, work)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are emitted but "
                 f"not declared in BENCHMARK.json, or declared but not emitted")
    seeds = WORKLOADS[args.workload]["seeds"]
    attempted = len(passes) * n * len(seeds)
    failed = sum(p["failed"] for p in passes)
    want = expected_digest(ref, order, seeds)
    correct = (ok and failed == 0 and all(p["summary_ok"] for p in passes)
               and all(p["digest"] == want for p in passes))
    details.update({
        "workload": args.workload, "seed": args.seed, "maze_seed": args.maze_seed,
        "episode_seed": args.episode_seed, "episodes": n, "run_seeds": list(seeds),
        "trace": args.trace, "seconds": args.seconds, "expected_digest": want,
        "fail_frac": failed / attempted, "passes": passes,
        "source_matches_reference": inputs.source_sha256() == ref["source_sha256"],
        "environment": environment(),
    })
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": units[name]}
                          for name, v in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"details": details, "result": result}, f, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} correct={correct} failed={failed}/{attempted}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"details": details}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
