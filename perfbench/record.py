"""Record a workload's reference outputs from the kinnav sources in this checkout.

    python3 perfbench/record.py --workload all [--maze-seed 77 --episode-seed 5]

Runs each workload once on its episodes in generation order and writes
``perfbench/reference/<workload>-m<maze seed>-e<episode seed>.json``: every
row as ``write_episode_rows`` writes it, the exact SPL values, the depth sums
for navenv-depth, the generated map's hash and the generated dataset. Record
at the commit a change is measured against; ``run.py`` checks every pass of
that change against it.
"""

import argparse
import json
import os
import platform
import tempfile

import inputs
import run


def record(workload, maze_seed, episode_seed):
    spec = run.WORKLOADS[workload]
    n = spec["episodes"]
    order = list(range(n))
    with tempfile.TemporaryDirectory() as tmp:
        map_path, dataset_path, pool = inputs.make_inputs(
            n, order, maze_seed, episode_seed, tmp)
        out = run.run_pass(workload, map_path, dataset_path, order)
        lines = run.written_rows(out.rows, os.path.join(tmp, "episodes.csv")).decode()
        map_sha = inputs.file_sha256(map_path)
    rows = {str(s): [] for s in spec["seeds"]}
    for line in lines.splitlines()[1:]:
        seed, _, tail = line.split(",", 2)
        rows[seed].append(tail)
    spl = {str(s): [r["spl"] for r in out.rows if r["seed"] == s] for s in spec["seeds"]}
    ref = {
        "workload": workload, "maze_seed": maze_seed, "episode_seed": episode_seed,
        "episodes": n, "run_seeds": list(spec["seeds"]),
        "source_sha256": inputs.source_sha256(), "python": platform.python_version(),
        "sr_pct": out.sr_pct, "spl_mean": out.spl_mean,
        "total_steps": sum(r["num_actions"] for r in out.rows),
        "digest": run.expected_digest({"rows": rows}, order, spec["seeds"]),
        "map_sha256": map_sha, "canonical_dataset": inputs.dataset_text(pool),
        "rows": rows, "spl": spl,
    }
    if out.depth:
        ref["depth"] = {str(s): [f"{out.depth[(s, j)]:.6g}" for j in order]
                        for s in spec["seeds"]}
    path = run.reference_path(workload, maze_seed, episode_seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"{workload}: {n} episodes x seeds {list(spec['seeds'])}, sr_pct {out.sr_pct:.6g}, "
          f"spl_mean {out.spl_mean:.6g}, steps {ref['total_steps']} -> {os.path.relpath(path)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS) + ["all"])
    p.add_argument("--maze-seed", type=int, default=inputs.DEFAULT_MAZE_SEED)
    p.add_argument("--episode-seed", type=int, default=inputs.DEFAULT_EPISODE_SEED)
    args = p.parse_args()
    inputs.use_checkout_sources()
    names = sorted(run.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record(name, args.maze_seed, args.episode_seed)


if __name__ == "__main__":
    main()
