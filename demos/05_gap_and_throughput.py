"""Cross-fidelity gap and the fidelity/throughput trade-off.

Evaluates the same oracle agent on the same episodes under the kinematic
backend and the sluggish dynlite-b backend (config PROFILES["profile-B"]),
prints the success-rate gap table, then benchmarks raw control-steps per
second for each backend.

Run with: python3 demos/05_gap_and_throughput.py  (takes ~15 s)
"""

import os
import tempfile

from kinnav import (EvalConfig, bench_throughput, run_batch, sample_episodes,
                    save_world, sim2sim_gap, write_dataset)
from kinnav.maps import random_maze
from kinnav.robots import SPOT

grid = random_maze(64, 64, 0.25, seed=7)
with tempfile.TemporaryDirectory() as tmp:
    map_path = os.path.join(tmp, "maze.map")
    with open(map_path, "w") as f:
        f.write(save_world(grid))
    ds_path = os.path.join(tmp, "episodes.jsonl")
    write_dataset(sample_episodes(grid, 20, seed=1, largest_spec=SPOT), ds_path)

    results = {}
    for backend in ("kinematic", "dynlite-b"):
        config = EvalConfig(map_path, ds_path, backend=backend, seeds=(0,))
        print(f"evaluating {config.label} ...")
        results[config.label] = run_batch(config)
    table = sim2sim_gap(results)
    print()
    print(table.to_text())

print("throughput on the same map (steps of simulated control per second):")
bench = bench_throughput(grid, SPOT, steps=4000, warmup=500)
for backend in ("kinematic", "dynlite-a", "dynlite-b"):
    print(f"  {backend:10s} {bench[backend]:12.0f} steps/s")
print(f"  kinematic advantage: {bench['ratio_dynlite-a']:.0f}x over dynlite-a, "
      f"{bench['ratio_dynlite-b']:.0f}x over dynlite-b")
print("\nthe kinematic backend trades contact fidelity for orders of")
print("magnitude more experience per wall-clock second; the gap table above")
print("shows what that fidelity difference costs the same agent.")
