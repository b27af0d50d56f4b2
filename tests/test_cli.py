import csv
import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from kinnav.cli import main
from kinnav.episodes import read_dataset
from kinnav.maps import random_maze
from kinnav.noise import load_noise_model
from kinnav.world import OccupancyGrid, load_world, save_world


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    grid = random_maze(48, 48, 0.25, seed=41)
    map_path = str(root / "maze.map")
    with open(map_path, "w") as f:
        f.write(save_world(grid))
    return root, map_path


def test_gen_run_gap_plot_pipeline(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "5",
                 "--seed", "2", "--out", ds]) == 0
    assert os.path.exists(ds)

    run_kin = str(root / "results" / "kin")
    traj_dir = str(root / "traj")
    assert main(["run", "--map", map_path, "--dataset", ds,
                 "--backend", "kinematic", "--seeds", "0",
                 "--traj-dir", traj_dir, "--out", run_kin]) == 0
    assert os.path.exists(os.path.join(run_kin, "summary.kv"))
    assert os.path.exists(os.path.join(run_kin, "episodes.csv"))
    trajs = sorted(os.listdir(traj_dir))
    assert len(trajs) == 5
    out = capsys.readouterr().out
    assert "sr_pct 100" in out

    run_dyn = str(root / "results" / "dynb")
    assert main(["run", "--map", map_path, "--dataset", ds,
                 "--backend", "dynlite-b", "--seeds", "0",
                 "--out", run_dyn]) == 0

    gap_out = str(root / "gap.txt")
    assert main(["gap", "--results", str(root / "results"),
                 "--out", gap_out]) == 0
    text = open(gap_out).read()
    assert "spot-kinematic-oracle" in text
    assert "spot-dynlite-b-oracle" in text

    svg_out = str(root / "plot.svg")
    traj_files = [os.path.join(traj_dir, t) for t in trajs[:2]]
    assert main(["plot", "--map", map_path, "--traj"] + traj_files +
                ["--out", svg_out]) == 0
    assert open(svg_out).read().startswith("<svg")


def test_run_with_noise_file(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "eps.jsonl")
    from importlib import resources
    noise_path = str(root / "spot.noise")
    with open(noise_path, "w") as f:
        f.write(resources.files("kinnav.data").joinpath("spot_coupled.noise").read_text())
    out_dir = str(root / "results_noise")
    assert main(["run", "--map", map_path, "--dataset", ds,
                 "--noise", noise_path, "--seeds", "0",
                 "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "label spot-kinematic-noise-oracle" in out


def test_bench_command(workspace, capsys):
    root, map_path = workspace
    assert main(["bench", "--map", map_path, "--backend", "dynlite-a",
                 "--steps", "300"]) == 0
    out = capsys.readouterr().out
    assert "kinematic" in out
    assert "ratio_dynlite-a" in out


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_bench_refuses_steps_below_one(workspace, capsys, steps):
    root, map_path = workspace
    assert main(["bench", "--map", map_path, "--backend", "kinematic",
                 "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_fit_noise_command(workspace, capsys):
    root, map_path = workspace
    rng = np.random.default_rng(0)
    log_path = str(root / "log.csv")
    with open(log_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["cmd_vx", "cmd_vy", "cmd_w", "meas_vx", "meas_vy", "meas_w"])
        for _ in range(500):
            cmd = rng.uniform(-0.5, 0.5, 3)
            meas = cmd + rng.normal([0.01, -0.01, 0.002], [0.05, 0.05, 0.01])
            w.writerow([f"{v:.6f}" for v in np.concatenate([cmd, meas])])
    out_path = str(root / "fit.noise")
    assert main(["fit-noise", "--log", log_path, "--mode", "coupled",
                 "--out", out_path]) == 0
    model = load_noise_model(out_path)
    assert model.mode == "coupled"
    assert abs(model.mu[0] - 0.01) < 0.01
    assert model.sample_count == 500


@pytest.mark.parametrize("bare", ["mode", "units"])
def test_run_rejects_noise_key_without_value(workspace, capsys, bare):
    root, map_path = workspace
    ds = str(root / "bare_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "1", "--out", ds]) == 0
    lines = {"mode": "mode coupled", "units": "units rad_per_s"}
    lines[bare] = bare
    noise_path = str(root / f"bare_{bare}.noise")
    with open(noise_path, "w") as f:
        f.write("\n".join([lines["mode"], lines["units"], "mu 0 0 0", "sigma 0.1 0.1 0.1",
                           "sample_count 2"]) + "\n")
    assert main(["run", "--map", map_path, "--dataset", ds, "--noise", noise_path,
                 "--seeds", "0", "--out", str(root / f"bare_{bare}")]) == 2
    assert f"key '{bare}' has no value" in capsys.readouterr().err


def test_fit_noise_names_missing_column(workspace, capsys):
    root, map_path = workspace
    log_path = str(root / "no_meas_w.csv")
    with open(log_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["cmd_vx", "cmd_vy", "cmd_w", "meas_vx", "meas_vy"])
        w.writerows([[0.1, 0.0, 0.0, 0.11, 0.01]] * 3)
    assert main(["fit-noise", "--log", log_path, "--mode", "coupled",
                 "--out", str(root / "no_meas_w.noise")]) == 2
    assert "missing column(s) meas_w" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ([0.2, 0.0, 0.0], "line 3 has too few values"),
    ([0.2, 0.0, 0.0, 0.21, 0.0, 0.0, 7], "line 3 has too many values"),
], ids=["short", "long"])
def test_fit_noise_rejects_bad_row(workspace, capsys, row, message):
    root, map_path = workspace
    log_path = str(root / "bad_row.csv")
    with open(log_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["cmd_vx", "cmd_vy", "cmd_w", "meas_vx", "meas_vy", "meas_w"])
        w.writerows([[0.1, 0.0, 0.0, 0.11, 0.01, 0.0], row, [0.1, 0.0, 0.0, 0.1, 0.0, 0.0]])
    assert main(["fit-noise", "--log", log_path, "--mode", "coupled",
                 "--out", str(root / "bad_row.noise")]) == 2
    assert f"error: {log_path}: {message}" in capsys.readouterr().err


def test_gap_rejects_truncated_episodes(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "trunc_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "2", "--out", ds]) == 0
    run_dir = root / "trunc_results" / "kin"
    assert main(["run", "--map", map_path, "--dataset", ds, "--seeds", "0",
                 "--out", str(run_dir)]) == 0
    csv_path = run_dir / "episodes.csv"
    text = csv_path.read_text()
    csv_path.write_text(text[:text.rindex(",")] + "\n")  # no termination_reason
    capsys.readouterr()
    assert main(["gap", "--results", str(root / "trunc_results")]) == 2
    assert f"error: {csv_path}: line 3 has too few values" in capsys.readouterr().err


def test_gap_refuses_runs_sharing_a_label(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "same_label_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "2", "--out", ds]) == 0
    results = root / "same_label"
    for mode in ("coupled", "decoupled"):
        noise_path = str(root / f"spot_{mode}.noise")
        with open(noise_path, "w") as f:
            f.write(resources.files("kinnav.data").joinpath(f"spot_{mode}.noise").read_text())
        assert main(["run", "--map", map_path, "--dataset", ds, "--seeds", "0",
                     "--agent", "random", "--noise", noise_path,
                     "--out", str(results / mode)]) == 0
    capsys.readouterr()
    assert main(["gap", "--results", str(results)]) == 2
    err = capsys.readouterr().err
    assert (f"error: runs {results / 'coupled'} and {results / 'decoupled'} share the label "
            "'spot-kinematic-noise-random'") in err


def test_error_exit_code(workspace, capsys):
    root, map_path = workspace
    assert main(["gen-episodes", "--map", str(root / "missing.map"),
                 "--n", "1", "--out", str(root / "x.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_duplicate_seeds(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "dup_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "2",
                 "--seed", "2", "--out", ds]) == 0
    assert main(["run", "--map", map_path, "--dataset", ds, "--seeds", "0,0",
                 "--out", str(root / "dup")]) == 2
    assert "duplicate seeds" in capsys.readouterr().err
    assert not os.path.exists(str(root / "dup"))


def test_run_rejects_negative_seed(workspace, capsys):
    # with noise the parent's run opened its first RNG stream for seed -1 mid-run
    root, map_path = workspace
    ds = str(root / "neg_eps.jsonl")
    noise = str(root / "neg.noise")
    with open(noise, "w") as f:
        f.write(resources.files("kinnav.data").joinpath("spot_coupled.noise").read_text())
    assert main(["gen-episodes", "--map", map_path, "--n", "2",
                 "--seed", "2", "--out", ds]) == 0
    for noise_arg in ("none", noise):
        out = root / f"neg_{os.path.basename(noise_arg)}"
        assert main(["run", "--map", map_path, "--dataset", ds, "--seeds", "0,-1",
                     "--noise", noise_arg, "--out", str(out)]) == 2
        assert "error: seed -1 is not a non-negative int" in capsys.readouterr().err
        assert not os.path.exists(str(out))


@pytest.mark.parametrize("key", ["dataset_sha256", "seeds", "map_sha256"])
def test_gap_names_missing_summary_key(workspace, capsys, key):
    root, map_path = workspace
    ds = str(root / "nokey_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "2", "--out", ds]) == 0
    results = root / f"nokey_{key}"
    for backend in ("kinematic", "dynlite-a"):
        assert main(["run", "--map", map_path, "--dataset", ds, "--seeds", "0",
                     "--backend", backend, "--out", str(results / backend)]) == 0
    summary = results / "kinematic" / "summary.kv"
    lines = summary.read_text().splitlines()
    summary.write_text("".join(f"{ln}\n" for ln in lines if not ln.startswith(key + " ")))
    capsys.readouterr()
    assert main(["gap", "--results", str(results)]) == 2
    assert (f"error: run 'spot-kinematic-oracle' has no '{key}' in its summary"
            in capsys.readouterr().err)


def test_gap_refuses_runs_on_different_maps(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "maps_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "4", "--out", ds]) == 0
    grid = load_world(open(map_path).read())
    eps = read_dataset(ds).episodes
    ends = [(ep.start.x, ep.start.y) for ep in eps] + [ep.goal for ep in eps]
    # a copy with four free cells closed, all away from every start and goal
    cells = np.array(grid.cells)
    far = [(iy, ix) for iy, ix in np.argwhere(~cells).tolist()
           if min(math.dist(grid.cell_center(ix, iy), p) for p in ends) > 1.5]
    assert len(far) >= 4
    for iy, ix in far[:4]:
        cells[iy, ix] = True
    closed = root / "closed.map"
    closed.write_text(save_world(OccupancyGrid(cells, grid.cell_size)))
    results = root / "two_maps"
    for backend, path in (("kinematic", map_path), ("dynlite-b", str(closed))):
        assert main(["run", "--map", path, "--dataset", ds, "--seeds", "0",
                     "--backend", backend, "--out", str(results / backend)]) == 0
    capsys.readouterr()
    assert main(["gap", "--results", str(results)]) == 2
    assert ("error: run 'spot-kinematic-oracle' used a different map, dataset or seeds"
            in capsys.readouterr().err)


def test_run_rejects_non_finite_noise(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "nan_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "1", "--out", ds]) == 0
    noise_path = str(root / "nan.noise")
    with open(noise_path, "w") as f:
        f.write("mode coupled\nunits rad_per_s\nmu 0 0 0\nsigma 0 nan 0\nsample_count 2\n")
    capsys.readouterr()
    assert main(["run", "--map", map_path, "--dataset", ds, "--noise", noise_path,
                 "--seeds", "0", "--out", str(root / "nan_run")]) == 2
    assert "error: mu and sigma must be finite" in capsys.readouterr().err
    assert not os.path.exists(str(root / "nan_run"))


def test_run_names_the_line_of_a_non_finite_start(workspace, capsys):
    root, map_path = workspace
    ds = str(root / "nan_start_eps.jsonl")
    assert main(["gen-episodes", "--map", map_path, "--n", "2", "--out", ds]) == 0
    lines = open(ds).read().splitlines()
    rec = json.loads(lines[2])
    rec["start"][1] = "NaN"
    lines[2] = json.dumps(rec).replace('"NaN"', "NaN")
    with open(ds, "w") as f:
        f.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--map", map_path, "--dataset", ds, "--seeds", "0",
                 "--out", str(root / "nan_start_run")]) == 2
    assert "error: line 3: start and goal must be finite" in capsys.readouterr().err
    assert not os.path.exists(str(root / "nan_start_run"))
