import csv
import os

import numpy as np
import pytest

from kinnav.cli import main
from kinnav.maps import random_maze
from kinnav.noise import load_noise_model
from kinnav.world import save_world


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
