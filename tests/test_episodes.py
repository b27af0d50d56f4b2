import io
import json
import math

import numpy as np
import pytest

from kinnav.episodes import (DEFAULT_RATIO_MIN, DatasetError, GenerationError,
                             read_dataset, sample_episodes, validate_episode,
                             write_dataset)
from kinnav.maps import random_maze
from kinnav.motion import Pose
from kinnav.robots import ALIENGO, SPOT
from kinnav.task import Episode, InvalidEpisodeError, NavEnv
from kinnav.world import OccupancyGrid, distance_field, load_world

from oracles import dijkstra_oracle


def open_doc(n, cs=1.0):
    return "cell_size {}\n".format(cs) + "\n".join(["." * n] * n) + "\n"


def test_reject_too_short():
    grid = load_world(open_doc(12, cs=0.5))
    # adjacent cells: geodesic one 0.5 m move, below the 1 m floor
    goal = (3.25, 2.75)
    ok, reason = validate_episode(grid, Pose(2.75, 2.75, 0.0), goal, SPOT,
                                  dist_field=distance_field(grid, goal, SPOT.footprint_radius))
    assert not ok and reason == "too_short"


def test_reject_near_straight():
    grid = load_world(open_doc(12))
    # open room: geodesic equals the straight diagonal, ratio < 1.1
    goal = (8.5, 8.5)
    ok, reason = validate_episode(grid, Pose(2.5, 2.5, 0.0), goal, SPOT,
                                  dist_field=distance_field(grid, goal, SPOT.footprint_radius))
    assert not ok and reason == "near_straight"


def test_reject_unreachable():
    rows = ["........", "........", "........", "########",
            "........", "........", "........", "........"]
    grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")
    goal = (6.5, 1.5)
    ok, reason = validate_episode(grid, Pose(1.5, 6.5, 0.0), goal, SPOT,
                                  dist_field=distance_field(grid, goal, SPOT.footprint_radius))
    assert not ok and reason == "unreachable"


def test_validate_rejects_field_of_another_radius():
    grid = load_world(open_doc(12))
    goal = (8.5, 2.5)
    field = distance_field(grid, goal, 0.5 * SPOT.footprint_radius)
    with pytest.raises(ValueError, match="footprint radius"):
        validate_episode(grid, Pose(2.5, 8.5, 0.0), goal, SPOT, dist_field=field)


@pytest.mark.parametrize("start", [(-5.0, -5.0), (100.0, 3.0), (8.0, 3.0),
                                   (math.nan, 3.0), (3.0, -math.inf)])
def test_validate_rejects_start_off_the_grid(start):
    # (8.0, 3.0) lies on the far edge: in_bounds accepts it, but no cell holds it
    grid = random_maze(16, 16, 0.5, seed=1)
    passable = grid.passable_mask(SPOT.footprint_radius)
    iys, ixs = np.nonzero(passable)
    goal = grid.cell_center(int(ixs[0]), int(iys[0]))
    field = distance_field(grid, goal, SPOT.footprint_radius)
    ok, reason = validate_episode(grid, Pose(*start, 0.0), goal, SPOT, dist_field=field)
    assert (ok, reason) == (False, "off_grid")


def test_validate_rejects_field_of_another_goal():
    grid = load_world(open_doc(12))
    field = distance_field(grid, (8.5, 2.5), SPOT.footprint_radius)
    with pytest.raises(ValueError, match="goal"):
        validate_episode(grid, Pose(2.5, 8.5, 0.0), (2.5, 2.5), SPOT, dist_field=field)


def test_accept_detour_with_oracle_distance():
    # wall with a single gap forces a detour: geodesic well above euclidean
    rows = []
    for iy in range(16):
        if iy == 8:
            rows.append("#" * 14 + ".." )
        else:
            rows.append("." * 16)
    grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")
    start = Pose(2.5, 12.5, 0.0)
    goal = (2.5, 4.5)
    field = distance_field(grid, goal, SPOT.footprint_radius)
    ok, reason = validate_episode(grid, start, goal, SPOT, dist_field=field)
    assert ok, reason
    six, siy = grid.world_to_cell(start.x, start.y)
    d_geo = field.values[siy, six]
    oracle = dijkstra_oracle(grid, grid.world_to_cell(*goal), SPOT.footprint_radius)
    assert d_geo == pytest.approx(oracle[siy][six], abs=1e-9)
    d_euc = math.hypot(goal[0] - start.x, goal[1] - start.y)
    assert d_geo / d_euc >= 1.5


def test_sample_empty_dataset():
    grid = random_maze(40, 40, 0.25, seed=1)
    ds = sample_episodes(grid, 0, seed=0, largest_spec=SPOT)
    assert ds.episodes == []
    assert ds.robot == "spot"
    assert ds.ratio_min == DEFAULT_RATIO_MIN


def test_sample_determinism():
    grid = random_maze(48, 48, 0.25, seed=3)
    a = write_dataset(sample_episodes(grid, 12, seed=9, largest_spec=SPOT), io.StringIO())
    b = write_dataset(sample_episodes(grid, 12, seed=9, largest_spec=SPOT), io.StringIO())
    assert a == b
    c = write_dataset(sample_episodes(grid, 12, seed=10, largest_spec=SPOT), io.StringIO())
    assert a != c


def test_sample_revalidates():
    grid = random_maze(64, 64, 0.25, seed=5)
    ds = sample_episodes(grid, 50, seed=2, largest_spec=SPOT)
    assert len(ds.episodes) == 50
    assert [ep.episode_id for ep in ds.episodes] == list(range(50))
    for ep in ds.episodes:
        ok, reason = validate_episode(
            grid, ep.start, ep.goal, SPOT,
            dist_field=distance_field(grid, ep.goal, SPOT.footprint_radius))
        assert ok, f"episode {ep.episode_id}: {reason}"
        assert 1.0 <= ep.geodesic_distance <= 30.0
        # recorded geodesic matches a fresh field
        f = distance_field(grid, ep.goal, SPOT.footprint_radius)
        six, siy = grid.world_to_cell(ep.start.x, ep.start.y)
        assert ep.geodesic_distance == pytest.approx(f.values[siy, six], abs=1e-9)


def test_sampled_episodes_hold_python_floats():
    # numpy scalars would slow every pose a rollout of an in-memory dataset computes
    grid = random_maze(48, 48, 0.25, seed=7)
    ds = sample_episodes(grid, 10, seed=4, largest_spec=SPOT)
    for ep in ds.episodes:
        for v in (*ep.start, *ep.goal, ep.geodesic_distance):
            assert type(v) is float, ep


def test_sample_attempt_budget():
    grid = load_world(open_doc(12))  # open room: everything is near-straight
    with pytest.raises(GenerationError, match="acceptance rate"):
        sample_episodes(grid, 5, seed=0, largest_spec=SPOT)


def test_dataset_roundtrip():
    grid = random_maze(48, 48, 0.25, seed=7)
    ds = sample_episodes(grid, 10, seed=4, largest_spec=SPOT)
    text = write_dataset(ds, io.StringIO())
    back = read_dataset(io.StringIO(text))
    assert write_dataset(back, io.StringIO()) == text
    assert back.generator_seed == 4
    assert back.scene_id == ds.scene_id
    assert len(back.episodes) == 10


def test_written_dataset_starts_load_into_env(tmp_path):
    # 0.1 m cells: some free starts have clearance exactly the footprint
    # radius, and 6 significant digits can move them into contact
    grid = random_maze(81, 81, 0.1, seed=5, corridor=7)
    ds = sample_episodes(grid, 12, seed=1, largest_spec=ALIENGO)
    write_dataset(ds, tmp_path / "eps.jsonl")
    env = NavEnv(grid, ALIENGO)
    for ep in read_dataset(tmp_path / "eps.jsonl").episodes:
        env.reset(ep, distance_field(grid, ep.goal, ALIENGO.footprint_radius))


def test_dataset_regeneration_from_header():
    grid = random_maze(48, 48, 0.25, seed=7)
    ds = sample_episodes(grid, 8, seed=11, largest_spec=SPOT,
                         ratio_min=DEFAULT_RATIO_MIN)
    text = write_dataset(ds, io.StringIO())
    header = read_dataset(io.StringIO(text))
    again = sample_episodes(grid, 8, seed=header.generator_seed,
                            largest_spec=SPOT, ratio_min=header.ratio_min)
    assert write_dataset(again, io.StringIO()) == text


def test_dataset_parse_errors():
    with pytest.raises(DatasetError, match="line 1"):
        read_dataset(io.StringIO(""))
    with pytest.raises(DatasetError, match="line 1"):
        read_dataset(io.StringIO("not json\n"))
    header = '{"scene_id":"s","robot":"spot","seed":0,"ratio_min":1.1}'
    good = '{"episode_id":0,"scene_id":"s","start":[1,1,0],"goal":[3,3],"geodesic_distance":4}'
    missing_goal = '{"episode_id":1,"scene_id":"s","start":[1,1,0],"geodesic_distance":4}'
    with pytest.raises(DatasetError, match="line 3"):
        read_dataset(io.StringIO("\n".join([header, good, missing_goal]) + "\n"))
    dup = good
    with pytest.raises(DatasetError, match="dense"):
        read_dataset(io.StringIO("\n".join([header, good, dup]) + "\n"))


@pytest.mark.parametrize("geodesic, shown", [("0", "0.0"), ("-1", "-1.0"), ("NaN", "nan"),
                                             ("Infinity", "inf")])
def test_dataset_rejects_non_positive_or_non_finite_geodesic(geodesic, shown):
    header = '{"scene_id":"s","robot":"spot","seed":0,"ratio_min":1.1}'
    good = '{"episode_id":0,"scene_id":"s","start":[1,1,0],"goal":[3,3],"geodesic_distance":4}'
    bad = good.replace('"episode_id":0', '"episode_id":1').replace(":4}", f":{geodesic}}}")
    with pytest.raises(DatasetError) as exc:
        read_dataset(io.StringIO("\n".join([header, good, bad]) + "\n"))
    assert str(exc.value) == \
        f"line 3: geodesic_distance must be positive and finite, got {shown}"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key, index", [("start", 0), ("start", 1), ("start", 2),
                                        ("goal", 0), ("goal", 1)])
def test_dataset_rejects_non_finite_start_or_goal(key, index, value):
    header = '{"scene_id":"s","robot":"spot","seed":0,"ratio_min":1.1}'
    good = '{"episode_id":0,"scene_id":"s","start":[1,1,0],"goal":[3,3],"geodesic_distance":4}'
    rec = json.loads(good.replace('"episode_id":0', '"episode_id":1'))
    rec[key][index] = value
    bad = json.dumps(rec, separators=(",", ":")).replace(f'"{value}"', value)
    with pytest.raises(DatasetError, match=r"^line 3: start and goal must be finite"):
        read_dataset(io.StringIO("\n".join([header, good, bad]) + "\n"))


def test_validate_rejects_start_the_footprint_cannot_occupy():
    cells = np.zeros((40, 40), dtype=bool)
    cells[20, 5:] = True  # wall at y in [5, 5.25), open for x < 1.25
    grid = OccupancyGrid(cells, 0.25)
    start, goal = Pose(5.125, 4.73, 0.0), (5.125, 7.125)
    # the start's cell centre is clear, the start itself is 0.27 m from the wall
    ix, iy = grid.world_to_cell(start.x, start.y)
    assert grid.passable_mask(SPOT.footprint_radius)[iy, ix]
    assert grid.clearance(start.x, start.y) < SPOT.footprint_radius
    field = distance_field(grid, goal, SPOT.footprint_radius)
    ok, reason = validate_episode(grid, start, goal, SPOT, dist_field=field)
    assert (ok, reason) == (False, "start_blocked")
    with pytest.raises(InvalidEpisodeError):
        NavEnv(grid, SPOT).reset(Episode(0, "s", start, goal, 1.0), field)
