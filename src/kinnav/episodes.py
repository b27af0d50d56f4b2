"""Episode dataset generation by rejection sampling, plus JSONL persistence."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .motion import Pose
from .tables import opened
from .task import Episode
from .world import distance_field

MIN_GEODESIC = 1.0
MAX_GEODESIC = 30.0
DEFAULT_RATIO_MIN = 1.1


class DatasetError(ValueError):
    """Malformed dataset file."""


class GenerationError(RuntimeError):
    """Attempt budget exhausted before enough episodes were accepted."""


@dataclass
class EpisodeDataset:
    scene_id: str
    robot: str
    generator_seed: int
    ratio_min: float
    episodes: list


def validate_episode(grid, start, goal, largest_spec, ratio_min=DEFAULT_RATIO_MIN, *,
                     dist_field):
    """Accept/reject a (start Pose, goal point) pair. Returns (accepted, reason).

    This is the whole episode rule; sample_episodes applies it unchanged.
    Rules, in the order they are checked: a start inside one of the grid's
    cells (`off_grid`; the far edges belong to no cell), a reachable start,
    geodesic distance in [1, 30] m, geodesic/euclidean ratio at least
    ratio_min (rejects near-straight paths), and a start that the footprint
    can occupy as write_dataset stores it, rounded to 6 significant digits
    (`start_blocked` when the footprint radius's collision checker calls it
    blocked, the test NavEnv.reset applies, so an accepted start loads into
    NavEnv). dist_field is the goal's field over the grid inflated by the
    largest robot's footprint, so a finite start value already means a
    descent path on which that footprint stays clear; a field for another
    radius or another goal is a ValueError.
    """
    radius = largest_spec.footprint_radius
    if dist_field.robot_radius != float(radius):
        raise ValueError(f"dist_field built for radius {dist_field.robot_radius}, "
                         f"not the footprint radius {radius}")
    gx, gy = float(goal[0]), float(goal[1])
    if dist_field.goal != (gx, gy):
        raise ValueError(f"dist_field built for goal {dist_field.goal}, not {(gx, gy)}")
    sx, sy = start.x, start.y
    cs = grid.cell_size
    # world_to_cell floors these quotients, so this is its cell range; NaN fails it too
    if not (0 <= sx / cs < grid.width and 0 <= sy / cs < grid.height):
        return False, "off_grid"
    six, siy = grid.world_to_cell(sx, sy)
    d_geo = dist_field.values[siy, six]
    if not math.isfinite(d_geo):
        return False, "unreachable"
    if d_geo < MIN_GEODESIC:
        return False, "too_short"
    if d_geo > MAX_GEODESIC:
        return False, "too_long"
    d_euclid = math.hypot(gx - sx, gy - sy)
    if d_euclid <= 0 or d_geo / d_euclid < ratio_min:
        return False, "near_straight"
    if grid.collision_checker(radius).blocked(_round6(sx), _round6(sy)):
        return False, "start_blocked"
    return True, ""


def sample_episodes(grid, n, seed, largest_spec, ratio_min=DEFAULT_RATIO_MIN,
                    scene_id="scene"):
    """Rejection-sample n valid episodes; deterministic for a given seed.

    Start and goal positions are sampled uniformly over free, non-inflated cell
    centers; the start heading is uniform in (-pi, pi]. Each pair is accepted
    or rejected by validate_episode, which holds the episode rule, the start
    check included, so a written dataset always loads into NavEnv. After
    1000 * n attempts (at least one) it gives up with a GenerationError.
    """
    max_attempts = max(1000 * n, 1)
    radius = largest_spec.footprint_radius
    passable = grid.passable_mask(radius)
    # Python ints, so that starts and goals are Python floats: numpy scalars
    # would slow every pose a rollout of the dataset computes
    iys, ixs = (a.tolist() for a in np.nonzero(passable))
    if len(ixs) < 2:
        raise GenerationError("map has fewer than 2 free non-inflated cells")
    rng = np.random.default_rng(seed)
    episodes = []
    # goals rarely repeat: keep only the latest goal's field alive
    field_cell = field = None
    rejects = {}
    attempts = 0
    while len(episodes) < n:
        if attempts >= max_attempts:
            rate = len(episodes) / attempts if attempts else 0.0
            raise GenerationError(
                f"gave up after {attempts} attempts ({len(episodes)} accepted, "
                f"acceptance rate {rate:.3f}, rejects {rejects})")
        attempts += 1
        si = rng.integers(len(ixs))
        gi = rng.integers(len(ixs))
        heading = rng.uniform(-math.pi, math.pi)
        if si == gi:
            rejects["same_cell"] = rejects.get("same_cell", 0) + 1
            continue
        start = Pose(*grid.cell_center(ixs[si], iys[si]), heading)
        goal = grid.cell_center(ixs[gi], iys[gi])
        gcell = (ixs[gi], iys[gi])
        if gcell != field_cell:
            field_cell = gcell
            field = distance_field(grid, goal, radius)
        ok, reason = validate_episode(grid, start, goal, largest_spec, ratio_min,
                                      dist_field=field)
        if not ok:
            rejects[reason] = rejects.get(reason, 0) + 1
            continue
        six, siy = grid.world_to_cell(start.x, start.y)
        episodes.append(Episode(
            episode_id=len(episodes),
            scene_id=scene_id,
            start=start,
            goal=goal,
            geodesic_distance=float(field.values[siy, six]),
        ))
    return EpisodeDataset(scene_id, largest_spec.name, int(seed), float(ratio_min), episodes)


# -- persistence ------------------------------------------------------------


def _round6(v):
    return float(f"{v:.6g}")


def write_dataset(ds, path_or_stream):
    """One JSON record per line: a header, then one line per episode."""
    lines = [json.dumps({
        "scene_id": ds.scene_id, "robot": ds.robot, "seed": ds.generator_seed,
        "ratio_min": _round6(ds.ratio_min)}, separators=(",", ":"))]
    for ep in ds.episodes:
        lines.append(json.dumps({
            "episode_id": ep.episode_id,
            "scene_id": ep.scene_id,
            "start": [_round6(ep.start.x), _round6(ep.start.y), _round6(ep.start.theta)],
            "goal": [_round6(ep.goal[0]), _round6(ep.goal[1])],
            "geodesic_distance": _round6(ep.geodesic_distance),
        }, separators=(",", ":")))
    text = "\n".join(lines) + "\n"
    with opened(path_or_stream, "w") as f:
        f.write(text)
    return text


def read_dataset(path_or_stream):
    """Parse a dataset: ids dense from 0, finite starts and goals, positive finite geodesics."""
    with opened(path_or_stream, "r") as f:
        text = f.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DatasetError("line 1: missing dataset header")
    try:
        header = json.loads(lines[0])
        scene_id = header["scene_id"]
        robot = header["robot"]
        seed = int(header["seed"])
        ratio_min = float(header["ratio_min"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise DatasetError("line 1: invalid dataset header") from None
    episodes = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            episodes.append(Episode(
                episode_id=int(rec["episode_id"]),
                scene_id=rec["scene_id"],
                start=Pose(*[float(v) for v in rec["start"]]),
                goal=(float(rec["goal"][0]), float(rec["goal"][1])),
                geodesic_distance=float(rec["geodesic_distance"]),
            ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError):
            raise DatasetError(f"line {i}: malformed episode record") from None
        ep = episodes[-1]
        if not all(map(math.isfinite, (*ep.start, *ep.goal))):
            raise DatasetError(f"line {i}: start and goal must be finite, "
                               f"got start {list(ep.start)} and goal {list(ep.goal)}")
        if not 0 < ep.geodesic_distance < math.inf:
            raise DatasetError(f"line {i}: geodesic_distance must be positive and finite, "
                               f"got {ep.geodesic_distance}")
    ids = [ep.episode_id for ep in episodes]
    if ids != list(range(len(ids))):
        raise DatasetError("episode ids must be unique and dense from 0")
    return EpisodeDataset(scene_id, robot, seed, ratio_min, episodes)
