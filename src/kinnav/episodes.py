"""Episode dataset generation by rejection sampling, plus JSONL persistence."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .motion import Pose
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


def validate_episode(grid, start, goal, largest_spec, ratio_min=DEFAULT_RATIO_MIN,
                     dist_field=None):
    """Accept/reject a (start, goal) pair. Returns (accepted, reason).

    Rules: geodesic distance in [1, 30] m and geodesic/euclidean ratio at
    least ratio_min (rejects near-straight paths). The field is built over the
    grid inflated by the largest robot's footprint, so a finite start value
    already means a descent path on which that footprint stays clear. A given
    dist_field must therefore be for that footprint radius (ValueError if not).
    """
    if dist_field is None:
        dist_field = distance_field(grid, goal, largest_spec.footprint_radius)
    elif dist_field.robot_radius != float(largest_spec.footprint_radius):
        raise ValueError(f"dist_field built for radius {dist_field.robot_radius}, "
                         f"not the footprint radius {largest_spec.footprint_radius}")
    sx, sy = (start.x, start.y) if isinstance(start, Pose) else (start[0], start[1])
    six, siy = grid.world_to_cell(sx, sy)
    d_geo = dist_field.values[siy, six]
    if not math.isfinite(d_geo):
        return False, "unreachable"
    if d_geo < MIN_GEODESIC:
        return False, "too_short"
    if d_geo > MAX_GEODESIC:
        return False, "too_long"
    d_euclid = math.hypot(goal[0] - sx, goal[1] - sy)
    if d_euclid <= 0 or d_geo / d_euclid < ratio_min:
        return False, "near_straight"
    return True, ""


def sample_episodes(grid, n, seed, largest_spec, ratio_min=DEFAULT_RATIO_MIN,
                    scene_id="scene", max_attempts=None):
    """Rejection-sample n valid episodes; deterministic for a given seed.

    Start and goal positions are sampled uniformly over free, non-inflated cell
    centers; the start heading is uniform in (-pi, pi]. A start that is free
    itself but blocked as write_dataset stores it, rounded to 6 significant
    digits, is rejected (`start_blocked`), so a written dataset always loads
    into NavEnv. Blocked is clearance below the footprint radius, which
    needs no collision checker.
    """
    if max_attempts is None:
        max_attempts = max(1000 * n, 1)
    radius = largest_spec.footprint_radius
    passable = grid.passable_mask(radius)
    iys, ixs = np.nonzero(passable)
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
        gcell = (int(ixs[gi]), int(iys[gi]))
        if gcell != field_cell:
            field_cell = gcell
            field = distance_field(grid, goal, radius)
        ok, reason = validate_episode(grid, start, goal, largest_spec, ratio_min,
                                      dist_field=field)
        if ok and grid.clearance(_round6(start.x), _round6(start.y)) < radius:
            ok, reason = False, "start_blocked"
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
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w") as f:
            f.write(text)
    return text


def read_dataset(path_or_stream):
    if hasattr(path_or_stream, "read"):
        text = path_or_stream.read()
    else:
        with open(path_or_stream) as f:
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
    ids = [ep.episode_id for ep in episodes]
    if ids != list(range(len(ids))):
        raise DatasetError("episode ids must be unique and dense from 0")
    return EpisodeDataset(scene_id, robot, seed, ratio_min, episodes)
