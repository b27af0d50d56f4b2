"""Span tracing around kinnav's public calls, installed at run time from the benchmark.

Each wrapped call records a span: name, start, end and the span that was open
when it began. A span's self time is its duration minus the time of the spans
nested in it. Calls made about a million times a pass (the collision tests
inside the dynamic-lite substep loop) are folded into their parent span as a
count and a total time instead of one span each, so that a pass fits in
memory; ray casts are only counted, so their time stays in the depth fan that
issues them. Spans stay in memory and are written out once, at the end.

Wrappers are installed where the caller looks the name up: a module-level
function imported by name into another module is patched in that module
(``task.kinematic_step``), a method on its class (``_CollisionChecker.blocked``,
which ``dynamic_lite_step`` binds on every call).
"""

import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import count

from kinnav import agents, episodes, harness, maps, motion, task, world

# a penetration call is useful when its result can trigger a fall (dynb-oracle's profile)
FALL_PENETRATION = motion.PROFILES["profile-B"].fall_penetration


def _targets():
    """(owner, attribute, span name, kind, measure) for every traced call."""

    def cells(counters, args, path):
        counters["world.descent_path.cells"] += len(path)

    def useful(counters, args, pen):
        if pen > FALL_PENETRATION:
            counters["world.penetration.useful"] += 1

    def substeps(counters, args, out):
        events = out[2]
        falls = [k for kind, k in events if kind == "fall"]
        counters["motion.substeps"] += falls[0] + 1 if falls else args[4].substeps
        counters["motion.contact_substeps"] += sum(1 for kind, _ in events if kind == "contact")
        counters["motion.falls"] += len(falls)

    def accepted(counters, args, out):
        if out[0]:
            counters["episodes.validate_episode.accepted"] += 1

    grid, checker, field = world.OccupancyGrid, world._CollisionChecker, world.DistanceField
    return [
        (maps, "random_maze", "maps.random_maze", "span", None),
        (episodes, "sample_episodes", "episodes.sample_episodes", "span", None),
        (episodes, "validate_episode", "episodes.validate_episode", "span", accepted),
        (episodes, "distance_field", "world.distance_field", "span", None),
        (world, "distance_field", "world.distance_field", "span", None),
        (grid, "center_clearance", "world.center_clearance", "span", None),
        (checker, "__init__", "world.collision_checker.build", "span", None),
        (grid, "clearance", "world.clearance", "span", None),
        (field, "value_at", "world.value_at", "span", None),
        (field, "descent_path", "world.descent_path", "span", cells),
        (checker, "blocked", "world.blocked", "folded", None),
        (checker, "penetration", "world.penetration", "folded", useful),
        (world, "raycast", "world.raycast", "counted", None),
        (task, "kinematic_step", "motion.kinematic_step", "span", None),
        (task, "dynamic_lite_step", "motion.dynamic_lite_step", "span", substeps),
        (task, "apply_noise", "noise.apply_noise", "span", None),
        (task, "depth_fan", "task.depth_fan", "span", None),
        (task.NavEnv, "reset", "task.reset", "span", None),
        (task.NavEnv, "step", "task.step", "span", None),
        (agents.OracleAgent, "act", "agents.act", "span", None),
        (harness, "run_batch", "harness.run_batch", "span", None),
    ]


class Tracer:
    """Records spans while installed; ``take()`` returns and resets per-name totals."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.names = []
        self.spans = []      # (id, name index, parent id, start, end)
        self.folded = {}     # span id -> {name: [calls, seconds or None]}
        self.missing = []
        self._stats = {}     # name -> [calls, total seconds, self seconds]
        self._counters = Counter()
        self._stack = [[-1, 0.0, None]]   # [span id, child seconds, folded]
        self._ids = count()
        self._patches = []

    # -- per-name totals ------------------------------------------------------

    def _stat(self, name):
        if name not in self._stats:
            self._stats[name] = [0, 0.0, 0.0]
            self.names.append(name)
        return self._stats[name]

    def take(self):
        """Totals since the last call: ({name: (calls, total_s, self_s)}, {counter: n})."""
        stats = {n: tuple(s) for n, s in self._stats.items()}
        counters = Counter(self._counters)
        for s in self._stats.values():
            s[:] = [0, 0.0, 0.0]
        self._counters.clear()
        return stats, counters

    # -- spans ----------------------------------------------------------------

    def _open(self):
        frame = [next(self._ids), 0.0, None]
        parent = self._stack[-1][0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, index, stat, frame, parent, t0, t1):
        self._stack.pop()
        dt = t1 - t0
        self._stack[-1][1] += dt
        self.spans.append((frame[0], index, parent, t0, t1))
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[1]
        if frame[2] is not None:
            self.folded[frame[0]] = frame[2]

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        stat = self._stat(name)
        index = self.names.index(name)
        frame, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, stat, frame, parent, t0, time.perf_counter())

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, kind, measure):
        stat = self._stat(name)
        index = self.names.index(name)
        counters = self._counters
        stack = self._stack
        clock = time.perf_counter
        if kind == "counted":
            def counted(*args, **kwargs):
                stat[0] += 1
                frame = stack[-1]
                if frame[2] is None:
                    frame[2] = {}
                frame[2].setdefault(name, [0, None])[0] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "folded":
            def folded(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t0
                frame = stack[-1]
                frame[1] += dt
                if frame[2] is None:
                    frame[2] = {}
                agg = frame[2].get(name)
                if agg is None:
                    frame[2][name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                if measure is not None:
                    measure(counters, args, out)
                return out
            return folded

        def spanned(*args, **kwargs):
            frame, parent = self._open()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index, stat, frame, parent, t0, clock())
            if measure is not None:
                measure(counters, args, out)
            return out
        return spanned

    def install(self):
        self.missing = []
        for owner, attr, name, kind, measure in _targets():
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                self._stat(name)
                continue
            setattr(owner, attr, self._wrap(original, name, kind, measure))
            self._patches.append((owner, attr, original))
        if self.missing:
            print(f"perfbench: not traced, missing from kinnav: {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path):
        """Write every span as a JSON line (times in seconds from tracer creation)."""
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"fields": ["id", "name", "parent", "start_s", "end_s",
                                           "folded"]}) + "\n")
            for sid, index, parent, t0, t1 in self.spans:
                f.write(json.dumps([sid, self.names[index], parent, t0 - self.t0,
                                    t1 - self.t0, self.folded.get(sid)]) + "\n")
