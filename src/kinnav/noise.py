"""Diagonal-Gaussian CoM actuation noise: fitting, injection, and file I/O."""

import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .motion import VelocityCommand
from .tables import opened

DEG_PER_S = "deg_per_s"
RAD_PER_S = "rad_per_s"
AXES = ("x", "y", "w")
MODES = ("coupled", "decoupled")


class NoiseFitError(ValueError):
    """Not enough samples to fit the model."""


class NoiseFileError(ValueError):
    """Malformed noise-model document."""


@dataclass
class NoiseModel:
    """Per-axis Gaussian residual between commanded and realized velocity.

    mu and sigma are stored in (m/s, m/s, rad/s); angular_units only records
    how the angular axis is declared in the file representation.
    """

    mode: str
    mu: np.ndarray
    sigma: np.ndarray
    sample_count: int = 0
    angular_units: str = RAD_PER_S

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.mode not in MODES:
            raise ValueError(f"mode must be coupled or decoupled, got {self.mode!r}")
        if self.mu.shape != (3,) or self.sigma.shape != (3,):
            raise ValueError("mu and sigma must be 3-vectors")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError(f"mu and sigma must be finite, got mu {self.mu.tolist()}, "
                             f"sigma {self.sigma.tolist()}")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative")
        if self.angular_units not in (DEG_PER_S, RAD_PER_S):
            raise ValueError(f"unknown angular units {self.angular_units!r}")

    def sample(self, rng):
        return rng.normal(self.mu, self.sigma)


def apply_noise(cmd, model, rng):
    """Add one Gaussian actuation-noise draw to an already-clamped command.

    The result is deliberately not re-clamped: the noise models what the
    actuators did, not what the policy asked for.
    """
    eps = model.sample(rng)
    return VelocityCommand(cmd.vx + eps[0], cmd.vy + eps[1], cmd.w + eps[2])


def fit_noise_model(log, mode):
    """Fit per-axis mean/std of measured-minus-commanded velocity residuals.

    `log` is a sequence of (commanded, measured) velocity triples; in decoupled
    mode each entry is (commanded, measured, axis) where axis tags which single
    axis the sample isolates. Std is the unbiased (n-1) estimate.
    """
    per_axis = {a: [] for a in AXES}
    n = 0
    for entry in log:
        if mode == "decoupled":
            cmd, meas, axis = entry
            if axis not in AXES:
                raise NoiseFitError(f"unknown axis tag {axis!r}")
            i = AXES.index(axis)
            per_axis[axis].append(meas[i] - cmd[i])
        else:
            cmd, meas = entry[0], entry[1]
            for i, a in enumerate(AXES):
                per_axis[a].append(meas[i] - cmd[i])
        n += 1
    mu = np.empty(3)
    sigma = np.empty(3)
    for i, a in enumerate(AXES):
        r = np.asarray(per_axis[a])
        if len(r) < 2:
            raise NoiseFitError(f"need at least 2 samples per axis, axis {a!r} has {len(r)}")
        mu[i] = r.mean()
        sigma[i] = r.std(ddof=1)
    return NoiseModel(mode, mu, sigma, sample_count=n)


# -- flat key/value document ----------------------------------------------

# every key of a noise file, in file order, with its number of values and their type
_KEY_VALUES = {"mode": (1, str), "units": (1, str), "mu": (3, float), "sigma": (3, float),
               "sample_count": (1, int)}
_TYPE_NAMES = {float: "numeric", int: "integer"}


def save_noise_model(model, path_or_stream):
    """Serialize with fixed key order and 6 significant digits."""
    mu = model.mu.copy()
    sigma = model.sigma.copy()
    if model.angular_units == DEG_PER_S:
        mu[2] = math.degrees(mu[2])
        sigma[2] = math.degrees(sigma[2])
    lines = [
        f"mode {model.mode}",
        f"units {model.angular_units}",
        "mu " + " ".join(f"{v:.6g}" for v in mu),
        "sigma " + " ".join(f"{v:.6g}" for v in sigma),
        f"sample_count {model.sample_count}",
    ]
    text = "\n".join(lines) + "\n"
    with opened(path_or_stream, "w") as f:
        f.write(text)
    return text


def load_noise_model(path_or_stream):
    """Parse a noise-model document; degrees are converted to radians on load.

    Each key of _KEY_VALUES must appear once with its number of values of its
    type, and no other key.
    """
    with opened(path_or_stream, "r") as f:
        text = f.read()
    fields = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, *vals = line.split()
        if key not in _KEY_VALUES:
            raise NoiseFileError(f"line {i}: unknown key {key!r}")
        count, kind = _KEY_VALUES[key]
        if len(vals) != count:
            got = f"{len(vals)} values" if vals else "no value"
            raise NoiseFileError(f"line {i}: key {key!r} has {got}, expected {count}")
        if key in fields:
            raise NoiseFileError(f"line {i}: duplicate key {key!r}")
        try:
            fields[key] = [kind(v) for v in vals]
        except ValueError:
            raise NoiseFileError(
                f"line {i}: key {key!r} has a non-{_TYPE_NAMES[kind]} value") from None
    missing = _KEY_VALUES.keys() - fields.keys()
    if missing:
        raise NoiseFileError(f"missing keys: {sorted(missing)}")
    mu = np.array(fields["mu"])
    sigma = np.array(fields["sigma"])
    units = fields["units"][0]
    if units == DEG_PER_S:
        mu[2] = math.radians(mu[2])
        sigma[2] = math.radians(sigma[2])
    return NoiseModel(fields["mode"][0], mu, sigma, sample_count=fields["sample_count"][0],
                      angular_units=units)


def reference_model(mode):
    """Load the bundled Spot actuation-noise parameters ('coupled' or 'decoupled')."""
    name = f"spot_{mode}.noise"
    text = resources.files("kinnav.data").joinpath(name).read_text()
    return load_noise_model(io.StringIO(text))
