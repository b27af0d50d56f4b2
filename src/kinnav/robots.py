"""Robot kinematic envelopes and leg-length parameter scaling."""

from dataclasses import dataclass, field

# Spot is the reference platform: 0.5 m/s linear, 0.3 rad/s angular, 150 steps.
_REF_LEG = 0.44
_REF_LIN = 0.5
_REF_ANG = 0.3
_REF_STEPS = 150


def _round2(v):
    return round(v * 100.0) / 100.0


def derive_robot_params(leg_length):
    """Scale velocity limits with leg length and inversely scale the step budget.

    Returns (lin_limit, ang_limit, max_steps); limits are rounded to 0.01.
    ValueError unless leg_length is positive and long enough that neither
    rounded limit is 0.
    """
    if not leg_length > 0:
        raise ValueError("leg_length must be positive")
    lin = _round2(_REF_LIN * leg_length / _REF_LEG)
    ang = _round2(_REF_ANG * leg_length / _REF_LEG)
    if not (lin > 0 and ang > 0):
        raise ValueError(f"leg_length {leg_length} rounds a velocity limit to 0")
    max_steps = round(_REF_STEPS * _REF_LIN / lin)
    return lin, ang, max_steps


@dataclass(frozen=True)
class RobotSpec:
    """Per-robot kinematic envelope used by the simulator and the task.

    lin_limit, ang_limit and max_steps are derived from leg_length by
    derive_robot_params, so a spec built by `dataclasses.replace` with a new
    leg length carries that leg's limits.
    """

    name: str
    leg_length: float
    success_radius: float
    footprint_radius: float
    lin_limit: float = field(init=False)
    ang_limit: float = field(init=False)
    max_steps: int = field(init=False)

    def __post_init__(self):
        for name in ("success_radius", "footprint_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        lin, ang, steps = derive_robot_params(self.leg_length)
        if lin > 0.5:
            raise ValueError("lin_limit must not exceed 0.5 m/s")
        object.__setattr__(self, "lin_limit", lin)
        object.__setattr__(self, "ang_limit", ang)
        object.__setattr__(self, "max_steps", steps)


A1 = RobotSpec("a1", 0.20, 0.24, 0.20)
ALIENGO = RobotSpec("aliengo", 0.25, 0.32, 0.25)
SPOT = RobotSpec("spot", 0.44, 0.425, 0.30)

ROBOTS = {r.name: r for r in (A1, ALIENGO, SPOT)}


def get_robot(name):
    try:
        return ROBOTS[name]
    except KeyError:
        raise KeyError(f"unknown robot {name!r}; choose from {sorted(ROBOTS)}") from None
