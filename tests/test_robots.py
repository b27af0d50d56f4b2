from dataclasses import replace

import pytest

from kinnav.robots import (A1, ALIENGO, ROBOTS, SPOT, RobotSpec,
                           derive_robot_params, get_robot)


def test_param_scaling_table():
    assert derive_robot_params(0.20) == (0.23, 0.14, 326)
    assert derive_robot_params(0.25) == (0.28, 0.17, 268)
    assert derive_robot_params(0.44) == (0.50, 0.30, 150)


def test_param_scaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        derive_robot_params(0.0)
    with pytest.raises(ValueError):
        derive_robot_params(-0.3)


def test_presets_match_derivation():
    for spec in (A1, ALIENGO, SPOT):
        lin, ang, steps = derive_robot_params(spec.leg_length)
        assert (spec.lin_limit, spec.ang_limit, spec.max_steps) == (lin, ang, steps)


def test_preset_identities():
    assert SPOT.success_radius == 0.425
    assert A1.success_radius == 0.24
    assert ALIENGO.success_radius == 0.32
    assert set(ROBOTS) == {"a1", "aliengo", "spot"}
    assert get_robot("spot") is SPOT
    with pytest.raises(KeyError):
        get_robot("atlas")


def test_spec_invariants():
    with pytest.raises(ValueError):
        RobotSpec("bad", 0.5, 0.4, 0.3)  # lin over 0.5
    with pytest.raises(ValueError):
        RobotSpec("bad", 0.44, -0.4, 0.3)
    with pytest.raises(ValueError):
        RobotSpec("bad", 0.44, 0.4, 0.0)


def test_limits_follow_the_leg_length():
    spec = replace(SPOT, leg_length=0.25)
    assert (spec.lin_limit, spec.ang_limit, spec.max_steps) == \
        (ALIENGO.lin_limit, ALIENGO.ang_limit, ALIENGO.max_steps)


@pytest.mark.parametrize("leg", [0.004, 0.0045])
def test_leg_too_short_for_a_limit(leg):
    # 0.004 m rounds both limits to 0, 0.0045 m only the angular one
    with pytest.raises(ValueError, match="rounds a velocity limit to 0"):
        derive_robot_params(leg)
    with pytest.raises(ValueError, match="rounds a velocity limit to 0"):
        RobotSpec("tiny", leg, 0.1, 0.1)
