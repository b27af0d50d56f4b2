import io
import math

import numpy as np
import pytest

from kinnav.motion import VelocityCommand
from kinnav.noise import (NoiseFileError, NoiseFitError, NoiseModel,
                          apply_noise, fit_noise_model, load_noise_model,
                          reference_model, save_noise_model)

# Spot actuation-noise reference parameters (angular axis in deg/s)
COUPLED_MU = (0.002, -0.004, 0.081)
COUPLED_SIGMA = (0.054, 0.065, 2.599)
DECOUPLED_MU = (0.002, -0.001, -0.029)
DECOUPLED_SIGMA = (0.036, 0.044, 1.468)


def coupled_model():
    return NoiseModel("coupled",
                      [COUPLED_MU[0], COUPLED_MU[1], math.radians(COUPLED_MU[2])],
                      [COUPLED_SIGMA[0], COUPLED_SIGMA[1], math.radians(COUPLED_SIGMA[2])])


def test_model_invariants():
    with pytest.raises(ValueError):
        NoiseModel("sorta", np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        NoiseModel("coupled", np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        NoiseModel("coupled", np.zeros(3), [-0.1, 0, 0])


@pytest.mark.parametrize("key", ["mu", "sigma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_parameters_rejected(key, value):
    params = {"mu": [0.0, 0.0, 0.0], "sigma": [0.1, 0.1, 0.1]}
    params[key][1] = float(value)
    with pytest.raises(ValueError, match="must be finite"):
        NoiseModel("coupled", params["mu"], params["sigma"])
    lines = {"mu": "mu 0 0 0", "sigma": "sigma 0.1 0.1 0.1"}
    lines[key] = f"{key} 0 {value} 0"
    text = "\n".join(["mode coupled", "units rad_per_s", lines["mu"], lines["sigma"],
                      "sample_count 2"]) + "\n"
    with pytest.raises(ValueError, match="must be finite"):
        load_noise_model(io.StringIO(text))


def test_apply_noise_mean_shift():
    model = NoiseModel("coupled",
                       [0.002, -0.004, math.radians(0.081)], np.zeros(3))
    rng = np.random.default_rng(0)
    out = apply_noise(VelocityCommand(0.2, 0.0, 0.1), model, rng)
    assert out.vx == pytest.approx(0.202, abs=1e-12)
    assert out.vy == pytest.approx(-0.004, abs=1e-12)
    assert out.w == pytest.approx(0.101414, abs=1e-6)


def test_apply_noise_zero_model_identity():
    model = NoiseModel("coupled", np.zeros(3), np.zeros(3))
    rng = np.random.default_rng(0)
    cmd = VelocityCommand(0.3, -0.2, 0.15)
    assert apply_noise(cmd, model, rng) == cmd


def test_apply_noise_empirical_mean():
    model = coupled_model()
    rng = np.random.default_rng(42)
    n = 100_000
    eps = np.array([model.sample(rng) for _ in range(n)])
    for i in range(3):
        tol = 3.0 * model.sigma[i] / math.sqrt(n)
        assert abs(eps[:, i].mean() - model.mu[i]) < tol


def test_noise_not_reclamped():
    model = NoiseModel("coupled", [0.2, 0.0, 0.0], np.zeros(3))
    out = apply_noise(VelocityCommand(0.5, 0.0, 0.0), model,
                      np.random.default_rng(0))
    assert out.vx == pytest.approx(0.7, abs=1e-12)  # beyond the clamp limit


# -- fitting ---------------------------------------------------------------


def test_fit_constant_residual():
    log = [((0.1 * k, 0.0, 0.0), (0.1 * k + 0.01, 0.01, 0.01)) for k in range(5)]
    model = fit_noise_model(log, "coupled")
    assert model.mu == pytest.approx([0.01, 0.01, 0.01], abs=1e-12)
    assert model.sigma == pytest.approx([0, 0, 0], abs=1e-12)
    assert model.sample_count == 5


def test_fit_recovers_reference_parameters():
    true = coupled_model()
    rng = np.random.default_rng(7)
    log = []
    for _ in range(6000):
        cmd = rng.uniform(-0.5, 0.5, 3)
        meas = cmd + rng.normal(true.mu, true.sigma)
        log.append((tuple(cmd), tuple(meas)))
    fit = fit_noise_model(log, "coupled")
    for i in range(3):
        assert abs(fit.mu[i] - true.mu[i]) < 0.005
        assert abs(fit.sigma[i] - true.sigma[i]) < 0.10 * true.sigma[i]


def test_fit_decoupled_axis_tags():
    rng = np.random.default_rng(3)
    log = []
    for axis_i, axis in enumerate(("x", "y", "w")):
        for _ in range(200):
            cmd = rng.uniform(-0.5, 0.5, 3)
            meas = cmd.copy()
            meas[axis_i] += 0.02 + 0.001 * rng.standard_normal()
            log.append((tuple(cmd), tuple(meas), axis))
    model = fit_noise_model(log, "decoupled")
    assert model.mode == "decoupled"
    assert model.mu == pytest.approx([0.02, 0.02, 0.02], abs=0.001)
    assert model.sigma == pytest.approx([0.001] * 3, rel=0.3)


def test_fit_errors():
    with pytest.raises(NoiseFitError):
        fit_noise_model([((0, 0, 0), (0, 0, 0))], "coupled")
    with pytest.raises(NoiseFitError):
        fit_noise_model([((0, 0, 0), (0, 0, 0), "z")] * 4, "decoupled")


# -- file format -----------------------------------------------------------


def test_save_load_roundtrip_degrees():
    model = NoiseModel("coupled",
                       [0.002, -0.004, math.radians(0.081)],
                       [0.054, 0.065, math.radians(2.599)],
                       sample_count=6000, angular_units="deg_per_s")
    buf = io.StringIO()
    text = save_noise_model(model, buf)
    assert buf.getvalue() == text
    assert "units deg_per_s" in text
    back = load_noise_model(io.StringIO(text))
    assert back.mode == "coupled"
    assert back.sample_count == 6000
    for i in range(3):
        assert back.mu[i] == pytest.approx(model.mu[i], abs=1e-9)
        assert back.sigma[i] == pytest.approx(model.sigma[i], abs=1e-9)


def test_save_is_deterministic():
    model = coupled_model()
    a = save_noise_model(model, io.StringIO())
    b = save_noise_model(model, io.StringIO())
    assert a == b


def test_load_errors():
    with pytest.raises(NoiseFileError, match="missing"):
        load_noise_model(io.StringIO("mode coupled\n"))
    with pytest.raises(NoiseFileError, match="duplicate"):
        load_noise_model(io.StringIO(
            "mode coupled\nmode coupled\nunits rad_per_s\n"
            "mu 0 0 0\nsigma 0 0 0\nsample_count 1\n"))
    with pytest.raises(NoiseFileError, match="numeric"):
        load_noise_model(io.StringIO(
            "mode coupled\nunits rad_per_s\nmu a b c\nsigma 0 0 0\nsample_count 1\n"))
    good = ["mode coupled", "units rad_per_s", "mu 0 0 0", "sigma 0 0 0", "sample_count 2"]
    for i, line, message in [
            (0, "mode coupled extra", "line 1: key 'mode' has 2 values, expected 1"),
            (1, "units rad_per_s 7", "line 2: key 'units' has 2 values, expected 1"),
            (4, "sample_count 2 9", "line 5: key 'sample_count' has 2 values, expected 1"),
            (2, "mu 0 0", "line 3: key 'mu' has 2 values, expected 3"),
            (3, "sigma 0 0 0 0", "line 4: key 'sigma' has 4 values, expected 3"),
            (3, "sigma 0 x 0", "line 4: key 'sigma' has a non-numeric value"),
            (4, "sample_count 2.5", "line 5: key 'sample_count' has a non-integer value"),
            (4, "sample_count 2\nbogus 1", "line 6: unknown key 'bogus'")]:
        lines = good[:i] + [line] + good[i + 1:]
        with pytest.raises(NoiseFileError) as exc:
            load_noise_model(io.StringIO("\n".join(lines) + "\n"))
        assert str(exc.value) == message


def test_reference_models_match_table():
    cp = reference_model("coupled")
    assert cp.mode == "coupled"
    assert cp.angular_units == "deg_per_s"
    assert cp.mu[0] == pytest.approx(0.002, abs=1e-9)
    assert cp.mu[1] == pytest.approx(-0.004, abs=1e-9)
    assert cp.mu[2] == pytest.approx(math.radians(0.081), abs=1e-9)
    assert cp.sigma[0] == pytest.approx(0.054, abs=1e-9)
    assert cp.sigma[1] == pytest.approx(0.065, abs=1e-9)
    assert cp.sigma[2] == pytest.approx(math.radians(2.599), abs=1e-9)
    dc = reference_model("decoupled")
    assert dc.mu[2] == pytest.approx(math.radians(-0.029), abs=1e-9)
    assert dc.sigma[2] == pytest.approx(math.radians(1.468), abs=1e-9)
    assert dc.mu[0] == pytest.approx(0.002, abs=1e-9)
    assert dc.sigma[1] == pytest.approx(0.044, abs=1e-9)


def test_reference_model_roundtrip():
    cp = reference_model("coupled")
    text = save_noise_model(cp, io.StringIO())
    back = load_noise_model(io.StringIO(text))
    for i in range(3):
        assert back.mu[i] == pytest.approx(cp.mu[i], abs=1e-9)
        assert back.sigma[i] == pytest.approx(cp.sigma[i], abs=1e-9)
