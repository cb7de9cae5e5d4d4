"""The one rule for a real-valued input: every real-valued field of the
layout, the scene, the link model, the solver config, the covariance, the
NMSE and the sweep spec must be a finite number (and positive or in range
where the field says so), and a value that breaks the rule raises
ValueError naming the field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasloc.channel import CorrelationModel, FasLayout, _check_real, build_covariance
from fasloc.estimators import EstimatorConfig
from fasloc.experiments import ExperimentSpec, default_scene, nmse_db
from fasloc.forward_model import RssiProfile, Scene

LAYOUT = FasLayout(4, 0.5)
ANGLE = st.floats(-math.pi, math.pi)


def snr_spec(axis_values, **fields):
    return ExperimentSpec(sweep_axis="snr_db", axis_values=(axis_values,), trials=100,
                          base_seed=1, estimators=["fas_ls"], scene=default_scene(), **fields)


def aperture_spec(axis_values, **fields):
    return ExperimentSpec(sweep_axis="aperture_w", axis_values=(axis_values,), trials=100,
                          base_seed=1, estimators=["fas_ls"], scene=default_scene(), **fields)


# input -> (build(**fields), a strategy of valid values per real-valued field)
CASES = {
    "FasLayout": (FasLayout, {"n_ports": st.integers(1, 64), "aperture": st.floats(0.0, 2.0),
                              "wavelength": st.floats(0.01, 1.0)}),
    "Scene": (Scene, {"distance": st.floats(1.0, 100.0), "bearing": ANGLE,
                      "tx_power_dbm": st.floats(-30.0, 30.0), "gain_tx": st.floats(0.1, 10.0),
                      "gain_rx": st.floats(0.1, 10.0), "path_loss_exp": st.floats(2.0, 6.0)}),
    "RssiProfile": (lambda **f: RssiProfile(LAYOUT, **f),
                    {"theta": ANGLE, "amp_const": st.floats(1e-6, 1e-2),
                     "path_loss_exp": st.floats(1.5, 6.0)}),
    "EstimatorConfig": (lambda d_min, d_max, tolerance: EstimatorConfig((d_min, d_max),
                                                                        tolerance),
                        {"d_min": st.floats(0.01, 1.0), "d_max": st.floats(10.0, 1e4),
                         "tolerance": st.floats(1e-9, 1.0)}),
    "build_covariance": (lambda sigma2: build_covariance(LAYOUT, CorrelationModel.AVERAGE_MU,
                                                         sigma2),
                         {"sigma2": st.floats(1e-3, 10.0)}),
    "nmse_db": (lambda d_true: nmse_db([9.0, 11.0], d_true), {"d_true": st.floats(0.1, 100.0)}),
    "ExperimentSpec(snr_db)": (snr_spec, {"axis_values": st.floats(-10.0, 30.0),
                                          "n_ports": st.integers(2, 16),
                                          "aperture": st.floats(0.0, 2.0),
                                          "wavelength": st.floats(0.01, 1.0)}),
    "ExperimentSpec(aperture_w)": (aperture_spec, {"axis_values": st.floats(0.1, 2.0),
                                                   "spacing_h": st.floats(0.01, 0.5),
                                                   "snr_db": st.floats(-10.0, 30.0)}),
}
NOT_FINITE_REALS = st.sampled_from([math.nan, math.inf, -math.inf, True, "1"])
BEYOND_FLOATS = 10 ** 400  # an int that float() overflows on


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_value_that_is_not_a_finite_real_raises_naming_its_field(data):
    build, valid = CASES[data.draw(st.sampled_from(sorted(CASES)))]
    fields = {name: data.draw(values, label=name) for name, values in valid.items()}
    build(**fields)
    name = data.draw(st.sampled_from(sorted(valid)), label="field")
    with pytest.raises(ValueError, match=name):
        build(**{**fields, name: data.draw(NOT_FINITE_REALS, label="value")})


VALID = {"FasLayout": {"n_ports": 4, "aperture": 0.5, "wavelength": 0.125},
         "Scene": {"distance": 10.0, "bearing": 1.0},
         "RssiProfile": {"theta": 1.0, "amp_const": 3e-4, "path_loss_exp": 2.0},
         "EstimatorConfig": {"d_min": 0.5, "d_max": 200.0, "tolerance": 1e-6},
         "build_covariance": {"sigma2": 0.1}, "nmse_db": {"d_true": 10.0},
         "ExperimentSpec(snr_db)": {"axis_values": 10.0, "n_ports": 4, "aperture": 0.5},
         "ExperimentSpec(aperture_w)": {"axis_values": 0.5, "spacing_h": 0.05, "snr_db": 10.0}}


@pytest.mark.parametrize("case, name, value", [
    ("FasLayout", "aperture", -0.1), ("FasLayout", "aperture", math.inf),
    ("FasLayout", "aperture", "0.5"), ("FasLayout", "wavelength", 0.0),
    ("FasLayout", "wavelength", -1.0), ("FasLayout", "wavelength", math.nan),
    ("FasLayout", "n_ports", 0), ("FasLayout", "n_ports", 2.5),
    ("Scene", "distance", 0.0), ("Scene", "distance", -1.0), ("Scene", "distance", math.inf),
    ("Scene", "distance", "ten"), ("Scene", "bearing", math.nan), ("Scene", "bearing", None),
    ("Scene", "tx_power_dbm", None), ("Scene", "gain_tx", 0.0), ("Scene", "gain_rx", -1.0),
    ("Scene", "gain_tx", "1"), ("Scene", "path_loss_exp", 1.9),
    ("Scene", "path_loss_exp", 6.1), ("Scene", "path_loss_exp", math.nan),
    ("RssiProfile", "theta", math.inf), ("RssiProfile", "amp_const", 0.0),
    ("RssiProfile", "amp_const", -3e-4), ("RssiProfile", "amp_const", math.inf),
    ("RssiProfile", "path_loss_exp", 0.0), ("RssiProfile", "path_loss_exp", math.nan),
    ("EstimatorConfig", "d_min", 0.0), ("EstimatorConfig", "d_min", -1.0),
    ("EstimatorConfig", "d_max", math.inf), ("EstimatorConfig", "d_max", 0.5),
    ("EstimatorConfig", "tolerance", 0.0), ("EstimatorConfig", "tolerance", math.inf),
    ("build_covariance", "sigma2", 0.0), ("build_covariance", "sigma2", -1.0),
    ("build_covariance", "sigma2", math.inf), ("nmse_db", "d_true", 0.0),
    ("nmse_db", "d_true", -10.0),
    ("ExperimentSpec(snr_db)", "axis_values", math.nan),
    ("ExperimentSpec(snr_db)", "axis_values", "10"),
    ("ExperimentSpec(snr_db)", "n_ports", math.nan),
    ("ExperimentSpec(snr_db)", "aperture", "0.5"),
    ("ExperimentSpec(aperture_w)", "axis_values", math.inf),
    ("ExperimentSpec(aperture_w)", "spacing_h", 0.0),
    ("ExperimentSpec(aperture_w)", "spacing_h", -0.05),
    ("ExperimentSpec(aperture_w)", "spacing_h", 1e-320),
    ("ExperimentSpec(aperture_w)", "snr_db", "10"),
    *(pytest.param(case, name, BEYOND_FLOATS, id=f"{case}-{name}-int_beyond_floats")
      for case, name in (("Scene", "distance"), ("FasLayout", "wavelength"),
                         ("EstimatorConfig", "d_max"), ("ExperimentSpec(snr_db)", "axis_values"))),
])
def test_each_kind_of_bad_value_is_rejected_naming_its_field(case, name, value):
    # one row per field and kind: zero, negative, out of range, not finite, wrong type
    build = CASES[case][0]
    build(**VALID[case])
    with pytest.raises(ValueError, match=name):
        build(**{**VALID[case], name: value})


def test_the_rule_takes_an_int_in_the_float_range_and_no_array():
    assert _check_real("x", 2 ** 1000, lo=0) == 2 ** 1000
    for value in (2 ** 2000, -BEYOND_FLOATS):
        with pytest.raises(ValueError, match="x must be finite"):
            _check_real("x", value)
    assert _check_real("x", np.float32(0.5), positive=True) == np.float32(0.5)
    for value in (np.array(0.5), np.array([0.5]), np.True_, 1j, None):
        with pytest.raises(ValueError, match="x must be a number"):
            _check_real("x", value)
    with pytest.raises(ValueError, match=r"x must lie in \[2, 6\]"):
        _check_real("x", 7, lo=2, hi=6)
    # a record keeps its fields hashable and serializable; the solver config
    # reads a 0-d bracket end as its number
    with pytest.raises(ValueError, match="aperture"):
        FasLayout(4, np.array(0.5))
    with pytest.raises(ValueError, match="distance"):
        Scene(np.array(10.0), 1.0)
    EstimatorConfig((np.array(0.1), np.array(1000.0)))
    with pytest.raises(ValueError, match="d_min"):
        EstimatorConfig((np.array(True), 2.0))
