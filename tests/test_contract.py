"""The input contract: every public entry point, given a value outside its
domain, raises InvalidInput (OriginDivergence at the origin of the 3D
solution) at once and never returns NaN or inf."""

import inspect
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inverse_abel import g2_abel

import fracwave
from fracwave import FracWaveError, InvalidInput, NonConvergence, OriginDivergence
from fracwave.cli import main

NAN, INF = math.nan, math.inf

# Bad values by kind of argument.  A kind lists only values the functions
# taking it document as invalid: t = 0 is valid for g_hat ("t0"), x = inf
# for ml_neg ("x").
BAD = {
    "t": [NAN, INF, -INF, 0.0, -1.0],
    "t0": [NAN, INF, -INF, -1.0],
    "r": [NAN, INF, -1.0],
    "r+": [NAN, INF, -1.0, 0.0],
    "x": [NAN, -1.0],
    "finite": [NAN, INF, complex(0.5, INF)],
    "tol": [NAN, INF, 0.0, -1.0],
    "sigma": [NAN, INF, 0.0, -1.0, 1.5],          # strip (0, min(alpha, n)) = (0, 1.5)
    "which": ["bogus"],
    "alpha": [NAN, INF, 0.5, 2.0, 2.5],          # window [1, 2)
    "alpha(1,2)": [NAN, INF, 0.5, 1.0, 2.0, 2.5],
    "alpha[1,2]": [NAN, INF, -1.0, 0.0, 0.5, 2.5],
    "beta": [NAN, INF, 5.0],
    "alphas": [[1.2, NAN], [1.2, 2.5], [1.5, 1.2]],
    "grid": [[0.0, NAN, 1.0], [0.0, 0.5, INF]],
}

# Row -> (valid keyword arguments, {argument: kind of its bad values}).  A row
# is named after the public function it calls, or listed in FUNCTION_OF where
# one function has a row per dimension: its order window depends on n.
TABLE = {
    "g1": ({"alpha": 1.5, "r": 1.0, "t": 1.0}, {"alpha": "alpha", "r": "r", "t": "t"}),
    "g1_dr": ({"alpha": 1.5, "r": 1.0, "t": 1.0}, {"alpha": "alpha", "r": "r+", "t": "t"}),
    "g1_dt": ({"alpha": 1.5, "r": 1.0, "t": 1.0}, {"alpha": "alpha", "r": "r", "t": "t"}),
    "g3": ({"alpha": 1.5, "r": 1.0, "t": 1.0}, {"alpha": "alpha", "r": "r+", "t": "t"}),
    "g3_via_g1_spatial": ({"alpha": 1.5, "r": 1.0, "t": 1.0},
                          {"alpha": "alpha", "r": "r+", "t": "t"}),
    "g3_via_g1_temporal": ({"alpha": 1.5, "r": 1.0, "t": 1.0},
                           {"alpha": "alpha", "r": "r+", "t": "t"}),
    "g_hat": ({"alpha": 1.5, "kappa_abs": 1.0, "t": 1.0},
              {"alpha": "alpha", "kappa_abs": "r", "t": "t0"}),
    "g_integral": ({"alpha": 1.5, "n": 2, "r": 1.0, "t": 1.0},
                   {"alpha": "alpha(1,2)", "r": "r", "t": "t", "tol": "tol"}),
    "g_mellin_barnes": ({"alpha": 1.5, "n": 2, "r": 1.0, "t": 1.0},
                        {"alpha": "alpha(1,2)", "r": "r+", "t": "t", "sigma": "sigma"}),
    "g_origin": ({"alpha": 1.5, "n": 1, "t": 1.0}, {"alpha": "alpha", "t": "t"}),
    "g_spectral": ({"alpha": 1.5, "n": 2, "r": 1.0, "t": 1.0},
                   {"alpha": "alpha(1,2)", "r": "r", "t": "t"}),
    "gravity_center_velocity": ({"alpha": 1.5}, {"alpha": "alpha(1,2)"}),
    "l_aux": ({"alpha": 1.5, "n": 2, "rho": 1.0}, {"alpha": "alpha(1,2)", "rho": "r+"}),
    "max_location": ({"alpha": 1.5, "n": 3, "t": 1.0}, {"alpha": "alpha(1,2)", "t": "t"}),
    "mb_kernel": ({"alpha": 1.5, "n": 2, "s": 0.5}, {"alpha": "alpha(1,2)", "s": "finite"}),
    "ml_neg": ({"alpha": 1.5, "x": 2.0, "tol": 1e-12},
               {"alpha": "alpha[1,2]", "x": "x", "tol": "tol"}),
    "moment_1d": ({"alpha": 1.5, "n": 1, "beta": 0.5, "t": 1.0},
                  {"alpha": "alpha", "beta": "beta", "t": "t"}),
    "moment_2d": ({"alpha": 1.5, "n": 2, "beta": 1.5, "t": 1.0},
                  {"alpha": "alpha(1,2)", "beta": "beta", "t": "t"}),
    "moment_3d": ({"alpha": 1.5, "n": 3, "beta": 2.5, "t": 1.0},
                  {"alpha": "alpha(1,2)", "beta": "beta", "t": "t"}),
    "moment_numeric": ({"alpha": 1.5, "n": 1, "beta": 0.5, "t": 1.0},
                       {"alpha": "alpha", "beta": "beta", "t": "t"}),
    "phase_velocity": ({"alpha": 1.5, "n": 1}, {"alpha": "alpha"}),
    "sign_profile_3d": ({"alpha": 1.5, "t": 1.0, "r_grid": [0.5, 1.0]},
                        {"alpha": "alpha(1,2)", "t": "t", "r_grid": "r+"}),
    "solve_ivp_1d": ({"alpha": 1.5, "xs": [0.0, 0.5, 1.0], "phis": [0.0, 1.0, 0.0], "t": 1.0,
                      "out_grid": [0.0, 0.5, 1.0]},
                     {"alpha": "alpha", "t": "t", "xs": "grid", "phis": "grid",
                      "out_grid": "grid"}),
    "velocity_curve": ({"n": 3, "alphas": [1.2, 1.5]}, {"alphas": "alphas", "which": "which"}),
    "zero_crossing_z": ({"alpha": 1.5}, {"alpha": "alpha[1,2]"}),
}

FUNCTION_OF = {"moment_1d": "moment", "moment_2d": "moment", "moment_3d": "moment"}


def function_of(row):
    return getattr(fracwave, FUNCTION_OF.get(row, row))


CASES = [pytest.param(name, arg, bad, id=f"{name}-{arg}={bad!r}")
         for name, (_, kinds) in TABLE.items()
         for arg, kind in kinds.items()
         for bad in BAD[kind]]


def assert_fracwave_error_at_once(call):
    start = time.perf_counter()
    try:
        result = call()
    except FracWaveError as exc:
        assert time.perf_counter() - start < 1.0
        return exc
    pytest.fail(f"returned {result!r} instead of raising a FracWaveError")


def test_every_public_function_has_a_row():
    public = {name for name in fracwave.__all__
              if inspect.isfunction(getattr(fracwave, name))}
    assert public == {FUNCTION_OF.get(row, row) for row in TABLE}
    for row, (_, kinds) in TABLE.items():  # every setting a caller may leave out
        params = inspect.signature(function_of(row)).parameters.values()  # is checked
        defaulted = {p.name for p in params if p.default is not inspect.Parameter.empty}
        assert defaulted <= set(kinds), row


def test_every_order_window_refuses_orders_below_one():
    # the equation's orders are 1 <= alpha <= 2: no public window reaches below
    for name, (_, kinds) in TABLE.items():
        if "alpha" in kinds:
            assert any(bad < 1.0 for bad in BAD[kinds["alpha"]]), name


# The only bad values that are a point of divergence rather than outside the
# argument's domain: r = 0 for the 3D solution.
AT_ORIGIN = [("g3", "r", 0.0), ("sign_profile_3d", "r_grid", 0.0)]


@pytest.mark.parametrize("name,arg,bad", CASES)
def test_bad_input_raises_fracwave_error(name, arg, bad):
    valid, _ = TABLE[name]
    exc = assert_fracwave_error_at_once(lambda: function_of(name)(**{**valid, arg: bad}))
    if (name, arg, bad) in AT_ORIGIN:
        assert type(exc) is OriginDivergence
    else:
        assert type(exc) is InvalidInput and isinstance(exc, ValueError)


@pytest.mark.parametrize("name", list(TABLE))
def test_valid_row_returns(name):
    valid, _ = TABLE[name]
    function_of(name)(**valid)


def test_invalid_input_is_a_value_error():
    with pytest.raises(ValueError):
        fracwave.g1(1.5, 1.0, NAN)
    assert issubclass(InvalidInput, FracWaveError)


def test_documented_limits_stay_valid():
    assert fracwave.ml_neg(1.5, INF).value == 0.0
    assert fracwave.g_hat(1.5, 1.0, 0.0) == 1.0
    with pytest.raises(InvalidInput):
        fracwave.ml_neg(2.0, INF)


# One call that raises each exported error class: a class that nothing raises
# has no call to put here, and the set comparison below fails.
RAISERS = {
    fracwave.InvalidInput: lambda: fracwave.g1(1.5, 1.0, -1.0),
    fracwave.NonConvergence: lambda: fracwave.g3(1.5, 1e-300, 1.0),
    fracwave.OriginDivergence: lambda: fracwave.g3(1.5, 0.0, 1.0),
}


def test_every_exported_error_class_has_a_raiser():
    exported = {getattr(fracwave, name) for name in fracwave.__all__}
    errors = {obj for obj in exported if isinstance(obj, type) and issubclass(obj, FracWaveError)}
    assert set(RAISERS) == errors - {FracWaveError}


@pytest.mark.parametrize("cls", list(RAISERS), ids=lambda cls: cls.__name__)
def test_error_class_is_raised(cls):
    with pytest.raises(cls) as info:
        RAISERS[cls]()
    assert info.type is cls


# -- calls that returned NaN or inf, ran unbounded or leaked a non-fracwave
# error before the contract was enforced -------------------------------------

HOLES = {
    "g_integral_infinite_r": lambda: fracwave.g_integral(1.5, 2, INF, 1.0),
    "max_location_infinite_t": lambda: fracwave.max_location(1.5, 3, INF),
    "moment_numeric_out_of_window": lambda: fracwave.moment_numeric(1.5, 1, 5.0, 1.0),
    "solve_ivp_1d_nan_phi": lambda: fracwave.solve_ivp_1d(
        1.5, [0.0, 0.5, 1.0], [0.0, NAN, 0.0], 1.0, [0.0, 0.5, 1.0]),
    "solve_ivp_1d_nan_grid": lambda: fracwave.solve_ivp_1d(
        1.5, [0.0, NAN, 1.0], [0.0, 1.0, 0.0], 1.0, [0.5]),
    "g1_bare_value_error": lambda: fracwave.g1(1.5, 1.0, -1.0),
    "g3_infinite_r": lambda: fracwave.g3(1.5, INF, 1.0),
    "g3_overflow": lambda: fracwave.g3(1.5, 1e-300, 1.0),
    "g_mellin_barnes_overflow": lambda: fracwave.g_mellin_barnes(1.5, 2, 1e-300, 1.0),
    # r/t or r^2 out of the double range: warned before it raised
    "g_mellin_barnes_ratio_underflow": lambda: fracwave.g_mellin_barnes(1.5, 2, 1e-300, 1e100),
    "g_mellin_barnes_ratio_overflow": lambda: fracwave.g_mellin_barnes(1.5, 1, 1e300, 1e-300),
    "g3_via_g1_temporal_underflow": lambda: fracwave.g3_via_g1_temporal(1.5, 1e-200, 1.0),
    # warned, then raised InvalidInput about an r passed finite, or
    # OriginDivergence about an r > 0
    "sign_profile_3d_ratio_overflow": lambda: fracwave.sign_profile_3d(1.5, 1e-10, [1e300]),
    "sign_profile_3d_ratio_underflow": lambda: fracwave.sign_profile_3d(1.5, 1e100, [1e-300]),
}


@pytest.mark.parametrize("name", list(HOLES))
def test_former_hole_raises(name):
    assert_fracwave_error_at_once(HOLES[name])


def test_former_hole_errors_are_specific():
    with pytest.raises(InvalidInput, match="moment order"):
        HOLES["moment_numeric_out_of_window"]()
    for name in ("solve_ivp_1d_nan_phi", "solve_ivp_1d_nan_grid"):
        with pytest.raises(InvalidInput, match="grid"):
            HOLES[name]()
    for name in ("sign_profile_3d_ratio_overflow", "sign_profile_3d_ratio_underflow"):
        with pytest.raises(NonConvergence, match="r/t"):
            HOLES[name]()


@pytest.mark.parametrize("r", [1e-20, 1e-100])
def test_g_integral_tiny_r_follows_the_power_law(r):
    # g_integral(1.5, 2, r, 1) raised MemoryError at r = 1e-20 and numpy's
    # ValueError at 1e-100, then NonConvergence for both; G_{alpha,2} ~ r^(alpha-2)
    # as r -> 0, and the value at 1e-14 is checked against the Abel oracle
    start = time.perf_counter()
    tiny = fracwave.g_integral(1.5, 2, r, 1.0)
    assert time.perf_counter() - start < 1.0
    near = fracwave.g_integral(1.5, 2, 1e-14, 1.0)
    assert math.isfinite(near.value) and math.isfinite(tiny.value)
    assert tiny.value * r ** 0.5 == pytest.approx(near.value * 1e-7, rel=1e-8)
    assert abs(near.value - g2_abel(1.5, 1e-14, 1.0)[0]) <= near.est_error


# Valid calls at the ends of the double range, and the 3D maximum within
# ~1e-8 of alpha = 2, where the two quartic roots near q = 1 merge: these leaked
# OverflowError or numpy's ValueError, or returned inf.
NEAR_TWO = [float(a) for a in 2.0 - np.geomspace(1e-3, 1e-15, 200)]
EXTREMES = [
    ("moment", (1.5, 1, 1.49, 1e300)),
    ("moment", (1.5, 1, -0.99, 1e-320)),
    ("moment", (1.5, 3, 0.6, 1e-300)),
    ("moment", (1.5, 3, 3.4, 1e300)),
    ("moment_numeric", (1.5, 1, -0.9, 1e-300)),
    ("moment_numeric", (1.5, 3, 2.5, 1e100)),
    ("moment_numeric", (1.5, 1, 0.5, 1.7e308)),
    ("g_origin", (1.0, 1, 1e-320)),
    *[("g_integral", (1.5, n, r, 1.0)) for n in (1, 2, 3) for r in (1e-310, 1e-300, 1e160)],
    *[("phase_velocity", (alpha, 3)) for alpha in NEAR_TWO],
    *[("max_location", (alpha, 3, 1.0)) for alpha in NEAR_TWO],
]


def test_extreme_valid_calls_are_finite_or_fracwave_error():
    for name, args in EXTREMES:
        try:
            result = getattr(fracwave, name)(*args)
        except FracWaveError:
            continue
        assert math.isfinite(getattr(result, "location", getattr(result, "value", result))), \
            (name, args)


@settings(max_examples=100, deadline=None, database=None)
@given(alpha=st.floats(1.0, 2.0, exclude_max=True), n=st.sampled_from([1, 2, 3]),
       r=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=1, max_size=50),
       t=st.floats(1e-100, 1e100))
def test_g_spectral_finite_or_fracwave_error(alpha, n, r, t):
    """Every call on an array of r returns finite values and est_errors of
    its shape, or raises a FracWaveError, within 1 s."""
    start = time.perf_counter()
    try:
        res = fracwave.g_spectral(alpha, n, np.array(r), t)
    except FracWaveError:
        res = None
    assert time.perf_counter() - start < 1.0
    if res is not None:
        assert res.value.shape == res.est_error.shape == (len(r),)
        assert np.all(np.isfinite(res.value)) and np.all(np.isfinite(res.est_error))
        assert np.all(res.est_error >= 0.0)


ORDER = st.floats(1.0, 2.0)
LOG_T = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
LOG_R = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@st.composite
def ivp_args(draw):
    """A uniform sample grid of 2-30 points with finite samples, and an
    output grid that is either the sample grid or free points."""
    size = draw(st.integers(2, 30))
    xs = draw(st.floats(-10.0, 10.0)) + draw(st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e)) \
        * np.arange(size)
    phis = draw(st.lists(st.floats(-1e300, 1e300), min_size=size, max_size=size))
    out = draw(st.one_of(st.just(xs), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5)))
    return draw(ORDER), xs, phis, draw(LOG_T), out


# Public name -> (strategy of its positional arguments, time bound in s).
# Orders over the closed window [1, 2], times and wave numbers over 1e+-100.
CONTRACTS = {
    "g_hat": (st.tuples(ORDER, st.one_of(st.just(0.0), LOG_T), st.one_of(st.just(0.0), LOG_T)),
              1.0),
    "solve_ivp_1d": (ivp_args(), 1.0),
    "max_location": (st.tuples(ORDER, st.sampled_from([1, 3]), LOG_T), 1.0),
    "phase_velocity": (st.tuples(ORDER, st.sampled_from([1, 3])), 1.0),
    "moment": (st.tuples(ORDER, st.sampled_from([1, 2, 3]), st.floats(-1.0, 4.0), LOG_T), 1.0),
    "moment_numeric": (st.tuples(ORDER, st.sampled_from([1, 2, 3]), st.floats(-1.0, 4.0),
                                 LOG_T), 2.0),
    "mb_kernel": (st.tuples(ORDER, st.sampled_from([1, 2, 3]), st.floats(-1e6, 1e6)), 1.0),
    "sign_profile_3d": (st.tuples(ORDER, LOG_T, st.lists(LOG_R, min_size=1, max_size=10)), 1.0),
    "velocity_curve": (st.tuples(st.sampled_from([1, 3]),
                                 st.lists(ORDER, min_size=1, max_size=5, unique=True).map(sorted),
                                 st.sampled_from(["phase", "gravity"])), 1.0),
}


@pytest.mark.parametrize("name", list(CONTRACTS))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_finite_result_or_fracwave_error(name, data):
    """Each call returns finite values or raises a FracWaveError, with no
    RuntimeWarning, within its time bound."""
    strategy, seconds = CONTRACTS[name]
    args = data.draw(strategy)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = getattr(fracwave, name)(*args)
        except FracWaveError:
            result = None
    assert time.perf_counter() - start < seconds
    if isinstance(result, fracwave.ExtremumReport):
        result = (result.location, result.value)
    if isinstance(result, complex):
        result = (result.real, result.imag)
    if result is not None:
        assert np.all(np.isfinite(np.asarray(result, dtype=float)))


@pytest.mark.parametrize("r,t", [("1", "inf"), ("1e-300", "1")])
def test_cli_mellin_never_prints_nonfinite(capsys, r, t):
    code = main(["eval", "--alpha", "1.5", "--dim", "2", "--r", r, "--t", t,
                 "--method", "mellin"])
    assert code in (2, 3), capsys.readouterr().out
