"""The one scalar/array convention of the public elementwise functions.

A scalar argument gives a Python float; a list or an array of any shape,
empty included, gives an ndarray of that shape whose entries equal the
scalar calls bit for bit; NaN,
infinities and points outside the function's interval raise ArgumentError
(DomainError for the inverse prize curve).
"""

import numpy as np
import pytest

from contestlab import (
    ArgumentError,
    Contest,
    ContestEnvironment,
    ContinuumEnvironment,
    CostFunction,
    DomainError,
    binom_pmf,
    binom_tail,
    continuum_effort_cdf,
    continuum_strategy,
    exante_cdf,
    prize_expectation,
    prize_expectation_derivative,
    prize_expectation_inverse,
    sample,
    solve,
    type_cdf,
)

CONTEST = Contest((0.0, 0.25, 1.0))
EQM = solve(
    ContestEnvironment(2, (CostFunction.linear(2.0), CostFunction.linear(1.0)), (0.5, 0.5)),
    CONTEST,
)
TABLE = CostFunction.tabulated([(0.0, 0.0), (1.0, 2.0), (3.0, 7.0)])
POWER = CostFunction.power(2.0, 1.5)
CENV = ContinuumEnvironment.tabulated(2, [(1.0, 0.0), (1.5, 0.6), (2.0, 1.0)])
UNIFORM = ContinuumEnvironment.uniform(2, 1.0, 2.0)

TS = [0.0, 0.1, 0.3, 0.5, 0.9, 1.0]
EFFORTS = [float(x) for x in np.array([-0.2, 0.0, 0.3, 0.5, 0.8, 1.5]) * EQM.max_effort]
BAD_T = [np.nan, -0.1, 1.5, np.inf]
XS = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
BAD_EFFORT = [np.nan, -1.0, np.inf]

# name -> (function of one argument, six valid points, invalid points, error)
CASES = {
    "binom_pmf": (lambda t: binom_pmf(3, 1, t), TS, BAD_T, ArgumentError),
    "binom_tail": (lambda t: binom_tail(3, 1, t, "at_least"), TS, BAD_T, ArgumentError),
    "prize_expectation": (lambda t: prize_expectation(CONTEST, t), TS, BAD_T, ArgumentError),
    "prize_expectation_derivative": (
        lambda t: prize_expectation_derivative(CONTEST, t), TS, BAD_T, ArgumentError
    ),
    "prize_expectation_inverse": (
        lambda y: prize_expectation_inverse(CONTEST, y),
        [0.0, 0.05, 0.2, 0.5, 0.8, 1.0],
        BAD_T,
        DomainError,
    ),
    "CostFunction.evaluate": (TABLE.evaluate, XS, BAD_EFFORT, ArgumentError),
    "CostFunction.inverse": (
        TABLE.inverse, [0.0, 1.0, 2.0, 5.0, 7.0, 9.0], BAD_EFFORT, ArgumentError
    ),
    "CostFunction.slope": (POWER.slope, XS, BAD_EFFORT, ArgumentError),
    "type_cdf": (lambda x: type_cdf(EQM, 2, x), EFFORTS, [np.nan, np.inf], ArgumentError),
    "exante_cdf": (lambda x: exante_cdf(EQM, x), EFFORTS, [np.nan, -np.inf], ArgumentError),
    "sample": (lambda u: sample(EQM, 2, u), TS, BAD_T, ArgumentError),
    "ContinuumEnvironment.cdf": (
        CENV.cdf, [0.5, 1.0, 1.2, 1.5, 2.0, 3.0], [np.nan, np.inf], ArgumentError
    ),
    "ContinuumEnvironment.pdf": (
        CENV.pdf, [0.5, 1.0, 1.2, 1.7, 2.0, 3.0], [np.nan, -np.inf], ArgumentError
    ),
    "ContinuumEnvironment.quantile": (CENV.quantile, TS, BAD_T, ArgumentError),
    "continuum_strategy": (
        lambda theta: continuum_strategy(UNIFORM, CONTEST, theta),
        [1.0, 1.1, 1.3, 1.5, 1.9, 2.0],
        [np.nan, 0.5, 2.5, np.inf],
        ArgumentError,
    ),
    "continuum_effort_cdf": (
        lambda x: continuum_effort_cdf(UNIFORM, CONTEST, x),
        [-1.0, 0.0, 0.01, 0.05, 0.2, 10.0],
        [np.nan, np.inf],
        ArgumentError,
    ),
}


def _inputs(valid):
    flat = np.array(valid)
    return {
        "list": valid,
        "1d": flat,
        "2d": flat.reshape(2, 3),
        "empty": np.empty(0),
        "empty_2d": np.empty((0, 3)),
    }


@pytest.mark.parametrize("name", sorted(CASES))
class TestElementwiseConvention:
    def test_scalar_gives_float(self, name):
        fn, valid, _, _ = CASES[name]
        for v in valid:
            assert type(fn(v)) is float
            assert type(fn(np.float64(v))) is float
            assert type(fn(np.array(v))) is float

    @pytest.mark.parametrize("layout", ["list", "1d", "2d", "empty", "empty_2d"])
    def test_array_keeps_shape_and_matches_scalar_calls(self, name, layout):
        fn, valid, _, _ = CASES[name]
        x = _inputs(valid)[layout]
        shape = np.shape(x)
        out = fn(x)
        assert isinstance(out, np.ndarray)
        assert out.shape == shape
        expected = np.array([fn(float(v)) for v in np.ravel(x)], dtype=float).reshape(shape)
        assert out.dtype == np.float64
        assert out.tobytes() == expected.tobytes()

    def test_nan_and_out_of_interval_raise(self, name):
        fn, valid, invalid, error = CASES[name]
        for bad in invalid:
            for x in (bad, [valid[1], bad], np.array([[valid[1], bad], [valid[2], valid[3]]])):
                with pytest.raises(error):
                    fn(x)
