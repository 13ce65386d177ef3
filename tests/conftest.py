import os

import numpy as np
import pytest
from hypothesis import strategies as st

from coporeg import CopositiveProgram, SimplexPoint, regularize

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def _field_bytes(value):
    """A field of a program or of its standard form as comparable bytes:
    an array's dtype, shape, bytes and write flag; a float's bytes, so
    that -0.0 and 0.0 differ."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes(), value.flags.writeable)
    if isinstance(value, (list, tuple)):
        return tuple(_field_bytes(v) for v in value)
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    return (type(value).__name__, value)


def assert_same_program(got, want):
    """Every field of the two ``LinearProgram`` objects, and of their
    standard forms, is equal byte for byte."""
    for a, b in ((got, want), (got._std, want._std)):
        fields = sorted(set(vars(b)) - {"_std"})
        assert sorted(set(vars(a)) - {"_std"}) == fields
        for name in fields:
            assert _field_bytes(getattr(a, name)) == _field_bytes(getattr(b, name)), name


@pytest.fixture(scope="session")
def e1():
    # A(x) = [[1, x], [x, 1]]; strictly feasible at x = 0
    return CopositiveProgram([1.0], [np.eye(2), [[0, 1], [1, 0]]])


@pytest.fixture(scope="session")
def e2():
    # A(x) = [[0, x], [x, 1]]; X = {x >= 0}, immobile point (1, 0)
    return CopositiveProgram([1.0], [[[0, 0], [0, 1]], [[0, 1], [1, 0]]])


@pytest.fixture(scope="session")
def e3():
    # A(x) = x [[1, -1], [-1, 1]]; X = {x >= 0}, immobile point (1/2, 1/2)
    return CopositiveProgram([1.0], [np.zeros((2, 2)), [[1, -1], [-1, 1]]])


@pytest.fixture(scope="session")
def e4():
    # A(x) = x [[0, 1], [1, 0]]; X = {x >= 0}, immobile points (1,0) and (0,1):
    # drives two iterations and an empty reduced region
    return CopositiveProgram([1.0], [np.zeros((2, 2)), [[0, 1], [1, 0]]])


@pytest.fixture(scope="session")
def horn():
    return np.array([[1, -1, 1, 1, -1],
                     [-1, 1, -1, 1, 1],
                     [1, -1, 1, -1, 1],
                     [1, 1, -1, 1, -1],
                     [-1, 1, 1, -1, 1]], dtype=float)


@pytest.fixture(scope="session")
def reg_e2(e2):
    res = regularize(e2)
    assert res.status == "regularized"
    return res


@pytest.fixture(scope="session")
def reg_e3(e3):
    res = regularize(e3)
    assert res.status == "regularized"
    return res


def simplex(*coords):
    return SimplexPoint(list(coords))


# arbitrary JSON values, for the parser and reader fuzz tests
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)
