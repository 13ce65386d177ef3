import os

import numpy as np
import pytest
from hypothesis import strategies as st

from coporeg import CopositiveProgram, SimplexPoint, regularize

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


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
