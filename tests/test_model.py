import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coporeg import (CopositiveProgram, ProblemFormatError, Record,
                     SimplexPoint, eval_constraint, kernel_dimension,
                     parse_matrix, parse_problem, quad_form,
                     serialize_problem, shift_to_feasible)
from coporeg.model import (project_to_zero_rows, row_functionals,
                           row_residuals, zero_row_matrix)

from conftest import fixture_path, json_values


def test_eval_constraint_examples(e1, e2):
    assert np.allclose(eval_constraint(e1, [0.0]), np.eye(2))
    assert np.allclose(eval_constraint(e1, [1.0]), [[1, 1], [1, 1]])
    assert np.allclose(eval_constraint(e2, [2.0]), [[0, 2], [2, 1]])


def test_eval_constraint_dimension_error(e1):
    with pytest.raises(ValueError):
        eval_constraint(e1, [1.0, 2.0])
    with pytest.raises(ValueError):
        eval_constraint(e1, np.zeros((3, 2)))


def test_eval_constraint_is_affine():
    rng = np.random.default_rng(0)
    prog = CopositiveProgram(rng.normal(size=2),
                             [0.5 * (m + m.T) for m in rng.normal(size=(3, 3, 3))])
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        a = rng.uniform()
        lhs = eval_constraint(prog, a * x + (1 - a) * y)
        rhs = a * eval_constraint(prog, x) + (1 - a) * eval_constraint(prog, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # the rows of an (S, n) array: each matrix has the bits of its own call
    X = rng.normal(size=(7, 2))
    AX = eval_constraint(prog, X)
    assert AX.shape == (7, 3, 3)
    for ax, x in zip(AX, X):
        assert ax.tobytes() == eval_constraint(prog, x).tobytes()
    # both have the bytes of the explicit sum A_0 + x_1 A_1 + x_2 A_2, left
    # to right
    A0, A1, A2 = prog.A
    x = rng.normal(size=2)
    assert eval_constraint(prog, x).tobytes() == (A0 + x[0] * A1 + x[1] * A2).tobytes()
    want = A0 + X[:, 0, None, None] * A1 + X[:, 1, None, None] * A2
    assert AX.tobytes() == want.tobytes()


def test_quad_form_examples():
    t = SimplexPoint([0.5, 0.5])
    assert quad_form(np.eye(2), t) == pytest.approx(0.5)
    assert quad_form(np.array([[1, -1], [-1, 1]]), t) == pytest.approx(0.0, abs=1e-15)
    assert quad_form(np.array([[0, -1], [-1, 0]]), t) == pytest.approx(-0.5)


def test_quad_form_matches_double_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.integers(2, 6)
        m = rng.normal(size=(p, p))
        D = 0.5 * (m + m.T)
        raw = rng.uniform(0.1, 1.0, size=p)
        t = SimplexPoint(raw / raw.sum())
        brute = sum(D[k, l] * t.coords[k] * t.coords[l]
                    for k in range(p) for l in range(p))
        assert abs(quad_form(D, t) - brute) <= 1e-12


def test_kernel_dimension(e1, e2):
    # E2 functionals D -> D_22 and D -> 2 D_12 have rank 2; dim S(2) = 3
    assert kernel_dimension(e2) == 1
    assert kernel_dimension(e1) == 1
    zeros = CopositiveProgram([1.0], [np.zeros((3, 3))] * 2)
    assert kernel_dimension(zeros) == 6


def test_kernel_dimension_scale_invariant(e2):
    scaled = CopositiveProgram(e2.c, [7.0 * e2.A[0], -3.0 * e2.A[1]])
    assert kernel_dimension(scaled) == kernel_dimension(e2)


def test_kernel_dimension_of_entries_near_the_float_maximum():
    # the functional doubles off-diagonal entries: 2e308 would overflow to
    # inf, and a rank-0 row would read dimension 3
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e22 = [[0.0, 0.0], [0.0, 1.0]]
    big = CopositiveProgram([1.0], [e22, 1e308 * swap])
    halved = CopositiveProgram([1.0], [e22, 5e307 * swap])
    assert kernel_dimension(big) == kernel_dimension(halved) == 2


def _random_point(rng, p):
    raw = rng.uniform(size=p) * (rng.uniform(size=p) < 0.7)
    raw[rng.integers(p)] += 0.1
    return SimplexPoint(raw / raw.sum())


def _random_sym(rng, p):
    m = rng.normal(size=(p, p))
    return 0.5 * (m + m.T)


def test_row_functionals_give_rows_of_d_tau():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.integers(2, 9))
        tau = _random_point(rng, p)
        ks = sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        D = _random_sym(rng, p)
        lhs = row_functionals(tau, ks) @ D[np.triu_indices(p)]
        assert np.max(np.abs(lhs - (D @ tau.coords)[ks])) <= 1e-12


def test_project_to_zero_rows_is_an_idempotent_projection():
    rng, stack_rng = np.random.default_rng(12), np.random.default_rng(13)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        recs = []
        for _ in range(int(rng.integers(1, 3))):
            tau = _random_point(rng, p)
            recs.append(Record(tau, tau.support_plus()))
        C = zero_row_matrix(recs)
        P = project_to_zero_rows(_random_sym(rng, p), C)
        assert np.array_equal(P, P.T)
        assert row_residuals([P], recs)[0][0] <= 1e-12
        assert np.max(np.abs(project_to_zero_rows(P, C) - P)) <= 1e-12
        # a stack is projected in one solve; each row is a projection, and
        # a stack of one has the bits of the matrix's own call
        Ds = np.array([_random_sym(stack_rng, p)
                       for _ in range(int(stack_rng.integers(1, 9)))])
        Ps = project_to_zero_rows(Ds, C)
        assert Ps.shape == Ds.shape
        assert np.array_equal(Ps, np.swapaxes(Ps, 1, 2))
        assert np.max(row_residuals(Ps, recs)[0]) <= 1e-12
        assert np.max(np.abs(project_to_zero_rows(Ps, C) - Ps)) <= 1e-12
        assert (project_to_zero_rows(Ds[:1], C)[0].tobytes()
                == project_to_zero_rows(Ds[0], C).tobytes())
    # with a well-conditioned C C', each row is within 1e-15 of its own
    # call (an ill-conditioned or singular one, which some record sets above
    # give, amplifies the rounding of either solve)
    for p in range(2, 7):
        half = np.zeros(p)
        half[:2] = 0.5
        C = zero_row_matrix([Record(SimplexPoint(np.eye(p)[0]), (0,)),
                             Record(SimplexPoint(half), (0, 1))])
        Ds = np.array([_random_sym(stack_rng, p) for _ in range(50)])
        for D, P in zip(Ds, project_to_zero_rows(Ds, C)):
            assert np.max(np.abs(P - project_to_zero_rows(D, C))) <= 1e-15
    D = _random_sym(rng, 3)
    assert project_to_zero_rows(D, zero_row_matrix([])) is D
    Ds = np.array([D, D])
    assert project_to_zero_rows(Ds, zero_row_matrix([])) is Ds


def _row_residuals_one(D, records):
    """The row test of one matrix: all its record rows from one matmul."""
    if not records:
        return 0.0, np.inf
    T = np.array([rec.tau.coords for rec in records])
    vals = (D @ T[:, :, None])[:, :, 0]
    on_L = np.zeros(vals.shape, dtype=bool)
    for i, rec in enumerate(records):
        on_L[i, list(rec.L)] = True
    return (np.max(np.abs(vals[on_L]), initial=0.0),
            np.min(vals[~on_L], initial=np.inf))


# entries that make exact zeros, of either sign, likely
_ROW_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0])


@st.composite
def _stacks_and_records(draw):
    p = draw(st.integers(2, 4))
    S = draw(st.integers(1, 7))
    M = np.array(draw(st.lists(_ROW_ENTRIES, min_size=S * p * p,
                               max_size=S * p * p))).reshape(S, p, p)
    # symmetric without adding entries, so a -0.0 survives
    Ds = np.where(np.triu(np.ones((p, p), dtype=bool)), M,
                  M.transpose(0, 2, 1))
    weights = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=p,
                       max_size=p).filter(any)
    records = []
    for w in draw(st.lists(weights, max_size=3)):
        w = np.array(w, dtype=float)
        L = draw(st.sets(st.integers(0, p - 1)))
        records.append(Record(SimplexPoint(w / w.sum()), L))
    return Ds, records


@given(_stacks_and_records())
@settings(max_examples=300, deadline=None)
def test_row_residuals_of_a_stack_match_each_matrix(case):
    Ds, records = case
    p = Ds.shape[1]
    tau = records[0].tau if records else SimplexPoint(np.eye(p)[0])
    # no records, one record with every row an equality, one with none
    for recs in (records, (), (Record(tau, range(p)),), (Record(tau, ()),)):
        eq, ineq = row_residuals(Ds, recs)
        assert eq.shape == ineq.shape == (len(Ds),)
        want = np.array([_row_residuals_one(D, recs) for D in Ds])
        assert eq.tobytes() == want[:, 0].tobytes()
        assert ineq.tobytes() == want[:, 1].tobytes()


def test_parse_serialize_round_trip(e2):
    assert parse_problem(serialize_problem(e2)) == e2


def test_shipped_fixtures_round_trip():
    for name in ("e1.json", "e2.json", "e3.json"):
        raw = open(fixture_path(name), "rb").read()
        prog = parse_problem(raw)
        assert parse_problem(serialize_problem(prog)) == prog
    D = parse_matrix(open(fixture_path("horn.json"), "rb").read())
    assert D.shape == (5, 5)


def test_e4_fixture_is_the_e4_program(e4):
    assert parse_problem(open(fixture_path("e4.json"), "rb").read()) == e4


def test_parse_rejects_asymmetric():
    doc = {"n": 1, "p": 2, "c": [1.0], "A": [[[0, 0], [0, 1]], [[0, 1], [0.5, 0]]]}
    with pytest.raises(ProblemFormatError, match="not symmetric"):
        parse_problem(json.dumps(doc))


def test_parse_rejects_missing_field():
    doc = {"n": 1, "p": 2, "A": [[[0, 0], [0, 1]], [[0, 1], [1, 0]]]}
    with pytest.raises(ProblemFormatError, match="missing field 'c'"):
        parse_problem(json.dumps(doc))


def test_parse_rejects_bad_counts():
    doc = {"n": 2, "p": 2, "c": [1.0], "A": [[[0, 0], [0, 1]], [[0, 1], [1, 0]]]}
    with pytest.raises(ProblemFormatError, match="'n'"):
        parse_problem(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match="line"):
        parse_problem(b"{not json")


_E2_DOC = {"n": 1, "p": 2, "c": [1.0], "A": [[[0, 0], [0, 1]], [[0, 1], [1, 0]]]}


@pytest.mark.parametrize("field, value", [
    ("n", True), ("n", 1.0), ("p", True), ("p", 2.0), ("n", "1")])
def test_parse_problem_rejects_a_non_integer_count(field, value):
    doc = dict(_E2_DOC, **{field: value})
    with pytest.raises(ProblemFormatError, match=f"field '{field}' must be an integer"):
        parse_problem(json.dumps(doc))


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_parse_matrix_rejects_a_non_integer_p(value):
    with pytest.raises(ProblemFormatError, match="field 'p' must be an integer"):
        parse_matrix(json.dumps({"p": value, "D": [[1.0]]}))


# non-numeric and ragged entries and non-UTF-8 bytes: test_cli.py
@pytest.mark.parametrize("data, needle", [
    (json.dumps({"p": 1, "D": [[10 ** 400]]}), "matrix file: D: "),
    (json.dumps({"p": 2, "D": [["1", True], [True, "2"]]}),
     'matrix file: D: .*got "1"'),
    (json.dumps({"p": 2, "D": [[1, True], [True, 2]]}),
     "matrix file: D: .*got true"),
    ('{"p": 1, "D": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "matrix file: JSON nested too deeply"),
    ('{"p": 1, "D": [[' + "1" * 5000 + "]]}", "matrix file: invalid JSON: "),
])
def test_parse_matrix_names_the_bad_entry(data, needle):
    with pytest.raises(ProblemFormatError, match=needle):
        parse_matrix(data)


@pytest.mark.parametrize("field, value", [
    ("c", ["x"]), ("c", {"a": 1}), ("A", [[[0, 0], [0, 1]], [[0, "b"], ["b", 0]]]),
    ("A", 5), ("A", [[[0, 0], [0, 1]], [[0, 1]]]), ("c", ["1"]), ("c", [True]),
    ("A", [[[0, 0], [0, 1]], [[0, True], [True, 0]]])])
def test_parse_problem_names_the_bad_entry(field, value):
    doc = dict(_E2_DOC, **{field: value})
    with pytest.raises(ProblemFormatError, match="problem file: "):
        parse_problem(json.dumps(doc))


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    p = draw(st.integers(2, 4))
    c = draw(st.lists(_finite, min_size=n, max_size=n))
    mats = []
    for _ in range(n + 1):
        M = np.array(draw(st.lists(_finite, min_size=p * p, max_size=p * p)))
        M = M.reshape(p, p)
        mats.append(np.triu(M) + np.triu(M, 1).T)
    return CopositiveProgram(c, mats)


@settings(derandomize=True, deadline=None, database=None)
@given(programs())
def test_serialize_parse_round_trip_property(prog):
    assert parse_problem(serialize_problem(prog)) == prog


def _near_schema(keys):
    # documents with the schema's keys, so the fuzz reaches the field checks
    return st.fixed_dictionaries({k: json_values for k in keys})


@settings(derandomize=True, deadline=None, database=None)
@given(st.one_of(json_values, _near_schema(("n", "p", "c", "A")),
                 _near_schema(("p", "D")), st.binary(max_size=20)))
def test_parsers_raise_only_format_errors(doc):
    data = doc if isinstance(doc, bytes) else json.dumps(doc)
    for parse in (parse_problem, parse_matrix):
        try:
            parse(data)
        except ProblemFormatError:
            pass


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint([0.5, 0.6])
    with pytest.raises(ValueError):
        SimplexPoint([1.5, -0.5])
    t = SimplexPoint([0.3, 0.0, 0.7])
    assert t.support_plus() == (0, 2)
    assert t.support_zero() == (1,)
    assert set(t.support_plus()) | set(t.support_zero()) == {0, 1, 2}


def test_simplex_point_immutable():
    t = SimplexPoint([1.0, 0.0])
    with pytest.raises(AttributeError):
        t.coords = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        t.coords[0] = 0.0


def test_simplex_point_hash_agrees_with_eq():
    a, b = SimplexPoint([0.0, 1.0]), SimplexPoint([-0.0, 1.0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_shift_to_feasible(e2):
    shifted = shift_to_feasible(e2, [1.0])
    assert np.allclose(shifted.A[0], [[0, 1], [1, 1]])
    assert np.allclose(shifted.A[1], e2.A[1])
    assert np.allclose(shifted.c, e2.c)
