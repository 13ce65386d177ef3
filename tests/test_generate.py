import numpy as np
import pytest

from coporeg import (DEFAULT, GeneratorError, eval_constraint,
                     generate_instance, is_copositive,
                     min_quad_over_simplex, quad_form, regularize,
                     sample_feasible, serialize_problem)

from conftest import simplex


def test_planted_point_kills_the_form():
    t = simplex(0.5, 0.5, 0.0)
    prog = generate_instance(seed=1, p=3, n=2, planted=[t])
    for Ai in prog.A:
        assert abs(quad_form(Ai, t)) <= 1e-12
        for k in t.support_plus():
            assert abs(float(Ai[k] @ t.coords)) <= 1e-12
    assert is_copositive(prog.A[0]).copositive


def test_unplanted_instance_is_strictly_feasible():
    prog = generate_instance(seed=2, p=3, n=2, planted=())
    assert np.allclose(prog.A[0], np.eye(3))
    A0 = eval_constraint(prog, np.zeros(2))
    assert min_quad_over_simplex(A0).value > 1e-9


def test_determinism():
    t = simplex(0.25, 0.75, 0.0)
    a = generate_instance(seed=5, p=3, n=2, planted=[t])
    b = generate_instance(seed=5, p=3, n=2, planted=[t])
    assert serialize_problem(a) == serialize_problem(b)
    c = generate_instance(seed=6, p=3, n=2, planted=[t])
    assert serialize_problem(a) != serialize_problem(c)


def test_infeasible_planting_rejected():
    # the planted points span the whole space: no Gram complement remains
    with pytest.raises(GeneratorError):
        generate_instance(seed=1, p=2, n=1,
                          planted=[simplex(1, 0), simplex(0, 1),
                                   simplex(0.5, 0.5)])


def test_slater_fails_and_driver_recovers_planted():
    t = simplex(0.5, 0.5, 0.0)
    prog = generate_instance(seed=3, p=3, n=2, planted=[t])
    res = regularize(prog)
    assert res.status == "regularized"
    reg = res.regularized
    assert any(np.max(np.abs(r.tau.coords - t.coords)) <= 1e-6
               for r in reg.records)
    # strict feasibility fails at every sampled feasible point
    for x in sample_feasible(prog, reg.witness, 25, 0, DEFAULT):
        assert not min_quad_over_simplex(eval_constraint(prog, x)).value > 1e-9


def test_two_planted_vertices():
    # disjoint-support plantings: the hull of the two vertices is an edge,
    # but only its endpoints stay immobile; the driver needs two rounds
    from coporeg import feasibility_equiv_sample, one_step_regularize
    W = [simplex(1, 0, 0), simplex(0, 1, 0)]
    prog = generate_instance(seed=50, p=3, n=2, planted=W)
    res = regularize(prog)
    assert res.status == "regularized"
    assert res.m_star == 2
    recovered = {tuple(np.round(r.tau.coords, 6)) for r in res.regularized.records}
    assert (1.0, 0.0, 0.0) in recovered and (0.0, 1.0, 0.0) in recovered

    reg = one_step_regularize(prog, W)
    assert reg.margin >= 1e-6
    rep = feasibility_equiv_sample(prog, reg, 400, seed=6)
    assert rep["n_disagreements"] == 0


def _edge_instance():
    # planted at a vertex and at the midpoint of the opposite edge
    return generate_instance(seed=70, p=3, n=1,
                             planted=[simplex(1, 0, 0), simplex(0, 0.5, 0.5)])


def test_lambda_at_an_old_record_grows_its_zero_rows():
    res = regularize(_edge_instance(), DEFAULT.replace(iteration_cap=1))
    assert len(res.ledger) == 2
    first, second = res.ledger
    assert first.records[0].L == frozenset({0})
    lam = second.certificate.lam
    assert set(lam) == {0}
    assert np.allclose(lam[0], [0.0, 0.0, 0.4968], atol=1e-4)
    assert lam[0][0] == 0.0 and lam[0][1] == 0.0
    # record 1 keeps its point and gains row 3 from its lambda entry
    assert np.array_equal(second.records[0].tau.coords, [1.0, 0.0, 0.0])
    assert second.records[0].L == frozenset({0, 2})


@pytest.mark.xfail(strict=True, reason="the cuts walk up the immobile edge "
                   "through (1/2,1/4,1/4), (1/4,3/8,3/8), ... and never reach "
                   "the planted midpoint, so the iteration cap ends the run")
def test_edge_instance_recovers_both_planted_points():
    res = regularize(_edge_instance())
    assert res.status == "regularized"
    recovered = {tuple(np.round(r.tau.coords, 6)) for r in res.regularized.records}
    assert (1.0, 0.0, 0.0) in recovered and (0.0, 0.5, 0.5) in recovered
