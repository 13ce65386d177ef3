"""Every corpus run reproduces its line of the stored digest, within the
comparator's tolerances (``tests/corpus.py``), and the gate runs' LPs
reproduce their stored pivot digest (``tests/lp_digest.py``)."""

import copy

import pytest

import corpus
import lp_digest

STORED = corpus.load_digest()


def test_the_digest_holds_the_corpus():
    assert list(STORED) == list(corpus.CORPUS)
    assert len(STORED) == 59


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_a_corpus_run_reproduces_its_digest_line(name):
    assert corpus.compare(corpus.digest_line(name), STORED[name]) == []


def test_the_gate_runs_reproduce_their_stored_lp_pivots():
    # every LP of the gate runs ends on its stored statuses and bases
    stored = lp_digest.load_stored()
    assert stored["runs"] == lp_digest.GATE
    solves, _bytes, pivot = lp_digest.digests(lp_digest.GATE)
    assert (solves, pivot) == (stored["solves"], stored["pivot"])


def _changed(name, edit):
    """The comparator's messages for run ``name``'s stored line after
    ``edit`` on a copy."""
    got = copy.deepcopy(STORED[name])
    edit(got)
    return corpus.compare(got, STORED[name])


def test_the_comparator_holds_its_tolerances():
    def nudge(delta):
        def edit(got):           # c70's second iteration has lambda at record 0
            got["records"][1][0][1] += delta
            got["iterations"][1]["gamma"][0] += delta
            got["iterations"][1]["lambda"]["0"][2] += delta
        return edit

    assert _changed("c70", nudge(0.5 * corpus.TOL)) == []
    assert len(_changed("c70", nudge(2 * corpus.TOL))) == 3
    def move_witness(got):
        got["witness"][0] += 2 * corpus.TOL

    assert _changed("c62", move_witness)
    margin = STORED["c62"]["margin"]
    # a margin may grow, but not fall by more than TOL
    assert _changed("c62", lambda got: got.update(margin=margin + 1.0)) == []
    assert _changed("c62", lambda got: got.update(margin=margin - 2 * corpus.TOL))
    # row sets, status, reason, m* and the iteration count must be equal
    assert _changed("c62", lambda got: got["records"][0][1].append(3))
    for key, value in (("status", "failed"), ("reason", "x"), ("m_star", 3)):
        assert _changed("c62", lambda got: got.update({key: value}))
    assert _changed("c62", lambda got: got["iterations"].pop())
