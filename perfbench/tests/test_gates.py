"""Each correctness gate accepts the right output and rejects a wrong one.

    python3 -m pytest -q perfbench/tests
"""

import pytest

from repro import Engine
from repro.bag.bag import Bag
from repro.serve.protocol import encode_bag

from perfbench import gates, inprocess, served
from perfbench.common import GateError

ROWS = [("a", "Drama", "D1"), ("b", "Drama", "D2"), ("c", "Action", "D1")]


def _pairs(bag: Bag):
    return encode_bag(bag)["pairs"]


def _served_state(rows, view):
    return {"datasets": {"F": _pairs(Bag(rows))}, "view_pairs": {"dramas": _pairs(view)}}


# -- serve-flat: served state ≡ acknowledged rows, view ≡ recompute ------- #
def test_acknowledged_state_accepts_the_recompute():
    gates.acknowledged_state(
        "ok", ROWS, _pairs(Bag(ROWS)), _pairs(Bag(["a", "b"])), gates.genre_filter
    )


def test_acknowledged_state_rejects_a_lost_row():
    with pytest.raises(GateError, match="acknowledged rows lost"):
        gates.acknowledged_state(
            "lost", ROWS, _pairs(Bag(ROWS[:2])), _pairs(Bag(["a", "b"])), gates.genre_filter
        )


def test_acknowledged_state_rejects_an_extra_row():
    extra = ROWS + [("d", "Drama", "D3")]
    with pytest.raises(GateError, match="dataset"):
        gates.acknowledged_state(
            "extra", ROWS, _pairs(Bag(extra)), _pairs(Bag(["a", "b"])), gates.genre_filter
        )


def test_acknowledged_state_rejects_a_wrong_view():
    with pytest.raises(GateError, match="view vs recompute"):
        gates.acknowledged_state(
            "view", ROWS, _pairs(Bag(ROWS)), _pairs(Bag(["a"])), gates.genre_filter
        )


def test_nested_recompute_rejects_a_wrong_inner_bag():
    right = gates.genre_neighbours(ROWS)
    wrong = Bag([("a", Bag(["b"])), ("b", Bag(["a", "c"])), ("c", Bag())])
    gates.acknowledged_state("ok", ROWS, _pairs(Bag(ROWS)), _pairs(right), gates.genre_neighbours)
    with pytest.raises(GateError):
        gates.acknowledged_state("inner", ROWS, _pairs(Bag(ROWS)), _pairs(wrong), gates.genre_neighbours)


def test_served_check_covers_every_stream():
    stream = served.Stream("F", 5, seed=3, updates=4)
    stream.cursor = 2
    rows = stream.state()
    good = {"flat": _served_state(rows, gates.genre_filter(rows))}
    served._check_acknowledged("ok", good, {"F": stream})
    stale = {"flat": _served_state(stream.initial, gates.genre_filter(stream.initial))}
    with pytest.raises(GateError):
        served._check_acknowledged("stale", stale, {"F": stream})


# -- engine-nested: every view ≡ strategy="naive" ------------------------- #
def _small_engine():
    updates = inprocess.Updates(seed=5, count=4)
    engine = Engine()
    inprocess._populate(engine, Bag(updates.movies.initial[:20]), Bag(updates.bags.initial[:4]))
    for _ in range(3):
        engine.apply(updates.take())
    return engine


def test_naive_gate_accepts_maintained_views():
    engine = _small_engine()
    inprocess._check_naive("ok", engine)
    engine.close()


def test_views_match_rejects_a_mismatched_view():
    engine = _small_engine()
    results = inprocess._results(engine)
    tampered = dict(results)
    tampered["pairs"] = results["pairs"].union(Bag([("x", "y")]))
    with pytest.raises(GateError, match="pairs"):
        gates.views_match("tampered", tampered, results)
    with pytest.raises(GateError):
        gates.views_match("missing", {"pairs": results["pairs"]}, results)
    engine.close()


# -- durable-restart: restarted ≡ before, replica ≡ primary, write visible - #
def test_same_version_state_rejects_version_and_content_drift():
    state = {"version": 7, "views": {"v": Bag(["a", "b"])}}
    gates.same_version_state("ok", state, {"version": 7, "views": {"v": Bag(["b", "a"])}})
    with pytest.raises(GateError, match="version"):
        gates.same_version_state("version", state, {"version": 6, "views": state["views"]})
    with pytest.raises(GateError, match="view 'v'"):
        gates.same_version_state("content", state, {"version": 7, "views": {"v": Bag(["a"])}})


def test_write_visible_rejects_a_missing_write():
    gates.write_visible("ok", Bag(ROWS), ROWS[0])
    with pytest.raises(GateError, match="not visible"):
        gates.write_visible("missing", Bag(ROWS[1:]), ROWS[0])
