"""Correctness gates: a wrong output fails the run instead of being timed.

Each gate compares what the system returned with an independent
expectation and raises :class:`~perfbench.common.GateError` on any
difference.  ``tests/test_gates.py`` shows that every gate rejects a
mismatched result.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.bag.bag import Bag
from repro.serve.protocol import decode_value

from perfbench.common import GateError

MovieRow = Tuple[str, str, str]


def wire_bag(pairs: Sequence[Sequence[Any]]) -> Bag:
    """A bag from the ``pairs`` of a view or dataset read over HTTP."""
    return Bag.from_pairs([(decode_value(element), mult) for element, mult in pairs])


def _describe(expected: Bag, actual: Bag) -> str:
    want = dict(expected.items())
    have = dict(actual.items())
    wrong = [
        (element, want.get(element, 0), have.get(element, 0))
        for element in set(want) | set(have)
        if want.get(element, 0) != have.get(element, 0)
    ]
    lines = [f"{len(wrong)} elements differ"]
    for element, expected_mult, actual_mult in sorted(wrong, key=repr)[:3]:
        lines.append(f"  {element!r}: expected x{expected_mult}, got x{actual_mult}")
    return "\n".join(lines)


def same_bag(label: str, expected: Bag, actual: Bag) -> None:
    if expected != actual:
        raise GateError(f"{label}: {_describe(expected, actual)}")


# --------------------------------------------------------------------------- #
# Independent recomputations (plain Python, no repro evaluation)
# --------------------------------------------------------------------------- #
def genre_filter(rows: Iterable[MovieRow], genre: str = "Drama") -> Bag:
    """``for m in M where m.gen = genre: sng(m.name)``."""
    return Bag(Counter(name for name, gen, _dir in rows if gen == genre))


def genre_neighbours(rows: Iterable[MovieRow]) -> Bag:
    """``for m in M: ⟨m.name, for m2 in M where same genre, other name: m2.name⟩``."""
    rows = list(rows)
    by_genre: Dict[str, Counter] = {}
    for name, gen, _dir in rows:
        by_genre.setdefault(gen, Counter())[name] += 1
    elements: Counter = Counter()
    for name, gen, _dir in rows:
        others = Counter(by_genre[gen])
        del others[name]
        elements[(name, Bag(others))] += 1
    return Bag(elements)


# --------------------------------------------------------------------------- #
# The gates
# --------------------------------------------------------------------------- #
def acknowledged_state(
    label: str,
    expected_rows: List[MovieRow],
    dataset_pairs: Sequence[Sequence[Any]],
    view_pairs: Sequence[Sequence[Any]],
    recompute,
) -> None:
    """Served dataset ≡ the acknowledged rows, served view ≡ a recompute.

    ``expected_rows`` is the relation every acknowledged update implies;
    a missing row means an acknowledged update was lost.
    """
    dataset = wire_bag(dataset_pairs)
    expected = Bag(Counter(expected_rows))
    served = dict(dataset.items())
    lost = [row for row in expected_rows if served.get(row, 0) <= 0]
    if lost:
        raise GateError(f"{label}: {len(lost)} acknowledged rows lost, e.g. {lost[0]!r}")
    same_bag(f"{label}: dataset", expected, dataset)
    same_bag(f"{label}: view vs recompute", recompute(expected_rows), wire_bag(view_pairs))


def views_match(label: str, maintained: Mapping[str, Bag], reference: Mapping[str, Bag]) -> None:
    """Every maintained view ≡ its reference (e.g. ``strategy="naive"``)."""
    if set(maintained) != set(reference):
        raise GateError(f"{label}: views {sorted(maintained)} vs {sorted(reference)}")
    for name in sorted(maintained):
        same_bag(f"{label}: view {name!r}", reference[name], maintained[name])


def same_version_state(label: str, before: Mapping[str, Any], after: Mapping[str, Any]) -> None:
    """Two reads of the same views (restart, replica) agree, version included."""
    if before["version"] != after["version"]:
        raise GateError(f"{label}: version {before['version']} vs {after['version']}")
    views_match(label, after["views"], before["views"])


def write_visible(label: str, view: Bag, element: Any) -> None:
    if dict(view.items()).get(element, 0) <= 0:
        raise GateError(f"{label}: acknowledged write {element!r} is not visible")
