"""Answer check computed apart from the program under test.

Results are folded into one :class:`Digest` per query: a count, an
order-sensitive polynomial hash of the ``(left.seqno, right.seqno)``
sequence, and a count of deliveries that broke the required order
``(timestamp, left.seqno, right.seqno)`` non-decreasing.  The reference
digests come from a direct join over the generated arrivals; nothing here
imports ``repro``.

* Time windows: ``a`` (stream A) and ``b`` (stream B) join when their keys
  are equal, ``|a.t - b.t| < w`` and both pass the query's selections.
* Count windows: the pair joins when, as the later of the two arrives, the
  earlier is among the ``N`` most recent arrivals of its own stream, and
  ``(a.key + b.key) mod domain < threshold``.
* An ad-hoc query only gets pairs whose completing (later) arrival was
  handed over between its admission and its removal.

The pairs a completing arrival produces are emitted oldest partner first,
so each reference sequence is already in delivery order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

import numpy as np

from workloads import QuerySpec

_MOD = (1 << 61) - 1
_MUL = 1_000_003


class Digest:
    """Count, order-sensitive hash and order violations of one result stream."""

    __slots__ = ("count", "hash", "last", "disorder")

    def __init__(self) -> None:
        self.count = 0
        self.hash = 0
        self.last = (float("-inf"), -1, -1)
        self.disorder = 0

    def add(self, timestamp: float, left_seqno: int, right_seqno: int) -> None:
        key = (timestamp, left_seqno, right_seqno)
        if key < self.last:
            self.disorder += 1
        self.last = key
        self.hash = (self.hash * _MUL + (left_seqno << 32 | right_seqno)) % _MOD
        self.count += 1

    def value(self) -> list:
        return [self.count, self.hash]


def problems(got: dict[str, Digest], want: dict[str, Digest]) -> list[str]:
    """Every way ``got`` differs from the reference ``want`` (empty = pass)."""
    found = []
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            found.append(f"{name}: present on one side only")
            continue
        mine, ref = got[name], want[name]
        if mine.disorder:
            found.append(f"{name}: {mine.disorder} deliveries out of order")
        if mine.count != ref.count:
            found.append(f"{name}: {mine.count} results, reference has {ref.count}")
        elif mine.hash != ref.hash:
            found.append(f"{name}: result sequence differs from the reference")
    return found


def _passes(query, left, right) -> bool:
    return (query.left_below is None or left.value < query.left_below) and (
        query.right_below is None or right.value < query.right_below
    )


def time_window_digests(arrivals, queries, ranges) -> dict[str, Digest]:
    """Reference digests for time-window equi-join queries.

    ``ranges`` maps a query name to the ``[first, last)`` range of arrival
    positions whose completions it receives.
    """
    ordered = sorted(queries, key=lambda q: q.window)
    windows = [q.window for q in ordered]
    widest = windows[-1]
    digests = {q.name: Digest() for q in ordered}
    bounds = [ranges[q.name] for q in ordered]
    recent: dict[int, tuple[deque, deque]] = {}
    for pos, x in enumerate(arrivals):
        pair = recent.get(x.join_key)
        if pair is None:
            pair = recent[x.join_key] = (deque(), deque())
        from_left = x.stream == "A"
        own, other = pair if from_left else (pair[1], pair[0])
        now = x.timestamp
        while other and now - other[0].timestamp >= widest:
            other.popleft()
        for y in other:
            gap = now - y.timestamp
            left, right = (x, y) if from_left else (y, x)
            for k in range(bisect_right(windows, gap), len(ordered)):
                first, last = bounds[k]
                query = ordered[k]
                if first <= pos < last and _passes(query, left, right):
                    digests[query.name].add(now, left.seqno, right.seqno)
        own.append(x)
    return digests


def count_window_digests(arrivals, queries, threshold: int, domain: int) -> dict[str, Digest]:
    """Reference digests for count-window queries over the modular join."""
    ordered = sorted(queries, key=lambda q: q.window)
    counts = [int(q.window) for q in ordered]
    widest = counts[-1]
    digests = {q.name: Digest() for q in ordered}
    keys = {s: np.empty(len(arrivals), dtype=np.int64) for s in "AB"}
    members: dict[str, list] = {"A": [], "B": []}
    for x in arrivals:
        from_left = x.stream == "A"
        other = members["B" if from_left else "A"]
        n = len(other)
        lo = max(0, n - widest)
        if n:
            column = keys["B" if from_left else "A"][lo:n]
            for i in np.flatnonzero((x.join_key + column) % domain < threshold):
                y = other[lo + int(i)]
                rank = n - 1 - (lo + int(i))
                left, right = (x, y) if from_left else (y, x)
                for k in range(bisect_right(counts, rank), len(ordered)):
                    query = ordered[k]
                    if _passes(query, left, right):
                        digests[query.name].add(x.timestamp, left.seqno, right.seqno)
        own = members[x.stream]
        keys[x.stream][len(own)] = x.join_key
        own.append(x)
    return digests


def self_test(arrivals) -> list[str]:
    """Show that :func:`problems` rejects a dropped pair and a swapped pair.

    Joins a prefix of the arrivals, keys folded onto 20 values so that every
    workload yields many pairs, for one 2 s window twice: by
    :func:`time_window_digests` and by brute force, and requires the two to
    agree.  Then it folds the brute-force sequence with one pair dropped and
    with two adjacent pairs swapped; both must be rejected.  Returns what
    went wrong, if anything.
    """
    prefix = [a._replace(join_key=a.join_key % 20) for a in arrivals[:2000]]
    query = QuerySpec("self-test", 2.0)
    want = time_window_digests(prefix, [query], {query.name: (0, len(prefix))})
    pairs = _time_pairs(prefix, query)
    if len(pairs) < 3:
        return ["self-test: fewer than three reference pairs"]
    at = next(i for i in range(len(pairs) - 1) if pairs[i] != pairs[i + 1])
    swapped = pairs[:at] + [pairs[at + 1], pairs[at]] + pairs[at + 2 :]
    dropped = pairs[: len(pairs) // 2] + pairs[len(pairs) // 2 + 1 :]
    found = []
    if problems({query.name: _fold(pairs)}, want):
        found.append("self-test: brute force and the reference join disagree")
    if not problems({query.name: _fold(dropped)}, want):
        found.append("self-test: a dropped pair was not detected")
    if not problems({query.name: _fold(swapped)}, want):
        found.append("self-test: two swapped pairs were not detected")
    return found


def _fold(pairs) -> Digest:
    digest = Digest()
    for key in pairs:
        digest.add(*key)
    return digest


def _time_pairs(arrivals, query) -> list[tuple[float, int, int]]:
    """The query's pairs by brute force over each key's arrivals."""
    by_key: dict[int, list] = {}
    for x in arrivals:
        by_key.setdefault(x.join_key, []).append(x)
    pairs = []
    for members in by_key.values():
        for i, x in enumerate(members):
            for y in members[:i]:
                if y.stream != x.stream and x.timestamp - y.timestamp < query.window:
                    left, right = (x, y) if x.stream == "A" else (y, x)
                    if _passes(query, left, right):
                        pairs.append((x.timestamp, left.seqno, right.seqno))
    pairs.sort()
    return pairs
