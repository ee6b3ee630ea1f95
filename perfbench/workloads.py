"""The four benchmark workloads: inputs, sessions, queries and schedules.

Each workload is one fresh session per round, driven over the same seeded
arrivals by one caller in a closed loop.  This module imports only the
standard library; ``repro`` is imported by :func:`import_repro`, so a fresh
process that calls it first measures the whole import as part of set-up.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import inputs

SRC = Path(__file__).resolve().parent.parent / "src"

#: Arrivals handed over per poll.
POLL_SIZE = 16


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {SRC}")


class QuerySpec(NamedTuple):
    """One window query.  Selections are ``value < bound`` per side."""

    name: str
    window: float
    left_below: float | None = None
    right_below: float | None = None


class Control(NamedTuple):
    """An admission or removal due at the start of one poll."""

    kind: str  # "add" or "remove"
    query: QuerySpec


class Poll(NamedTuple):
    """Arrivals ``[start, end)`` handed over in one poll, and its controls."""

    start: int
    end: int
    controls: tuple[Control, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(stream seconds, arrivals/s per stream)`` phases of the input.
    phases: tuple[tuple[float, float], ...]
    key_domain: int
    standing: tuple[QuerySpec, ...]
    window_kind: str = "time"
    #: ModularMatchCondition threshold (count workload); ``None`` = equi-join.
    modular_threshold: int | None = None
    memory_budget_bytes: int | None = None
    #: Ad-hoc queries: ``(admit at, remove at, query)`` in stream seconds.
    adhoc: tuple[tuple[float, float, QuerySpec], ...] = ()
    #: ``ShardPlanner`` arguments; a workload with a planner runs sharded.
    planner: dict = field(default_factory=dict)

    @property
    def sharded(self) -> bool:
        return bool(self.planner)

    def arrivals(self, seed: int) -> list[inputs.Arrival]:
        return inputs.generate(seed, self.phases, self.key_domain)

    def polls(self, arrivals: list[inputs.Arrival]) -> list[Poll]:
        """Split the arrivals into fixed-size polls and place the controls.

        A control scheduled at stream time ``t`` runs at the start of the
        first poll whose first arrival has a timestamp ``>= t``.
        """
        events = sorted(
            [(at, 0, Control("add", query)) for at, _, query in self.adhoc]
            + [(until, 1, Control("remove", query)) for _, until, query in self.adhoc],
            key=lambda event: (event[0], event[1]),
        )
        polls = []
        cursor = 0
        for start in range(0, len(arrivals), POLL_SIZE):
            now = arrivals[start].timestamp
            due = []
            while cursor < len(events) and events[cursor][0] <= now:
                due.append(events[cursor][2])
                cursor += 1
            polls.append(Poll(start, min(start + POLL_SIZE, len(arrivals)), tuple(due)))
        if cursor != len(events):
            raise ValueError(f"{self.name}: controls scheduled past the end of the input")
        return polls

    def build(self):
        """Import ``repro``, build the session and admit the standing queries.

        Returns ``(session, planner)``; ``planner`` is ``None`` unless the
        workload resizes its shards.
        """
        from repro import CountStreamEngine, ShardedStreamEngine, ShardPlanner, StreamEngine
        from repro.query.predicates import EquiJoinCondition, ModularMatchCondition

        if self.modular_threshold is not None:
            condition = ModularMatchCondition(self.modular_threshold, self.key_domain)
        else:
            condition = EquiJoinCondition("join_key", "join_key", key_domain=self.key_domain)
        if self.window_kind == "count":
            session = CountStreamEngine(condition, memory_budget_bytes=self.memory_budget_bytes)
        elif self.sharded:
            session = ShardedStreamEngine(
                condition, shards=1, probe="auto",
                memory_budget_bytes=self.memory_budget_bytes,
            )
        else:
            session = StreamEngine(
                condition, probe="auto", memory_budget_bytes=self.memory_budget_bytes
            )
        for query in self.standing:
            admit(session, query)
        planner = ShardPlanner(**self.planner) if self.planner else None
        return session, planner


def admit(session, query: QuerySpec) -> None:
    from repro.query.predicates import ComparisonPredicate

    def below(bound):
        return None if bound is None else ComparisonPredicate("value", "<", bound)

    session.add_query(
        query.name, query.window,
        left_filter=below(query.left_below), right_filter=below(query.right_below),
    )


# Eight windows spread over an order of magnitude; three carry selections.
_FANOUT = (
    QuerySpec("q1.0", 1.0),
    QuerySpec("q1.5", 1.5),
    QuerySpec("q2.0", 2.0, left_below=0.5),
    QuerySpec("q3.0", 3.0),
    QuerySpec("q4.0", 4.0),
    QuerySpec("q6.0", 6.0, right_below=0.3),
    QuerySpec("q8.0", 8.0),
    QuerySpec("q10.0", 10.0, left_below=0.8, right_below=0.6),
)


def _churn_adhoc() -> tuple[tuple[float, float, QuerySpec], ...]:
    # Nineteen ad-hoc queries, each live for one stream second, windows
    # 0.5-3.5 s inside the 4 s umbrella; every third filters its right side.
    return tuple(
        (
            1.0 + 2 * j,
            2.0 + 2 * j,
            QuerySpec(f"h{j}", 0.5 + (j % 7) * 0.5, right_below=0.5 if j % 3 == 0 else None),
        )
        for j in range(19)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="equi_fanout",
            why="shared time-window equi chain at steady state with 8-query fan-out; "
            "spill, sharding and the count chain do no work",
            phases=((60.0, 150.0),),
            key_domain=200,
            standing=_FANOUT,
        ),
        Workload(
            name="count_modular",
            why="count-window chain over the paper's S1-controlled modular join: "
            "nested-loop mask probe that hash indexes, shards and spill cannot help",
            phases=((60.0, 150.0),),
            key_domain=1000,
            modular_threshold=25,  # S1 = 0.025
            window_kind="count",
            standing=(
                QuerySpec("c100", 100),
                QuerySpec("c200", 200),
                QuerySpec("c400", 400),
                QuerySpec("c800", 800),
            ),
        ),
        Workload(
            name="elastic_churn",
            why="serial sharded session that grows and shrinks under a calm-burst-calm "
            "load while ad-hoc queries come and go: partitioning, merging, reshards",
            phases=((15.0, 150.0), (10.0, 500.0), (15.0, 150.0)),
            key_domain=200,
            standing=(QuerySpec("umbrella", 4.0), QuerySpec("short", 1.0, left_below=0.5)),
            adhoc=_churn_adhoc(),
            planner=dict(
                max_shards=4, target_rate_per_shard=400.0, window=1.0,
                hysteresis=2, cooldown=4.0,
            ),
        ),
        Workload(
            name="spill_budget",
            why="the equi_fanout join plus a 20 s tail window under a memory budget of "
            "about a tenth of its in-core peak: the only workload the disk tier serves",
            phases=((36.0, 150.0),),
            key_domain=200,
            standing=_FANOUT + (QuerySpec("q20.0", 20.0),),
            # The unbudgeted session's peak is about 2.87 MB (its own estimate).
            memory_budget_bytes=290_000,
        ),
    )
}
