"""Seeded arrival generator for the session benchmark.

Pure standard library and independent of ``repro``: the program under test
receives only the arrivals built here, so a change to ``repro.streams``
cannot change a workload's input.

An arrival is a plain tuple ``(stream, timestamp, join_key, value, seqno)``.
Arrivals form one merged Poisson process whose rate is piecewise constant
over stream time; each arrival goes to stream ``"A"`` or ``"B"`` with equal
probability, its join key is uniform on ``[0, key_domain)`` and its
``value`` is uniform on ``[0, 1)`` (the attribute selections test).
Sequence numbers are explicit and follow arrival order.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence


class Arrival(NamedTuple):
    stream: str
    timestamp: float
    join_key: int
    value: float
    seqno: int


def generate(
    seed: int,
    phases: Sequence[tuple[float, float]],
    key_domain: int,
) -> list[Arrival]:
    """Arrivals for ``phases`` of ``(stream seconds, arrivals/s per stream)``.

    The same ``seed`` and ``phases`` always give the same arrivals.
    """
    rng = random.Random(seed)
    arrivals: list[Arrival] = []
    timestamp = 0.0
    phase_start = 0.0
    for seconds, rate_per_stream in phases:
        phase_end = phase_start + seconds
        total_rate = 2.0 * rate_per_stream
        while True:
            timestamp += rng.expovariate(total_rate)
            if timestamp >= phase_end:
                # Memoryless: restart the next phase's process at its start.
                timestamp = phase_end
                break
            arrivals.append(
                Arrival(
                    "A" if rng.random() < 0.5 else "B",
                    timestamp,
                    rng.randrange(key_domain),
                    rng.random(),
                    len(arrivals),
                )
            )
        phase_start = phase_end
    return arrivals
