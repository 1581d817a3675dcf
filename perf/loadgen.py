"""Closed-loop and open-loop load generation for one round.

The open loop is coordinated-omission safe: every message has an *intended*
send time fixed before the round starts, senders take the next due message
from one shared schedule, and latency runs from the intended time — so a stall
is charged to every message that waited behind it.  Clock and sleep are
injected so the accounting is unit-tested on a fake clock.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

Clock = Callable[[], float]
Sleep = Callable[[float], None]
#: ``send(message_index, sender_index) -> ok``
Send = Callable[[int, int], bool]


@dataclass(slots=True)
class Sent:
    """One message: when it was due, started and finished (seconds)."""

    index: int
    due: float
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        """Latency from the intended send time."""
        return self.end - self.due

    @property
    def late(self) -> float:
        """How long after its intended time the generator sent it."""
        return self.start - self.due


def poisson_offsets(rng: random.Random, count: int, duration: float) -> list[float]:
    """``count`` arrival offsets in ``[0, duration)``: a Poisson process
    conditioned on its count (sorted uniforms), so every seed offers exactly
    the same number of messages."""
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def run_closed_loop(
    send: Send, duration: float, *, first: int = 0, clock: Clock = time.perf_counter
) -> list[Sent]:
    """One sender, next message as soon as the last one completed; messages
    are numbered from ``first``.

    A message is due the moment the previous one ended, so ``late`` is the
    generator's own turn-around and ``latency`` includes it.
    """
    sent: list[Sent] = []
    due = clock()
    deadline = due + duration
    while due < deadline:
        start = clock()
        ok = send(first + len(sent), 0)
        end = clock()
        sent.append(Sent(first + len(sent), due, start, end, ok))
        due = end
    return sent


def run_open_loop(
    offsets: Sequence[float],
    send: Send,
    senders: int,
    *,
    clock: Clock = time.perf_counter,
    sleep: Sleep = time.sleep,
) -> list[Sent]:
    """Send message ``i`` at ``t0 + offsets[i]`` (or as soon after as a sender
    is free); returns the messages in schedule order."""
    sent: list[Sent | None] = [None] * len(offsets)
    cursor = iter(range(len(offsets)))
    lock = threading.Lock()
    t0 = clock()

    def drive(sender: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = t0 + offsets[index]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            ok = send(index, sender)
            sent[index] = Sent(index, due, start, clock(), ok)

    if senders == 1:
        drive(0)
    else:
        threads = [
            threading.Thread(target=drive, args=(n,), name=f"perf-sender-{n}")
            for n in range(senders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [s for s in sent if s is not None]


def backlog_at_starts(sent: Sequence[Sent]) -> list[int]:
    """For each message in start order: how many others were already due but
    not yet started when it started."""
    dues = sorted(s.due for s in sent)
    starts = sorted(s.start for s in sent)
    return [
        bisect.bisect_right(dues, start) - (position + 1)
        for position, start in enumerate(starts)
    ]


def backlog_grows(sent: Sequence[Sent], *, slack: int = 2) -> bool:
    """True when, while messages were still arriving, the backlog rose from
    each third of that time to the next and ended more than ``slack`` messages
    above where it began — the offered rate exceeds what the system completes,
    so latency depends on run length.  (After the last arrival any queue
    drains; those starts say nothing.)"""
    last_arrival = max((s.due for s in sent), default=0.0)
    starts = sorted(s.start for s in sent)
    arriving = bisect.bisect_right(starts, last_arrival)
    backlog = backlog_at_starts(sent)[:arriving]
    third = len(backlog) // 3
    if third == 0:
        return False
    first, second, last = (
        sum(part) / len(part)
        for part in (backlog[:third], backlog[third : 2 * third], backlog[2 * third :])
    )
    return first < second < last and last - first > slack
