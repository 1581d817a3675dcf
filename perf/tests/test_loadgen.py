"""The load generators on a fake clock: intended-time accounting, lateness,
backlog detection; and the shared schedule under real threads."""

import random
import sys

import pytest

from perf import loadgen


class FakeClock:
    """Time moves only when somebody sleeps or a send takes its service time."""

    def __init__(self, service_s: float) -> None:
        self.now = 0.0
        self.service_s = service_s
        self.slept: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds

    def send(self, index: int, sender: int) -> bool:
        self.now += self.service_s
        return True


def open_loop(offsets, service_s):
    fake = FakeClock(service_s)
    sent = loadgen.run_open_loop(
        offsets, fake.send, 1, clock=fake.clock, sleep=fake.sleep
    )
    return fake, sent


def test_latency_runs_from_the_intended_send_time():
    fake, sent = open_loop([0.0, 0.010, 0.020], service_s=0.030)
    # message 1 was due at 10 ms but the sender was busy until 30 ms
    assert sent[1].due == pytest.approx(0.010)
    assert sent[1].start == pytest.approx(0.030)
    assert sent[1].late == pytest.approx(0.020)
    assert sent[1].latency == pytest.approx(0.050)  # not the 30 ms it took on the wire
    assert sent[2].late == pytest.approx(0.040)
    assert sent[2].latency == pytest.approx(0.070)
    assert fake.slept == []  # never idle, never slept


def test_an_idle_generator_sleeps_exactly_until_the_next_message_is_due():
    fake, sent = open_loop([0.0, 0.100, 0.200], service_s=0.010)
    assert fake.slept == pytest.approx([0.090, 0.090])
    assert [s.late for s in sent] == pytest.approx([0.0, 0.0, 0.0])
    assert [s.latency for s in sent] == pytest.approx([0.010] * 3)


def test_backlog_counts_messages_due_but_not_started():
    _, sent = open_loop([0.0, 0.010, 0.020, 0.030], service_s=0.030)
    # starts at 0, 30, 60, 90 ms; due by then: 1, 4, 4, 4
    assert loadgen.backlog_at_starts(sent) == [0, 2, 1, 0]


def test_growing_backlog_is_detected_and_a_stable_queue_is_not():
    arrivals = [n * 0.010 for n in range(90)]
    _, overloaded = open_loop(arrivals, service_s=0.030)
    assert loadgen.backlog_grows(overloaded)
    _, keeping_up = open_loop(arrivals, service_s=0.001)
    assert not loadgen.backlog_grows(keeping_up)
    rng = random.Random(5)
    _, bursty = open_loop(loadgen.poisson_offsets(rng, 600, 3.0), service_s=0.002)
    assert not loadgen.backlog_grows(bursty)


def test_closed_loop_sends_back_to_back_for_the_duration():
    fake = FakeClock(0.25)
    sent = loadgen.run_closed_loop(fake.send, 1.0, clock=fake.clock)
    assert len(sent) == 4
    assert all(s.late == 0.0 for s in sent)
    assert [s.latency for s in sent] == pytest.approx([0.25] * 4)
    later = loadgen.run_closed_loop(fake.send, 0.5, first=4, clock=fake.clock)
    assert [s.index for s in sent + later] == list(range(6))


def test_poisson_offsets_offer_the_same_count_for_every_seed():
    first = loadgen.poisson_offsets(random.Random(1), 600, 3.0)
    again = loadgen.poisson_offsets(random.Random(1), 600, 3.0)
    other = loadgen.poisson_offsets(random.Random(2), 600, 3.0)
    assert first == again != other
    assert len(first) == len(other) == 600
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 3.0


def test_senders_share_one_schedule_without_losing_or_repeating_a_message():
    seen: list[int] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sent = loadgen.run_open_loop(
            [0.0] * 3000, lambda index, sender: seen.append(index) is None, 4
        )
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(3000))
    assert [s.index for s in sent] == list(range(3000))
    assert all(s.ok for s in sent)
