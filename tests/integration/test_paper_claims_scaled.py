"""Scaled-down versions of the paper's evaluation claims for the test
suite (the full-size assertions are ``benchmarks/test_claims.py``).

The timed relations come from :mod:`repro.bench.figures` — the engine
``python -m repro.bench`` prints — at one small M per payload size; the
message and connection reductions are read off server *counters*, so
they hold on any machine.
"""

import pytest

from repro.bench import figures
from repro.bench.workloads import echo_testbed, run_point

from ..metrics import counters

SERIAL, THREADS, PACKED = "no-optimization", "multiple-threads", "our-approach"


@pytest.fixture(scope="module")
def lan_beds():
    with echo_testbed(profile="lan", architecture="common", spi=False) as common:
        with echo_testbed(profile="lan", architecture="staged", spi=True) as staged:
            yield common, staged


@pytest.fixture(scope="module")
def small_payload():
    return figures.figure5(m_values=[16], repeats=3)


class TestLatencyShape:
    def test_packing_beats_serial_at_m16_small_payload(self, small_payload):
        speedup = small_payload.speedup_at(16, baseline=SERIAL, candidate=PACKED)
        assert speedup > 2.0, f"only {speedup:.1f}x"

    def test_packing_beats_threads_at_m16_small_payload(self, small_payload):
        assert small_payload.speedup_at(16, baseline=THREADS, candidate=PACKED) > 1.0

    def test_packing_loses_to_threads_at_100kb(self):
        large_payload = figures.figure7(m_values=[4], repeats=2)
        assert large_payload.speedup_at(4, baseline=THREADS, candidate=PACKED) < 1.0

    def test_message_reduction_m_to_one(self, lan_beds):
        _, staged = lan_beds
        server = staged.server
        before_msgs = counters(server)["soap.messages"]
        before_conns = counters(server)["http.connections.accepted"]
        run_point(staged, "our-approach", 16, 10)
        assert counters(server)["soap.messages"] - before_msgs == 1
        assert counters(server)["http.connections.accepted"] - before_conns == 1

    def test_serial_pays_m_messages_and_connections(self, lan_beds):
        common, _ = lan_beds
        server = common.server
        before_msgs = counters(server)["soap.messages"]
        before_conns = counters(server)["http.connections.accepted"]
        run_point(common, "no-optimization", 8, 10)
        assert counters(server)["soap.messages"] - before_msgs == 8
        assert counters(server)["http.connections.accepted"] - before_conns == 8

    def test_results_identical_across_strategies(self, lan_beds):
        common, staged = lan_beds
        expected = run_point(common, "no-optimization", 6, 100)
        assert run_point(common, "multiple-threads", 6, 100) == expected
        assert run_point(staged, "our-approach", 6, 100) == expected


class TestTravelAgentScaled:
    def test_packed_faster_and_fewer_messages(self):
        (plain, _), (packed, _), (_, improvement) = (
            figures.travel_agent_experiment(repeats=4).rows
        )
        assert "(11 messages)" in plain and "(7 messages)" in packed
        # paper: ~26%; accept a generous band for CI noise
        assert improvement > 10.0, f"only {improvement:.0f}%"
