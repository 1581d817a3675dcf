"""The paper's §4 claims as ratios, full size, on the shaped LAN profile.

Every time here comes from :mod:`repro.bench.figures` (one warm-up,
median of the repeats, through ``harness.measure``) — the engine that
``python -m repro.bench`` prints and that
``tests/integration/test_paper_claims_scaled.py`` asserts scaled down.
EXPERIMENTS.md's claim-ratio table names the case that guards each row:

1. at M=1 packing is no win over No Optimization (pack/unpack overhead);
2. at high M with small payloads packing wins by a large factor, and
   the factor grows with M;
3. at 1 KB packing is still the fastest of the three strategies;
4. at 100 KB packing stops winning and Multiple Threads beats it;
5. one packed message costs one SOAP message and one TCP connection;
6. the staged architecture overlaps a pack's entries, the common one
   runs them serially;
7. a WS-Security header on every message does not reduce the advantage;
8. the travel agent saves four of eleven messages and > 10 % of the time.
"""

import pytest

from repro.bench import figures
from repro.bench.workloads import run_point

SERIAL, THREADS, PACKED = "no-optimization", "multiple-threads", "our-approach"


@pytest.fixture(scope="module")
def fig5():
    return figures.figure5(m_values=[2, 64, 128], repeats=3)


def test_claim_pack_overhead_at_m1():
    """§4.2: 'when M equals 1 ... the time consumption of Our Approach is
    more than that of No Optimization' — within noise on our testbed, so
    assert packing is at best marginally different, never a win.

    A 4 ms point with an 18 % margin, so it gets a sweep of its own: the
    two sides are timed within half a second of each other, hot (a first
    pass is thrown away — timed cold, No Optimization read 25-46 % slower
    than the pack), and compared on the fastest of 31 samples, which a
    neighbour's stall cannot move (under CPU steal the medians of this
    point swung 0.76-1.28, the minima 0.84-1.10).
    """
    figures.figure5(m_values=[1], repeats=3)
    points = {
        approach: series.points[1]
        for approach, series in figures.figure5(m_values=[1], repeats=31).series.items()
    }
    assert points[SERIAL].best_ms / points[PACKED].best_ms < 1 / 0.85


def test_claim_tenfold_speedup_at_m128(fig5):
    """§4.2: 'When the number of messages is 128 and the size of each
    message payload is 10 characters, Our Approach can achieve the
    performance optimization up to ten times faster.'"""
    speedup = fig5.speedup_at(128, baseline=SERIAL, candidate=PACKED)
    assert speedup >= 5.0, f"only {speedup:.1f}x"


def test_claim_speedup_grows_with_m(fig5):
    low = fig5.speedup_at(2, baseline=SERIAL, candidate=PACKED)
    high = fig5.speedup_at(64, baseline=SERIAL, candidate=PACKED)
    assert low < high, f"{low:.1f}x at M=2 vs {high:.1f}x at M=64"


def test_claim_pack_fastest_at_moderate_payload():
    """§4.2: for 1 KB payloads Our Approach 'can get the least time
    consumption in the three approaches' at high M."""
    fig6 = figures.figure6(m_values=[64], repeats=3)
    assert fig6.speedup_at(64, baseline=SERIAL, candidate=PACKED) > 1.0
    assert fig6.speedup_at(64, baseline=THREADS, candidate=PACKED) > 1.0


def test_claim_packing_stops_winning_at_100kb():
    """§4.2/Fig. 7: with 100 KB payloads the reduction 'is minor, or even
    negligible' and packing is no longer the best strategy."""
    fig7 = figures.figure7(m_values=[8], repeats=3)
    # what is left of the 10 B advantage is minor...
    assert fig7.speedup_at(8, baseline=SERIAL, candidate=PACKED) < 1.5
    # ...and multiple-threads (transfer overlap) beats packing outright
    assert fig7.speedup_at(8, baseline=THREADS, candidate=PACKED) < 1.0


def test_claim_message_and_connection_reduction(staged_bed):
    """§4.2: 'the number of TCP connection and SOAP Header is reduced
    from M to one' — counted directly from server statistics."""
    server = staged_bed.server
    before_msgs = server.endpoint.stats.soap_messages
    before_conns = server.http.connections_accepted
    run_point(staged_bed, PACKED, 16, 10)
    assert server.endpoint.stats.soap_messages - before_msgs == 1
    assert server.http.connections_accepted - before_conns == 1


def test_claim_staged_overlaps_what_common_serialises():
    """§3.3: the application stage runs one pack's entries concurrently;
    the common architecture runs them one after another in the protocol
    thread, so it pays at least M x the operation's own time."""
    m, delay_ms = 16, 5
    rows = dict(figures.arch_ablation(m=m, delay_ms=delay_ms).rows)
    common = rows["packed on common architecture"]
    staged = rows["packed on staged architecture"]
    assert common >= 0.9 * m * delay_ms
    assert staged < common / 3, f"{staged:.1f} ms vs {common:.1f} ms"


def test_claim_wss_makes_packing_more_attractive():
    """§4.2/§5: serial pays M signed headers, the pack pays one — allow
    a little noise, but WSS must not *reduce* the advantage."""
    rows = dict(figures.wssecurity_ablation(repeats=7).rows)
    plain = rows["speedup without WS-Security"]
    wss = rows["speedup with WS-Security"]
    assert wss >= 0.9 * plain, f"{wss:.1f}x with vs {plain:.1f}x without"


def test_claim_travel_agent_saves_messages_and_time():
    """§4.3: eleven invocations in eleven messages against seven with
    steps 1 and 3 packed; the paper reports ~26 % less time."""
    (without, _), (with_opt, _), (_, improvement) = figures.travel_agent_experiment().rows
    assert "(11 messages)" in without and "(7 messages)" in with_opt
    assert improvement > 10.0, f"only {improvement:.0f} %"
