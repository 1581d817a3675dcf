"""Client-side throughput (design goal 1 of §3.2).

"Our approach is designed to reduce the number of SOAP messages
transferred to services, which can greatly improve the throughput of
whole application."

Measures requests/second for a sustained stream of echo requests
arriving in bursts of 16, for each §4.1 strategy.
"""

import pytest

from benchmarks.conftest import bed_for
from repro.bench.harness import measure
from repro.bench.workloads import run_point

BURSTS = 8
BURST_SIZE = 16
PAYLOAD = 100
TOTAL = BURSTS * BURST_SIZE
APPROACHES = ["no-optimization", "multiple-threads", "our-approach"]


def stream(bed, approach):
    for _ in range(BURSTS):
        run_point(bed, approach, BURST_SIZE, PAYLOAD)
    return TOTAL


@pytest.mark.parametrize("approach", APPROACHES)
def test_throughput(benchmark, approach, common_bed, staged_bed):
    bed = bed_for(approach, common_bed, staged_bed)
    benchmark.group = f"throughput ({TOTAL} requests in bursts of {BURST_SIZE})"
    completed = benchmark.pedantic(
        stream, args=(bed, approach), rounds=2, warmup_rounds=1, iterations=1
    )
    assert completed == TOTAL
    benchmark.extra_info["requests_per_second"] = TOTAL / benchmark.stats.stats.min


def test_packed_throughput_is_highest(benchmark, common_bed, staged_bed):
    benchmark.group = "claims"
    rates = {}
    for approach in APPROACHES:
        bed = bed_for(approach, common_bed, staged_bed)
        rates[approach] = TOTAL / measure(lambda: stream(bed, approach)).median_s
    benchmark.extra_info["requests_per_second"] = rates
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert rates["our-approach"] > rates["multiple-threads"] > rates["no-optimization"]
