"""Regeneration of every evaluation artifact in the paper (§4).

Each function reproduces one table/figure, timed by
:func:`repro.bench.harness.measure` and nothing else.  Three thin
callers: ``python -m repro.bench`` prints the results,
``benchmarks/test_claims.py`` asserts the full-size ratios and
``tests/integration/test_paper_claims_scaled.py`` the scaled ones.
Absolute numbers differ from the 2006 testbed; the ratios are recorded
in EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.apps.travel import TravelAgent, deploy_travel_system
from repro.bench.harness import Measurement, measure
from repro.bench.report import FigureResult, ScalarResult
from repro.bench.workloads import (
    APPROACHES,
    BENCH_POLICY,
    build_transport,
    echo_calls,
    echo_testbed,
    make_invoker,
    run_point,
    secured_proxy,
)
from repro.core.batch import PackedInvoker

FULL_M_SWEEP = [1, 2, 4, 8, 16, 32, 64, 128]
FAST_M_SWEEP = [1, 8, 64]

PAYLOAD_SMALL = 10
PAYLOAD_MODERATE = 1000
PAYLOAD_LARGE = 100_000


def latency_figure(
    figure_id: str,
    payload: int,
    *,
    profile: str = "lan",
    m_values: list[int] | None = None,
    repeats: int = 3,
) -> FigureResult:
    """The common engine behind Figures 5, 6 and 7.

    Baselines run against the common architecture (stock Axis-style
    deployment); Our Approach runs against the staged architecture with
    the SPI handlers, matching the paper's setup.
    """
    m_values = m_values or FULL_M_SWEEP
    result = FigureResult(
        figure_id,
        "Run time vs number of service requests",
        payload,
        m_values,
    )
    with echo_testbed(profile=profile, architecture="common", spi=False) as baseline_bed:
        for approach in ("no-optimization", "multiple-threads"):
            for m in m_values:
                result.record(
                    approach,
                    m,
                    measure(
                        lambda m=m, a=approach: run_point(baseline_bed, a, m, payload),
                        label=f"{approach}/M={m}",
                        repeats=repeats,
                    ),
                )
    with echo_testbed(profile=profile, architecture="staged", spi=True) as spi_bed:
        for m in m_values:
            result.record(
                "our-approach",
                m,
                measure(
                    lambda m=m: run_point(spi_bed, "our-approach", m, payload),
                    label=f"our-approach/M={m}",
                    repeats=repeats,
                ),
            )
    result.notes.append(f"profile={profile}, repeats={repeats}")
    return result


def figure5(**kwargs) -> FigureResult:
    """Figure 5: 10-byte payloads — packing wins big at high M."""
    return latency_figure("Figure 5", PAYLOAD_SMALL, **kwargs)


def figure6(**kwargs) -> FigureResult:
    """Figure 6: 1 KB payloads — packing still wins."""
    return latency_figure("Figure 6", PAYLOAD_MODERATE, **kwargs)


def figure7(**kwargs) -> FigureResult:
    """Figure 7: 100 KB payloads — packing loses (overhead dominates).

    Defaults to fewer repeats and a shorter M sweep than Figures 5/6:
    each 100 KB point moves megabytes through the emulated link.
    """
    if kwargs.get("repeats") is None:
        kwargs["repeats"] = 2
    if kwargs.get("m_values") is None:
        kwargs["m_values"] = [1, 2, 4, 8, 16, 32]
    return latency_figure("Figure 7", PAYLOAD_LARGE, **kwargs)


def travel_agent_experiment(
    *, profile: str = "lan", repeats: int = 10
) -> ScalarResult:
    """§4.3: eleven invocations, with and without packing steps 1 and 3.

    Paper: 408 ms unoptimized vs 301 ms optimized (~26% improvement),
    each the total over the eleven invocations, repeated 10 times.
    """
    result = ScalarResult("Travel agent service (paper: 408 ms -> 301 ms, ~26%)")
    factory = (lambda: build_transport(profile)) if profile != "inproc" else None

    with deploy_travel_system(transport_factory=factory) as (system, transport):
        for use_packing, label in ((False, "without optimization"),
                                   (True, "with optimization")):
            agent = TravelAgent(
                transport,
                system.airline_address,
                system.hotel_address,
                system.credit_address,
                use_packing=use_packing,
            )
            bookings = []
            try:
                measurement = measure(
                    lambda: bookings.append(agent.book_vacation("PEK", "SHA")),
                    label=label,
                    repeats=repeats,
                )
            finally:
                agent.close()
            # the message count is read off the last booking, not assumed
            result.add(
                f"{label} ({bookings[-1].soap_messages} messages)",
                measurement.median_ms,
            )

    without, with_opt = result.rows[0][1], result.rows[1][1]
    improvement = (without - with_opt) / without * 100.0
    result.add("improvement (%)", improvement)
    result.notes.append(f"profile={profile}, repeats={repeats}")
    return result


def wssecurity_ablation(
    *, profile: str = "lan", m: int = 32, payload: int = 100, repeats: int = 3
) -> ScalarResult:
    """§4.2/§5 claim: header-heavy specs (WS-Security) make packing more
    attractive.  Measures serial-vs-packed speedup with and without a
    signed WSS header on every message."""
    result = ScalarResult(
        f"WS-Security ablation (M={m}, payload={payload} B): "
        "packing speedup should GROW with WSS headers on",
        unit="x speedup",
    )

    for wss, label in ((False, "speedup without WS-Security"),
                       (True, "speedup with WS-Security")):
        with echo_testbed(profile=profile, architecture="staged", spi=True) as bed:

            def run(approach: str) -> Measurement:
                def once():
                    proxy = secured_proxy(bed) if wss else bed.make_proxy()
                    try:
                        make_invoker(approach, proxy).invoke_all(
                            echo_calls(m, payload), BENCH_POLICY
                        )
                    finally:
                        proxy.close()

                return measure(once, label=f"{label}/{approach}", repeats=repeats)

            serial = run("no-optimization")
            packed = run("our-approach")
            result.add(label, serial.median_ms / packed.median_ms)

    result.notes.append(f"profile={profile}")
    return result


def arch_ablation(
    *, profile: str = "lan", m: int = 32, delay_ms: int = 5, repeats: int = 3
) -> ScalarResult:
    """Design ablation: the packed message on the staged architecture
    (concurrent application stage) vs on the common architecture
    (sequential in the protocol thread).  Isolates the benefit of §3.3's
    staged independent thread pool when operations do real work."""
    result = ScalarResult(
        f"Architecture ablation (M={m} packed delayedEcho({delay_ms} ms) requests)"
    )
    from repro.client.invoker import Call

    calls = Call.many(
        "delayedEcho", [{"payload": "x", "delay_ms": delay_ms}] * m
    )
    for architecture in ("common", "staged"):
        with echo_testbed(profile=profile, architecture=architecture, spi=True) as bed:

            def once():
                proxy = bed.make_proxy()
                try:
                    PackedInvoker(proxy).invoke_all(calls, BENCH_POLICY)
                finally:
                    proxy.close()

            measurement = measure(once, label=architecture, repeats=repeats)
            result.add(f"packed on {architecture} architecture", measurement.median_ms)
    result.notes.append(
        "staged should approach 1x the single-operation latency; common is ~Mx"
    )
    return result


def relatedwork_ablation(*, iterations: int = 200) -> ScalarResult:
    """Related-work baselines (§2.2): differential serialization and the
    tag trie.  CPU-only microbenchmarks — these optimizations reduce
    per-message processing, orthogonal to SPI's message-count reduction."""
    from repro.relatedwork.diffser import DifferentialSerializer
    from repro.relatedwork.trie import LinearTagMatcher, TagTrie
    from repro.soap.serializer import build_request_envelope

    result = ScalarResult(f"Related-work ablation ({iterations} iterations)", unit="ms")

    # differential serialization vs full serialization
    params = [{"city": f"City{i}", "country": "China"} for i in range(iterations)]

    def full_serialization():
        for p in params:
            build_request_envelope("urn:w", "GetWeather", p).to_bytes()

    def differential():
        ser = DifferentialSerializer()
        for p in params:
            ser.serialize_request("urn:w", "GetWeather", p)

    result.add("full serialization", measure(full_serialization, repeats=3).median_ms)
    result.add("differential serialization", measure(differential, repeats=3).median_ms)

    # trie vs linear tag matching over a realistic tag population
    tags = [f"{{urn:svc{i % 17}}}operation{i}" for i in range(100)]

    def match_with(factory):
        matcher = factory()
        for tag in tags:
            matcher.insert(tag, tag)

        def run():
            for _ in range(iterations):
                for tag in tags:
                    matcher.lookup(tag)

        return measure(run, repeats=3).median_ms

    result.add("linear tag matching", match_with(LinearTagMatcher))
    result.add("trie tag matching", match_with(TagTrie))
    return result


def all_experiments(*, fast: bool = False, profile: str = "lan") -> list:
    """Everything, in paper order."""
    m_values = FAST_M_SWEEP if fast else None
    repeats = 2 if fast else 3
    results = [
        figure5(profile=profile, m_values=m_values, repeats=repeats),
        figure6(profile=profile, m_values=m_values, repeats=repeats),
        figure7(
            profile=profile,
            m_values=[1, 8, 16] if fast else None,
            repeats=1 if fast else 2,
        ),
        travel_agent_experiment(profile=profile, repeats=3 if fast else 10),
        wssecurity_ablation(profile=profile, repeats=repeats),
        arch_ablation(profile=profile, repeats=repeats),
        relatedwork_ablation(iterations=50 if fast else 200),
    ]
    return results
