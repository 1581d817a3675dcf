"""The declared metrics: names, units, direction.

``BENCHMARK.json`` lists the same names (a self-test holds the two together);
the bounds live there.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rt_p50_ms": ("ms", "lower"),
    "rt_p90_ms": ("ms", "lower"),
    "calls_per_s": ("1/s", "higher"),
    "cpu_ms_per_call": ("ms", "lower"),
    "wire_bytes_per_call": ("B", "lower"),
}

_MS = ("ms", "lower")
_COUNT = ("count", "lower")

PER_LAYER = {
    "transport.rtt_ms": _MS,
    "transport.connect_ms": _MS,
    "transport.request_bytes": _COUNT,
    "transport.response_bytes": _COUNT,
    "http.encode_request_ms": _MS,
    "http.parse_request_pull_ms": _MS,
    "http.parse_request_push_ms": _MS,
    "http.encode_response_ms": _MS,
    "http.parse_response_ms": _MS,
    "http.rtt_threaded_ms": _MS,
    "http.rtt_evented_ms": _MS,
    "xmlcore.parse_tree_ms": _MS,
    "xmlcore.parse_cursor_ms": _MS,
    "xmlcore.serialize_ms": _MS,
    "xmlcore.nodes_per_rt": _COUNT,
    "soap.client_encode_ms": _MS,
    "soap.envelope_write_request_ms": _MS,
    "soap.envelope_parse_server_ms": _MS,
    "soap.decode_entries_ms": _MS,
    "soap.encode_entries_ms": _MS,
    "soap.envelope_write_response_ms": _MS,
    "soap.envelope_parse_client_ms": _MS,
    "core.assemble_ms": _MS,
    "core.unpack_ms": _MS,
    "core.pack_ms": _MS,
    "core.dispatch_ms": _MS,
    "core.entries_per_rt": _COUNT,
    "server.execute_ms": _MS,
    "server.execute_self_ms": _MS,
    "server.stage_handoff_ms": _MS,
    "server.endpoint_ms": _MS,
    "server.endpoint_self_ms": _MS,
    "client.call_ms": _MS,
    "client.self_ms": _MS,
    "obs.on_overhead_share": ("ratio", "lower"),
    "bench.layer_sum_ms": ("ms", "lower"),
    "bench.unattributed_share": ("ratio", "lower"),
    "bench.trace_overhead_share": ("ratio", "lower"),
    "bench.missing_probes": _COUNT,
    "bench.setup_cold_s": ("s", "lower"),
    "loadgen.rt_p99_ms": _MS,
    "loadgen.late_p99_ms": _MS,
    "loadgen.backlog_max": _COUNT,
    "proc.peak_rss_mb": ("MB", "lower"),
    "proc.gc_collections": _COUNT,
}
