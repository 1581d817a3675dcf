"""Calls per ``Envelope.to_bytes`` of ``single_small``'s request and
response (one unpacked echo of 10 bytes), under cProfile, and the
best-of-7 time of one call.

Usage: PYTHONPATH=<checkout>/src taskset -c 1 python3 body_profile.py
"""
import cProfile
import pstats
import timeit

from repro.soap.serializer import build_request_envelope, build_response_envelope

COUNTED = ("start", "parse", "_render_name", "prefix_for")
N = 1000

request = build_request_envelope("urn:repro:echo", "echo", {"payload": "x" * 10})
response = build_response_envelope("urn:repro:echo", "echo", "x" * 10)
for name, envelope in (("request", request), ("response", response)):
    envelope.to_bytes()  # warm
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(N):
        envelope.to_bytes()
    profile.disable()
    counts = dict.fromkeys(COUNTED, 0.0)
    for (_, _, function), (_, calls, *_) in pstats.Stats(profile).stats.items():
        if function in counts:
            counts[function] += calls / N
    best = min(timeit.repeat(envelope.to_bytes, number=2000, repeat=7)) / 2000 * 1e6
    print(name, {k: round(v, 2) for k, v in counts.items()}, f"to_bytes {best:.2f} us")
