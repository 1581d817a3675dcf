"""In-process price of the evented driver's loop -> worker -> loop hand-off.

One round is what the evented backend spends between a parsed request
and its completion back on the loop, minus the request itself: the loop
thread submits a task to a ``Stage("h", 8, max_queue=1024)``; the task
appends to a deque and wakes the loop through ``EventedHttpServer._wake``
(one byte on a non-blocking socketpair); the loop waits in ``select``,
runs ``EventedHttpServer._drain_wakeup`` and pops the deque.  The stage,
the wake-up and the drain are the checkout's own code, so the same file
prices any checkout.

Pinned to one CPU, as perf/run.py pins itself.

    # one checkout, one run: microseconds a round
    PYTHONPATH=src python3 results/handoff_pr44/handoff.py --rounds 20000
    # alternate two checkouts, 5 runs each, first one first
    python3 results/handoff_pr44/handoff.py --pair <root a> <root b> --runs 5
"""

import argparse
import collections
import os
import selectors
import socket
import statistics
import subprocess
import sys
import time
import types


def one_run(rounds: int) -> float:
    from repro.http.evented import EventedHttpServer
    from repro.server.stage import Stage

    recv, send = socket.socketpair()
    recv.setblocking(False)
    send.setblocking(False)
    # the two methods read only these attributes
    loop = types.SimpleNamespace(_wakeup_recv=recv, _wakeup_send=send)
    selector = selectors.DefaultSelector()
    selector.register(recv, selectors.EVENT_READ)
    done = collections.deque()
    stage = Stage("h", 8, max_queue=1024)

    def handler(i):
        done.append(i)
        EventedHttpServer._wake(loop)

    def round_trip(i):
        stage.submit(handler, i)
        while not done:
            selector.select(0.2)
            EventedHttpServer._drain_wakeup(loop, 0.0)
        done.popleft()

    try:
        for i in range(2000):  # warm-up: threads started, caches hot
            round_trip(i)
        start = time.perf_counter()
        for i in range(rounds):
            round_trip(i)
        return (time.perf_counter() - start) / rounds * 1e6
    finally:
        stage.shutdown()
        selector.close()
        recv.close()
        send.close()


def pair(roots: list[str], runs: int, rounds: int) -> None:
    per_root = {root: [] for root in roots}
    for run in range(runs):
        order = roots if run % 2 == 0 else roots[::-1]
        for root in order:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--rounds", str(rounds)],
                cwd=root, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
                check=True, capture_output=True, text=True,
            ).stdout
            per_root[root].append(float(out))
    a, b = (per_root[root] for root in roots)
    for root, values in per_root.items():
        print(f"{root}: " + " ".join(f"{v:.2f}" for v in values)
              + f"  median {statistics.median(values):.2f} us/round")
    print(f"b vs a (medians): {(statistics.median(b) / statistics.median(a) - 1) * 100:+.1f} %")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=20000)
    parser.add_argument("--pair", nargs=2, metavar="ROOT")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.pair:
        pair(args.pair, args.runs, args.rounds)
        return
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"{one_run(args.rounds):.3f}")


if __name__ == "__main__":
    main()
