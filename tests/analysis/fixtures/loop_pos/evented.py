"""Positive corpus: blocking calls inside an event-loop module.

may-block-on-event-loop-transitive starts at the function named
``_run_loop`` and follows every synchronous call out of it.
"""

import time


def _run_loop(selector, stage, lock, listener):
    _accept_ready(listener)
    _wait_for_events(selector)
    for key, _mask in selector.select():  # no timeout: idle sweeps never run
        sock = key.fileobj
        data = sock.recv(65536)  # raw recv on the loop
        if not data:
            continue
        sock.sendall(data)  # raw sendall on the loop
        time.sleep(0.01)  # the selector timeout is the only legal wait
        lock.acquire()  # no timeout: parks the loop behind a worker
        reply = stage.submit(work, data).result()  # self-deadlock
        sock.send(reply)  # raw send on the loop


def _accept_ready(listener):
    conn, _peer = listener.accept()  # raw accept outside the wrapper
    return conn


def _wait_for_events(selector):
    # no-timeout select: parks until an fd is ready, so deadline sweeps
    # and shutdown never get a turn
    return selector.select()


def work(data):
    return data
