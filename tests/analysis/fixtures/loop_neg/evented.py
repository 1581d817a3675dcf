"""Negative corpus: the loop-safe idioms the rule must accept.

Everything here is reachable from ``_run_loop``, where
may-block-on-event-loop-transitive starts.
"""


def _recv_nonblocking(sock, max_bytes=65536):
    try:
        return sock.recv(max_bytes)  # allowed: inside the named wrapper
    except BlockingIOError:
        return None


def _send_nonblocking(sock, data):
    try:
        return sock.send(data)  # allowed: inside the named wrapper
    except BlockingIOError:
        return 0


def _accept_nonblocking(sock):
    try:
        return sock.accept()  # allowed: inside the named wrapper
    except BlockingIOError:
        return None


def _run_loop(selector, stage, lock, completions):
    _drain_ready(selector)
    for key, _mask in selector.select(0.2):
        data = _recv_nonblocking(key.fileobj, 65536)
        if not data:
            continue
        if lock.acquire(timeout=0.5):  # bounded acquire is fine
            try:
                stage.submit(work, data)  # fire-and-forget: results come
            finally:  # back via the completion queue
                lock.release()
        while completions:
            _send_nonblocking(key.fileobj, completions.popleft())


def _drain_ready(selector):
    return selector.select(0.0)  # bounded select outside the loop is fine


def work(data):
    return data
