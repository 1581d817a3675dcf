"""Chunked-transfer encoding for tests that feed chunked bodies to the
framer: a server frames every response by ``Content-Length``, but
requests — and responses from other peers — may arrive chunked."""


def encode_chunked(body: bytes, chunk_size: int = 8192) -> bytes:
    """``body`` as chunked-transfer frames, the terminator last."""
    frames = []
    for offset in range(0, len(body), chunk_size):
        chunk = body[offset : offset + chunk_size]
        frames.append(f"{len(chunk):x}\r\n".encode("ascii") + chunk + b"\r\n")
    frames.append(b"0\r\n\r\n")
    return b"".join(frames)
