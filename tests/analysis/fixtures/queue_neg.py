"""Negative fixture: bounded construction and explicit forwarding."""


def build(Stage, handler, **kwargs):
    stage = Stage("parse", handler, workers=2, max_queue=64)
    explicit_unbounded = Stage("app", 4, max_queue=None)  # a recorded decision
    forwarded = Stage("app", 4, **kwargs)  # the caller may carry the bound
    return stage, explicit_unbounded, forwarded
