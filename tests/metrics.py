"""Read a component's counts the way an operator does: off its
registry's ``snapshot()``.

A misspelt instrument name raises ``KeyError`` here; the registry's
get-or-create accessors would hand back a fresh instrument reading 0.
"""


def counters(owner) -> dict:
    """``owner.registry``'s counters by name."""
    return owner.registry.snapshot()["counters"]


def gauges(owner) -> dict:
    """``owner.registry``'s gauges by name."""
    return owner.registry.snapshot()["gauges"]


def sketches(owner) -> dict:
    """``owner.registry``'s quantile sketches by name, each a snapshot
    dict (``count``, ``sum``, ``mean``, ...)."""
    return owner.registry.snapshot()["sketches"]
