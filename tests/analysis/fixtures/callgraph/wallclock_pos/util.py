"""A helper that hides a wall-clock read one module and two calls away
from the rollup code."""

import time


def elapsed_since(start):
    return now_seconds() - start


def now_seconds():
    return time.time()  # the taint seed
