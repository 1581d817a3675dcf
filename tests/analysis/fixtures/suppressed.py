# repro: disable-file=no-wallclock-duration
"""Suppression fixture: every violation here carries a pragma (a comment:
the same text inside this docstring would be no pragma)."""

import random
import time


def stamp():
    return time.time()  # silenced by the file pragma above


def pace(interval):
    time.sleep(interval)  # repro: disable=no-direct-sleep-random — fixture


def roll():
    return random.random()  # repro: disable=all
