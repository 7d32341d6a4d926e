"""Module-level mutable state, reached transitively from the worker."""

import os
import time

_CALLS: list = []
_TOTAL = 0


def bump(task) -> int:
    _CALLS.append(task)
    return len(_CALLS)


def reset() -> None:
    global _TOTAL
    _TOTAL = 0


def mode() -> str | None:
    return os.environ.get("MODE")


def stamp(task) -> tuple:
    return task, time.perf_counter()
