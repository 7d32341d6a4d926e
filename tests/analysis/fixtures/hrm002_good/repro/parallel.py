"""Worker entry point keeping every bit of state task-local."""

import time


def run_task(task) -> dict:
    scratch: dict = {}
    scratch[task] = 1
    return scratch


def back_off(attempt: int) -> None:
    # Waiting reads no clock into the outcome.
    time.sleep(0.01 * attempt)
