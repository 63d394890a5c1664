"""The harness's own arithmetic: the tail-percentile rule and op outcomes."""

from __future__ import annotations

from collections import Counter

TAIL_BEYOND = 10

OK = "ok"
WRONG_OUTPUT = "wrong-output"
WRONG_EXIT = "wrong-exit"
EXCEPTION = "exception"


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves ``beyond`` samples above it.

    That is the sample with exactly ``beyond`` samples ranked above it.
    Returns ``(value, percentile, samples_beyond)``; with too few samples it
    returns the median and says so through the count.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - beyond if n > 2 * beyond else (n + 1) // 2
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def classify(expected_exit: int, exit_code: int | None, exception: BaseException | None,
             check_error: str | None) -> str:
    """One op's outcome: ok, wrong-exit, wrong-output or ``exception:<Type>``."""
    if exception is not None:
        return f"{EXCEPTION}:{type(exception).__name__}"
    if exit_code != expected_exit:
        return WRONG_EXIT
    if check_error is not None:
        return WRONG_OUTPUT
    return OK


def outcome_counts(outcomes: list[str]) -> dict[str, int]:
    """Counts per outcome class, exceptions also counted per type."""
    counts = Counter({OK: 0, WRONG_OUTPUT: 0, WRONG_EXIT: 0, EXCEPTION: 0})
    for outcome in outcomes:
        counts[outcome.split(":", 1)[0]] += 1
        if outcome.startswith(EXCEPTION + ":"):
            counts[outcome] += 1
    return dict(counts)


def error_rate(outcomes: list[str]) -> float:
    """Failed ops over attempted ops; an op fails unless its outcome is ok."""
    if not outcomes:
        raise ValueError("no ops attempted")
    return sum(1 for o in outcomes if o != OK) / len(outcomes)
