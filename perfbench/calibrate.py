"""A fixed pure-Python loop in a fresh interpreter, to gauge the machine's speed.

Usage: calibrate.py

Prints the seconds the loop took, interpreter start-up excluded.  It imports
nothing of pmzs, so no change to pmzs can move it.  The machine this benchmark
was set up on runs fresh interpreters at a speed that drifts by up to a factor
of two over tens of seconds to minutes, and a loop in a fresh interpreter drifts
with the operations while a loop in the long-lived harness does not; run.py
therefore scales its times by these loops, run between the operations.
"""

import time


def main() -> None:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    digest = 0
    for i in range(600_000):
        key = (i * 7919) % 100_003
        counts[key] = counts.get(key, 0) + 1
        digest ^= hash((key, i & 255))
    sorted(counts.items())
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
