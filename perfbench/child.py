"""One benchmark operation in a fresh interpreter.

Usage: child.py RECORD TRACE [PMZS_ARGV...]

Imports pmzs (and installs the tracer when TRACE is 1), calls
``pmzs.cli.main(PMZS_ARGV)`` once with stdout going to the real stdout, and
writes a JSON record to RECORD: the monotonic clock when the call started and
ended, its exit code, the process's peak RSS and, when traced, the spans.
With no PMZS_ARGV it stops after the imports; the parent uses that to time
interpreter start-up.  An exception in pmzs propagates, so the parent sees a
traceback, a nonzero exit and no record.
"""

import json
import os
import resource
import sys
import time


def _clock() -> float:
    # system-wide, so the parent can subtract its own spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import pmzs.cli

    expected = os.path.join(os.getcwd(), "src", "pmzs")
    if os.path.dirname(os.path.abspath(pmzs.__file__)) != expected:
        print(f"imported pmzs from {pmzs.__file__}, not from {expected}", file=sys.stderr)
        return 90
    trace = None
    if traced:
        import tracer

        trace = tracer.Trace()
        tracer.install(trace)
    record = {"ready": _clock()}
    if argv:
        code = pmzs.cli.main(argv)
        record["done"] = _clock()
        record["code"] = code
        sys.stdout.flush()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace is not None:
        record["trace"] = trace.dump()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
