"""Run one gensob CLI invocation in this fresh interpreter and record it.

    python3 child.py RESULT_JSON TRACE <gensob arguments...>

``import gensob.cli`` is the first statement, so the moment it returns ends
the set-up a CLI user pays on every invocation.  ``cli.main`` is then called
with the given arguments, with the layer tracer installed when TRACE is 1.
RESULT_JSON receives the timestamps (CLOCK_MONOTONIC), the exit code, any
exception raised out of ``cli.main``, the peak RSS of this process and of its
reaped pool workers, and the spans when traced.  The child exits 0 whenever it
could write that file.
"""

import gensob.cli  # noqa: I001  first statement: its end is the end of set-up
import time

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    rec = None
    if trace:
        import tracer

        rec = tracer.install()
    code, raised = None, None
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        code = gensob.cli.main(argv)
    except (Exception, SystemExit):
        raised = traceback.format_exc()
    t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    maxrss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "module_file": gensob.cli.__file__,
        "t_imported": T_IMPORTED,
        "t_main": [t0, t1],
        "exit_code": code,
        "raised": raised,
        "maxrss_kib": maxrss_kib,
        "spans": rec.spans if rec is not None else None,
        "missing_layers": rec.missing if rec is not None else [],
    }
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
