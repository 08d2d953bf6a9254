"""Run the default ``sos serve`` stack for the ``served_mix`` workload.

Usage: ``serve_child.py [TRACE_DIR]``.

Prints one JSON line when the imports are done, then the server's own
``serving on ...`` line, and one JSON line with resource usage after the
server has shut down (send SIGINT to stop it).  With ``TRACE_DIR``, the
layer wrappers are installed before the solve pool forks, and each pool
worker writes its spans to ``TRACE_DIR/spans-<pid>.json`` when it stops.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import Recorder, cpu_seconds, install


def _emit(document) -> None:
    print(json.dumps(document), flush=True)


def main(argv) -> int:
    trace_dir = argv[1] if len(argv) > 1 else ""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro  # noqa: F401
    import repro.cli
    import repro.service  # noqa: F401

    imported = time.perf_counter()
    if trace_dir:
        import repro.service.procpool as procpool

        recorder = Recorder()
        install(recorder)
        worker_main = procpool._pool_worker_main

        def traced_worker_main(*args) -> None:
            try:
                worker_main(*args)
            finally:
                recorder.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.json"))

        procpool._pool_worker_main = traced_worker_main
    _emit({"event": "imported", "at": imported, "cpu_s": cpu_seconds()})
    code = repro.cli.main(["serve", "--port", "0"])
    _emit({
        "event": "exit",
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "cpu_s": cpu_seconds() + cpu_seconds(resource.RUSAGE_CHILDREN),
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
