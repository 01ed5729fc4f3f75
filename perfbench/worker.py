"""Serving process: answers problem dicts through ``fullness_lab.cli.run``.

Protocol: one JSON object per line on stdin, one reply per line on stdout.

    {"op": "run", "id": n, "problem": {...}}  -> {"id": n, "ok": true, "report": {...}}
                                               | {"id": n, "ok": false, "error": "..."}
    {"op": "reset"}                          -> {"ok": true}   (drop trace aggregates)
    {"op": "rss"}                            -> {"maxrss_kb": ...}
    {"op": "finish"}                         -> {"maxrss_kb": ..., "trace": ..., ...}

The first line written is {"ready": true, "cpu_s": ..., "scale": ...} once
the library is imported; cpu_s in a run reply is the CPU time this process
spent on it (its thread CPU clock: the process is single-threaded).
A speed probe (speed.py) runs from before the library is imported: each
cpu_s leaves out the probe's own samples and comes with the scale to the
host's quiet speed measured over the same window.
Usage: python3 worker.py ROOT [--trace]
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

import speed


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fullness_lab
    from fullness_lab import cli

    where = os.path.realpath(fullness_lab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"fullness_lab imported from {where}, not from {src}")
    return cli


def main(argv: list[str]) -> int:
    probe = speed.Probe()
    try:
        return serve(argv[0], "--trace" in argv[1:], probe)
    finally:
        probe.stop()  # an armed timer outliving its handler kills the process


def serve(root: str, traced: bool, probe: speed.Probe) -> int:
    proto = sys.stdout
    sys.stdout = sys.stderr  # library output must not corrupt the protocol
    try:
        cli = _import_library(root)
    except ImportError as e:
        print(f"worker: cannot import the library: {e}", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install("fullness_lab", tracing.ENTRY_POINTS)

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    def measured(cpu_s: float) -> dict:
        return {"cpu_s": cpu_s - probe.spent_s, "scale": probe.scale()}

    reply({"ready": True, **measured(time.thread_time())})
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            if tracer is not None:
                tracer.request_id = msg["id"]
            probe.restart()
            c0 = time.thread_time()
            try:
                report = cli.run(msg["problem"])
            except Exception as e:  # every failure is reported, never dropped
                out = {"ok": False, "error": f"{type(e).__name__}: {e}"}
            else:
                out = {"ok": True, "report": report}
            reply({"id": msg["id"], **measured(time.thread_time() - c0), **out})
        elif op == "reset":
            if tracer is not None:
                tracer.reset()
            reply({"ok": True})
        elif op == "rss":
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        elif op == "finish":
            out = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                out["trace"] = tracer.snapshot()
                out["spans"] = tracer.spans
                out["cache"] = tracing.cache_state()
            reply(out)
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
