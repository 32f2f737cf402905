"""One round of an in-process workload, in a fresh interpreter.

The parent (``run.py``) starts this file with ``PYTHONPATH=src`` and
writes one JSON request line on its stdin::

    {"mode": "explore" | "run", "ops": [...], "trace": bool,
     "setup_only": bool}

The child reads its inputs, imports the program, prints
``{"ready": true}`` (the end of set-up), then runs each op and prints
one JSON line per op, and finally a ``{"done": true, ...}`` line with
its peak RSS and, when traced, the layer clock and the program's own
``repro.obs`` counters.  It decides nothing: every check happens in
the parent.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def run_op(mode: str, op: dict) -> dict:
    from repro.errors import CerberusError
    from repro.pipeline import explore_many, run_many
    if mode == "explore":
        model = op["model"]
        try:
            result = explore_many(op["source"], models=[model],
                                  max_paths=op["max_paths"],
                                  max_steps=op["max_steps"])[model]
        except CerberusError as exc:
            return {"error": f"error:{type(exc).__name__}"}
        return {"outs": [[o.status, o.stdout,
                          o.ub.name if o.ub else None, o.summary()]
                         for o in result.distinct()],
                "exhausted": result.exhausted,
                "paths": result.paths_run}
    try:
        outcomes = run_many(op["source"])
    except CerberusError as exc:
        return {"error": f"error:{type(exc).__name__}"}
    return {"verdicts": {m: [o.status, o.exit_code, o.stdout]
                         for m, o in outcomes.items()}}


def main() -> int:
    request = json.loads(sys.stdin.readline())
    from repro import obs
    from repro.pipeline import compile_cache_stats
    # The pipeline module pulls in the whole front and back end.
    print(json.dumps({"ready": True}), flush=True)
    if request.get("setup_only"):
        return 0
    mode = request["mode"]
    clock = None
    scope = contextlib.nullcontext()
    if request["trace"]:
        from layers import LayerClock
        clock = LayerClock()
        clock.install()
        scope = obs.collecting()
    before = compile_cache_stats()
    with scope as registry:
        for op in request["ops"]:
            translations = compile_cache_stats()["translations"]
            t0 = time.perf_counter()
            record = run_op(mode, op)
            record["t"] = time.perf_counter() - t0
            record["cached"] = \
                compile_cache_stats()["translations"] == translations
            print(json.dumps(record), flush=True)
    after = compile_cache_stats()
    done = {"done": True,
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "translations": after["translations"]
            - before["translations"],
            "cache_hits": after["hits"] - before["hits"]}
    if clock is not None:
        clock.uninstall()
        done["layers"] = clock.snapshot()
        done["obs"] = registry.to_dict().get("counters", {})
    print(json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
