"""``cerberus-py serve`` with the layer clock in every pool worker.

Used only by the traced run of ``daemon_mixed``.  Each job runs
``repro.farm.server._execute_job`` in a forked worker; this wrapper
times the job's layers there and ships the snapshot back in the job
payload under ``"layers"``.  Arguments are those of
``cerberus-py serve``.
"""

import sys

import repro.farm.server as server
from layers import LayerClock

clock = LayerClock()
_execute_job = server._execute_job


def traced_execute_job(spec_dict, explore_dir, deadline_s):
    if not clock.installed:
        clock.install()
    clock.reset()
    payload = _execute_job(spec_dict, explore_dir, deadline_s)
    payload["layers"] = clock.snapshot()
    return payload


if __name__ == "__main__":
    server._execute_job = traced_execute_job
    from repro.cli import main
    sys.exit(main(["serve"] + sys.argv[1:]))
