"""Self-test of the benchmark's checkers.

Real answers for a few ops are produced by the program (through the
same fresh-process round the benchmark runs) and must pass; then each
is altered the way a fault would alter it, and every altered answer
must be counted as a failed op.  Prints one line per case and exits
non-zero if any real answer fails or any wrong answer passes.
"""

from __future__ import annotations

import copy
import json
import sys

import workloads as W

#: Suite programs with a UB verdict and with a two-behaviour cell.
SUITE_PICK = ("null_deref", "provenance_equality_gcc")
CSMITH_PICK = 3


def _flip_ub(record):
    for out in record.get("outs", []):
        if out[0] == "ub":
            out[3] = out[3].replace(out[2], "Flipped_ub")
            out[2] = "Flipped_ub"
            return record
    return None


def _drop_behaviour(record):
    if record.get("exhausted") and len(record.get("outs", [])) >= 2:
        record["outs"].pop()
        return record
    return None


def _alter_stdout(record):
    for out in record.get("outs", []):
        if out[0] in ("done", "exit"):
            out[3] = out[3].replace("stdout='", "stdout='X")
            out[1] = "X" + out[1]
            return record
    return None


def _run_stdout(record):
    model = sorted(record["verdicts"])[0]
    record["verdicts"][model][2] += "0"
    return record


def _run_ub(record):
    model = sorted(record["verdicts"])[-1]
    record["verdicts"][model][0] = "ub"
    return record


def _run_drop_model(record):
    record["verdicts"].pop(sorted(record["verdicts"])[0])
    return record


def _as_payload(record):
    return {"ok": True, "wall_s": 0.1,
            "verdicts": {m: {"status": s, "exit_code": c, "stdout": o}
                         for m, (s, c, o) in record["verdicts"].items()}}


def selftest(inputs, run_round) -> int:
    cases = []          # (name, counted as failed, wanted failed)

    def count(name, problem, wrong):
        cases.append((name, bool(problem), wrong))

    mode, ops_of_round, check, _ = inputs("suite_explore", 1)
    ops = [op for op in ops_of_round(0) if op["name"] in SUITE_PICK]
    r = run_round(mode, ops, False, check)
    for op, record in zip(ops, r["records"]):
        cell = f"{op['name']}/{op['model']}"
        count(f"suite {cell} real answer", check(op, record), False)
        for label, alter in (("flipped UB name", _flip_ub),
                             ("behaviour dropped from exhausted cell",
                              _drop_behaviour),
                             ("altered stdout", _alter_stdout)):
            wrong = alter(copy.deepcopy(record))
            if wrong is not None:
                count(f"suite {cell} {label}", check(op, wrong), True)

    mode, ops_of_round, check, _ = inputs("csmith_run", 1)
    ops = ops_of_round(0)[:CSMITH_PICK]
    r = run_round(mode, ops, False, check)
    for k, (op, record) in enumerate(zip(ops, r["records"])):
        count(f"csmith #{k} real answer", check(op, record), False)
        for label, alter in (("altered stdout", _run_stdout),
                             ("UB instead of exit 0", _run_ub),
                             ("model missing", _run_drop_model)):
            count(f"csmith #{k} {label}",
                  check(op, alter(copy.deepcopy(record))), True)

        payload = _as_payload(record)
        expected = op["expected"]
        count(f"daemon #{k} real answer",
              W.check_daemon(payload, expected, None), False)
        count(f"daemon #{k} identical repeat",
              W.check_daemon(copy.deepcopy(payload), expected, payload),
              False)
        other = dict(payload, wall_s=0.2)
        count(f"daemon #{k} repeat differing from the first answer",
              W.check_daemon(other, expected, payload), True)
        failed_job = dict(payload, ok=False, error="job-failed")
        count(f"daemon #{k} failed job",
              W.check_daemon(failed_job, expected, None), True)
        wrong = _as_payload(_run_stdout(copy.deepcopy(record)))
        count(f"daemon #{k} altered stdout",
              W.check_daemon(wrong, expected, None), True)

    counters = {"jobs_executed": 28, "result_cache_hits": 28,
                "dedup_coalesced": 4}
    count("daemon server counters", W.check_server_counts(
        counters, distinct=28, repeats=28, pairs=4), False)
    count("daemon program computed twice", W.check_server_counts(
        dict(counters, jobs_executed=29), distinct=28, repeats=28,
        pairs=4), True)

    bad = 0
    for name, failed, wanted in cases:
        ok = failed == wanted
        bad += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}: "
              f"{'counted as failed' if failed else 'passed'}",
              file=sys.stderr)
    print(json.dumps({"cases": len(cases), "bad": bad}))
    return 1 if bad else 0
