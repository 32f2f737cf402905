"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload suite_explore --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  Three workloads (see README.md):
``suite_explore`` and ``csmith_run`` run their ops in fresh
interpreters (``child.py``); ``daemon_mixed`` boots
``cerberus-py serve`` and drives it with one closed-loop client.
Every output is checked.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(a separate traced run through the outside wrappers of
``layers.py``).  Progress and diagnostics go to stderr.

Extra modes:

* ``--steady N`` runs the workload N times on seeds ``seed ..
  seed+N-1`` (each run a fresh process), prints the median and
  quartile spread of every end-to-end metric against its bound, then
  one traced run and the tracing overhead;
* ``--selftest`` feeds every checker deliberately wrong answers and
  exits non-zero unless each one is counted as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("suite_explore", "csmith_run", "daemon_mixed")

#: Set-up is measured this many times per run (median reported).
SETUP_PROBES = 5
DAEMON_BOOTS = 5

#: Rounds every untraced run makes, enough for at least 200 timed
#: ops (the p95 then has 10 samples beyond it); more rounds follow
#: while they fit in ``--seconds``.  A traced run runs round 0 twice,
#: plain and then traced.
MIN_ROUNDS = {"suite_explore": 1, "csmith_run": 4, "daemon_mixed": 8}

#: Self-time metrics of the layers; with ``unattributed_s`` they sum
#: to ``traced.wall_s``.
SELF_TIMES = (
    "cpp.preprocess_s", "cparser.parse_s", "ail.desugar_s",
    "typing.typecheck_s", "elab.elaborate_s", "core.check_s",
    "statics.collect_unseqs_s", "statics.annotate_s", "compile.lower_s",
    "driver.init_s", "driver.globals_s", "driver.run_s",
    "memory.action_s", "explore.self_s", "pool.self_s",
    "server.overhead_s", "server.cached_s")

#: Layers only the daemon goes through (0 on the other workloads).
SERVICE_METRICS = (
    "server.health_rtt_ms", "store.record_hits", "store.record_stores",
    "store.size_bytes", "server.overhead_ms", "server.overhead_s",
    "server.cached_s", "pool.task_s", "pool.self_s", "pool.queue_wait_s",
    "worker.translations", "server.jobs_executed",
    "server.result_cache_hits", "server.dedup_coalesced")

#: Deterministic counts the traced run checks against the program's
#: own ``repro.obs`` counters.
CROSS_CHECKED = ("driver.runs", "driver.steps", "explore.paths",
                 "pipeline.translations")

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


# -- fresh-process workloads --------------------------------------------------

def spawn_child(request: dict):
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.close()
    ready = proc.stdout.readline()
    if not ready:
        proc.wait()
        raise RuntimeError("child exited during set-up")
    return proc, time.monotonic() - t0


def setup_probe() -> float:
    proc, setup = spawn_child({"setup_only": True})
    proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError("set-up probe failed")
    return setup


def run_round(mode: str, ops: List[dict], trace: bool, check) -> dict:
    """One fresh interpreter over every op; returns the round's
    timings, failures and the child's final record."""
    wire = [{k: op[k] for k in ("source", "model", "max_paths",
                                "max_steps") if k in op} for op in ops]
    proc, setup = spawn_child({"mode": mode, "ops": wire,
                               "trace": trace})
    t0 = time.monotonic()
    try:
        records = []
        failed = 0
        for op in ops:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("child exited mid-round")
            record = json.loads(line)
            problem = check(op, record)
            if problem:
                failed += 1
                log(f"FAILED {op.get('name', '')} "
                    f"{op.get('model', '')}: {problem}")
            records.append(record)
        wall = time.monotonic() - t0
        done = json.loads(proc.stdout.readline())
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"child exited with {code}")
    return {"setup": setup, "wall": wall, "records": records,
            "failed": failed, "done": done}


def inputs(workload: str, seed: int):
    """``(mode, ops_of_round, check, complete)`` of a fresh-process
    workload: ``ops_of_round(k)`` lists the ops of round ``k``,
    ``check(op, record)`` returns ``None`` or why the answer is wrong,
    ``complete(op, record)`` the op's cells whose result is complete
    within the budget."""
    if workload == "suite_explore":
        from repro.testsuite.goldens import load_goldens
        from repro.testsuite.programs import TESTS
        doc = load_goldens()
        if (doc["max_paths"], doc["max_steps"]) != \
                (W.EXPLORE_MAX_PATHS, W.EXPLORE_MAX_STEPS):
            raise RuntimeError("goldens were made with another budget")
        golden = doc["verdicts"]

        def check(op, record):
            return W.check_explore(record,
                                   golden[op["name"]][op["model"]],
                                   TESTS[op["name"]].expect
                                   .get(op["model"]))

        def complete(op, record):
            return 1 if "error" in record or record["exhausted"] else 0
        ops = W.suite_ops(seed)
        return "explore", lambda k: ops, check, complete

    def check(op, record):
        if "error" in record:
            return record["error"]
        return W.check_run(record["verdicts"], op["expected"])

    def complete(op, record):
        if op["repeat"] or "error" in record:
            return 0
        return W.complete_cells(record["verdicts"])
    return "run", lambda k: W.csmith_ops(seed, k), check, complete


def inprocess(workload: str, seed: int, seconds: float,
              trace: bool) -> dict:
    mode, ops_of_round, check, complete = inputs(workload, seed)

    def one_round(index: int, traced: bool) -> dict:
        ops = ops_of_round(index)
        r = run_round(mode, ops, traced, check)
        r["ops"] = ops
        r["complete"] = sum(complete(op, rec)
                            for op, rec in zip(ops, r["records"]))
        log(f"{workload} round {index + 1}{' traced' if traced else ''}"
            f": wall {r['wall']:.2f}s, failed {r['failed']}/{len(ops)}")
        return r

    if trace:
        # Round 0 twice, plain then traced: the difference of their
        # walls is the tracing overhead on identical inputs.
        rounds = [one_round(0, False), one_round(0, True)]
        metrics, consistent = inprocess_layers(rounds[1],
                                               rounds[0]["wall"])
    else:
        setups = [setup_probe() for _ in range(SETUP_PROBES)]
        rounds = []
        start = time.monotonic()
        while True:
            r = one_round(len(rounds), False)
            rounds.append(r)
            setups.append(r["setup"])
            if len(rounds) >= MIN_ROUNDS[workload] and \
                    time.monotonic() - start + r["wall"] + r["setup"] \
                    > seconds:
                break
        metrics, consistent = inprocess_metrics(workload, rounds,
                                                setups), True
    return {"correct": consistent
            and len({r["complete"] for r in rounds}) == 1,
            "attempted": sum(len(r["ops"]) for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def inprocess_metrics(workload: str, rounds: List[dict],
                      setups: List[float]) -> dict:
    plain, cached = [], []
    for r in rounds:
        for op, rec in zip(r["ops"], r["records"]):
            if op.get("repeat"):
                cached.append(rec["t"])
                continue
            plain.append(rec["t"])
            if workload == "suite_explore" and rec["cached"]:
                cached.append(rec["t"])
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (fmean([r["wall"] for r in rounds]), "s"),
        "op_p50_ms": (median(plain) * 1e3, "ms"),
        "op_p95_ms": (p95(plain) * 1e3, "ms"),
        "peak_rss_mb": (median([r["done"]["rss_mb"] for r in rounds]),
                        "MB"),
        "exhausted_cells": (rounds[0]["complete"], "count"),
        "cached_p50_ms": (median(cached) * 1e3, "ms"),
    }


def cross_check(outside: Dict[str, float], own: Dict[str, float]
                ) -> bool:
    """The outside counts equal the program's own obs counters."""
    ok = True
    for name in CROSS_CHECKED:
        if name not in outside:
            continue
        if outside[name] != own.get(name, 0):
            log(f"COUNT MISMATCH {name}: outside {outside[name]} != "
                f"repro.obs {own.get(name, 0)}")
            ok = False
    return ok


def inprocess_layers(r: dict, plain_wall: float):
    done = r["done"]
    layers = dict(done["layers"])
    layers["pipeline.translations"] = done["translations"]
    layers["pipeline.cache_hits"] = done["cache_hits"]
    consistent = cross_check(layers, done["obs"])
    layers.update(dict.fromkeys(SERVICE_METRICS, 0))
    return finish_layers(layers, r["wall"], plain_wall), consistent


def finish_layers(layers: Dict[str, float], wall: float,
                  plain_wall: float):
    attributed = sum(layers.get(k, 0.0) for k in SELF_TIMES)
    layers["traced.wall_s"] = wall
    layers["traced.overhead_s"] = wall - plain_wall
    layers["unattributed_s"] = wall - attributed
    if layers["unattributed_s"] < -0.01 * wall:
        log(f"WARNING: layer self times exceed the wall time by "
            f"{-layers['unattributed_s']:.3f}s")
    return {k: (v, unit_of(k)) for k, v in sorted(layers.items())}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- the daemon ---------------------------------------------------------------

def daemon_round(d, ops: List[dict]) -> dict:
    client = d.client
    first: Dict[str, dict] = {}
    r = {"computed": [], "cached": [], "failed": 0, "complete": 0,
         "payloads": []}
    t0 = time.monotonic()
    for op in ops:
        program = op["program"]
        source, expected = program.source, program.expected_stdout
        s = time.perf_counter()
        if op["kind"] == "pair":
            ack = client.submit(source, wait=False)
            second = client.submit(source)["report"]
            latency = time.perf_counter() - s
            payload = client.result(ack["job"])["report"]
            problem = W.check_daemon(payload, expected, None) \
                or W.check_daemon(second, expected, payload)
        else:
            payload = client.submit(source)["report"]
            latency = time.perf_counter() - s
            problem = W.check_daemon(payload, expected,
                                     first.get(source))
        if op["kind"] == "repeat":
            r["cached"].append(latency)
        else:
            first[source] = payload
            r["computed"].append(latency)
            r["payloads"].append((latency, payload))
            r["complete"] += W.complete_cells(W.payload_verdicts(payload))
        if problem:
            r["failed"] += 1
            log(f"FAILED daemon {op['kind']}: {problem}")
    r["wall"] = time.monotonic() - t0
    return r


def serve(seed: int, tag: str, traced: bool, min_rounds: int,
          seconds: float) -> dict:
    """Boot one daemon, drive rounds of requests (at least
    ``min_rounds``, more while they fit in ``seconds``), read its
    stats and stop it."""
    from daemon import Daemon
    d = Daemon(ROOT, WORK, f"{tag}{os.getpid()}", traced=traced)
    rounds = []
    counts = {"distinct": 0, "repeats": 0, "pairs": 0}
    try:
        setup = d.boot()
        d.pin()
        start = time.monotonic()
        while True:
            ops = W.daemon_round(seed, len(rounds))
            r = daemon_round(d, ops)
            r["attempted"] = len(ops)
            rounds.append(r)
            for op in ops:
                counts["repeats"] += op["kind"] == "repeat"
                counts["pairs"] += op["kind"] == "pair"
                counts["distinct"] += op["kind"] != "repeat"
            log(f"daemon_mixed round {len(rounds)}"
                f"{' traced' if traced else ''}: wall {r['wall']:.2f}s, "
                f"failed {r['failed']}/{len(ops)}")
            if len(rounds) >= min_rounds and \
                    time.monotonic() - start + r["wall"] > seconds:
                break
        stats = d.client.stats()
        rss = d.peak_rss_mb()
        rtt = d.health_rtt_ms() if traced else 0.0
    finally:
        d.stop()
    problem = W.check_server_counts(stats["server"]["counters"],
                                    **counts)
    if problem:
        log(f"FAILED daemon: {problem}")
    return {"rounds": rounds, "setup": setup, "stats": stats,
            "rss": rss, "rtt": rtt, "counts_ok": problem is None}


def daemon_workload(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        # Round 0 on a plain daemon, then on a traced one: the
        # difference of their walls is the tracing overhead.
        plain = serve(seed, "plain", False, 1, 0)
        main = serve(seed, "traced", True, 1, 0)
        runs = [plain, main]
        metrics, consistent = daemon_layers(
            main["rounds"][0], main["stats"], main["rtt"],
            plain["rounds"][0]["wall"])
    else:
        from daemon import Daemon
        setups = []
        for k in range(DAEMON_BOOTS - 1):
            d = Daemon(ROOT, WORK, f"boot{os.getpid()}-{k}")
            try:
                setups.append(d.boot())
            finally:
                d.stop()
        main = serve(seed, "main", False, MIN_ROUNDS["daemon_mixed"],
                     seconds)
        runs = [main]
        setups.append(main["setup"])
        rounds = main["rounds"]
        computed = [t for r in rounds for t in r["computed"]]
        metrics, consistent = {
            "setup_s": (median(setups), "s"),
            "wall_s": (fmean([r["wall"] for r in rounds]), "s"),
            "op_p50_ms": (median(computed) * 1e3, "ms"),
            "op_p95_ms": (p95(computed) * 1e3, "ms"),
            "peak_rss_mb": (main["rss"], "MB"),
            "exhausted_cells": (rounds[0]["complete"], "count"),
            "cached_p50_ms": (median([t for r in rounds
                                      for t in r["cached"]]) * 1e3,
                              "ms"),
        }, True
    rounds = [r for run in runs for r in run["rounds"]]
    return {"correct": consistent
            and all(run["counts_ok"] for run in runs)
            and len({r["complete"] for r in rounds}) == 1,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def daemon_layers(r: dict, stats: dict, rtt_ms: float,
                  plain_wall: float):
    from layers import merge
    layers: Dict[str, float] = {}
    own: Dict[str, float] = {}
    overheads = []
    task_s = queue_s = 0.0
    translations = 0
    for latency, payload in r["payloads"]:
        merge(layers, payload.get("layers"))
        merge(own, payload.get("metrics", {}).get("counters"))
        overheads.append(latency - payload["wall_s"])
        task_s += payload["wall_s"]
        queue_s += payload["queue_wait_s"]
        translations += payload["stats"]["translations"]
    layers["pipeline.translations"] = translations
    layers["pipeline.cache_hits"] = sum(
        p.get("stats", {}).get("memory_hits", 0)
        for _, p in r["payloads"])
    consistent = cross_check(layers, own)
    in_worker = sum(layers.get(k, 0.0) for k in SELF_TIMES)
    counters = stats["server"]["counters"]
    store = stats["store"]
    layers.update({
        "server.health_rtt_ms": rtt_ms,
        "store.record_hits": store["record_hits"],
        "store.record_stores": store["record_stores"],
        "store.size_bytes": store["size_bytes"],
        "server.overhead_ms": median(overheads) * 1e3,
        "server.overhead_s": sum(overheads),
        "server.cached_s": sum(r["cached"]),
        "pool.task_s": task_s,
        "pool.self_s": task_s - in_worker,
        "pool.queue_wait_s": queue_s,
        "worker.translations": translations,
        "server.jobs_executed": counters["jobs_executed"],
        "server.result_cache_hits": counters["result_cache_hits"],
        "server.dedup_coalesced": counters["dedup_coalesced"],
    })
    return finish_layers(layers, r["wall"], plain_wall), consistent


# -- modes --------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    if workload == "daemon_mixed":
        result = daemon_workload(seed, seconds, trace)
    else:
        result = inprocess(workload, seed, seconds, trace)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit)
                         in result["metrics"].items()}
    return result


def one_run(workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def steady(workload: str, seed: int, seconds: float, runs: int) -> int:
    """Median and quartile spread of every end-to-end metric over
    ``runs`` runs on consecutive seeds, against the bounds of
    BENCHMARK.json; then traced runs on the first three seeds for the
    tracing overhead."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for k in range(runs):
        results.append(one_run(workload, seed + k, seconds, 0))
        log(f"run {k + 1}/{runs} (seed {seed + k}): "
            + json.dumps(results[-1]))
    report = {"workload": workload, "runs": runs, "metrics": {}}
    ok = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        report["metrics"][name] = {
            "median": q2, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"]}
        if name != "setup_s" and spread > metric["bound"]:
            ok = False
        log(f"{name:16s} median {q2:12.4f} {metric['unit']:5s} "
            f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.2%} "
            f"bound {metric['bound']:.0%}")
    fractions = {r["failed"] / r["attempted"] for r in results}
    report["failed_share"] = sorted(fractions)
    ok = ok and len(fractions) == 1 and all(r["correct"]
                                            for r in results)
    overheads = []
    for k in range(min(3, runs)):
        layers = one_run(workload, seed + k, seconds, 1)["metrics"]
        extra = layers["traced.overhead_s"]["value"]
        overheads.append((extra, extra / (layers["traced.wall_s"]
                                          ["value"] - extra)))
    report["tracing_overhead_s"] = median([o for o, _ in overheads])
    report["tracing_overhead"] = median([r for _, r in overheads])
    log(f"tracing overhead: {report['tracing_overhead_s']:.2f}s "
        f"({report['tracing_overhead']:.1%} of the plain round), "
        f"median of {len(overheads)} seeds")
    print(json.dumps(report))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log("no program to measure: run from the root of a checkout "
            "(src/repro is missing)")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        from selftest import selftest
        return selftest(inputs, run_round)
    if args.workload is None:
        p.error("--workload is required")
    if args.steady:
        return steady(args.workload, args.seed, args.seconds,
                      args.steady)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        try:
            WORK.rmdir()     # each daemon already removed its own files
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
