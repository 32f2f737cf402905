"""Seeded inputs and output checkers for the three workloads.

Inputs are made here from ``--seed`` alone; the program under test
only ever receives the generated sources.  Every checker is a pure
function returning ``None`` for a correct answer or a one-line reason
for a wrong one, so the self-test can feed each of them deliberately
wrong answers.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

#: suite_explore: the budget the goldens were computed with.
EXPLORE_MAX_PATHS = 64
EXPLORE_MAX_STEPS = 400_000

#: csmith_run: distinct programs per round and their statement
#: budget.  Each round then runs every one of them a second time.  The
#: compile cache holds 128 translations and every program needs two
#: (LP64 and CHERI128), so all 50 stay cached and every repeat is a
#: cache hit.
CSMITH_PROGRAMS = 50
CSMITH_SIZE = 6

#: daemon_mixed: the make-up of one round of requests.  Each computed
#: request (new or pair) is followed by ``DAEMON_REPEATS_AFTER``
#: repeats, so the cached median has many samples spread over the
#: whole run and always the same share of repeats that directly
#: follow a computed job.
DAEMON_SIZE = 2
DAEMON_NEW = 24
DAEMON_PAIRS = 4
DAEMON_REPEATS_AFTER = 4

MODELS = ("concrete", "provenance", "strict", "cheri", "gcc")


# -- inputs -------------------------------------------------------------------

def suite_ops(seed: int) -> List[dict]:
    """All 53 test programs in a seeded order, each under all five
    models in a fixed order (so the LP64 translation is made by the
    first model and served from the compile cache to the next ones)."""
    from repro.testsuite.programs import TESTS
    names = sorted(TESTS)
    random.Random(seed).shuffle(names)
    return [{"name": name, "model": model,
             "source": TESTS[name].source,
             "max_paths": EXPLORE_MAX_PATHS,
             "max_steps": EXPLORE_MAX_STEPS}
            for name in names for model in MODELS]


def program_seeds(seed: int, stream: str, count: int) -> List[int]:
    rng = random.Random(f"{stream}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def csmith_ops(seed: int, index: int) -> List[dict]:
    """Round ``index``: ``CSMITH_PROGRAMS`` generated programs, then
    each of them once more in a seeded order."""
    from repro.csmith.generator import generate_program
    programs = [generate_program(s, CSMITH_SIZE)
                for s in program_seeds(seed, f"csmith{index}",
                                       CSMITH_PROGRAMS)]
    ops = [{"source": p.source, "expected": p.expected_stdout,
            "repeat": False} for p in programs]
    repeats = [dict(op, repeat=True) for op in ops]
    random.Random(f"csmith-repeats:{seed}:{index}").shuffle(repeats)
    return ops + repeats


def daemon_round(seed: int, index: int) -> List[dict]:
    """One round of daemon requests: ``DAEMON_NEW`` first-seen
    programs and ``DAEMON_PAIRS`` first-seen programs sent twice in
    flight at once, in a seeded order, each followed by
    ``DAEMON_REPEATS_AFTER`` repeats of programs already answered in
    this round (a seeded choice)."""
    from repro.csmith.generator import generate_program
    fresh = DAEMON_NEW + DAEMON_PAIRS
    programs = [generate_program(s, DAEMON_SIZE)
                for s in program_seeds(seed, f"daemon{index}", fresh)]
    rng = random.Random(f"daemon-mix:{seed}:{index}")
    kinds = ["new"] * DAEMON_NEW + ["pair"] * DAEMON_PAIRS
    rng.shuffle(kinds)
    ops, answered = [], []
    for kind, program in zip(kinds, programs):
        answered.append(program)
        ops.append({"kind": kind, "program": program})
        ops.extend({"kind": "repeat", "program": rng.choice(answered)}
                   for _ in range(DAEMON_REPEATS_AFTER))
    return ops


# -- checkers -----------------------------------------------------------------

def verdict_class(status: str, stdout: str, ub: Optional[str]) -> str:
    """The verdict string ``TestCase.expect`` speaks of."""
    if status == "ub":
        return f"ub:{ub}" if ub else "ub"
    if status in ("done", "exit"):
        return f"ok:{stdout}"
    return status


def expect_matches(verdict: str, expected: str) -> bool:
    if expected == "ok":
        return verdict.startswith("ok:")
    if expected == "ub":
        return verdict.startswith("ub")
    return verdict == expected


def check_explore(record: dict, golden: List[str],
                  expected: Optional[str]) -> Optional[str]:
    """One suite cell: every verdict agrees with the hand-written
    expectation, and the behaviour set is a subset of the golden one,
    equal to it when the search was exhaustive."""
    if "error" in record:
        behaviours, verdicts = [record["error"]], [record["error"]]
        exhausted = True
    else:
        behaviours = sorted(out[3] for out in record["outs"])
        verdicts = [verdict_class(*out[:3]) for out in record["outs"]]
        exhausted = record["exhausted"]
    extra = set(behaviours) - set(golden)
    if extra:
        return f"behaviours not in the golden set: {sorted(extra)}"
    if exhausted and behaviours != sorted(golden):
        return "exhaustive search lost golden behaviours: " \
            f"{sorted(set(golden) - set(behaviours))}"
    if expected is not None and expected != "either":
        wrong = [v for v in verdicts if not expect_matches(v, expected)]
        if wrong:
            return f"verdicts {wrong} contradict expectation " \
                f"{expected!r}"
    return None


def check_run(verdicts: Dict[str, list], expected_stdout: str
              ) -> Optional[str]:
    """One generated program: every model exits 0 and prints the
    generator's independently computed output.  ``verdicts`` maps a
    model to ``[status, exit_code, stdout]``."""
    missing = set(MODELS) - set(verdicts)
    if missing:
        return f"no verdict for {sorted(missing)}"
    for model, (status, code, stdout) in sorted(verdicts.items()):
        if status not in ("done", "exit") or code != 0:
            return f"{model}: {status} exit {code}"
        if stdout != expected_stdout:
            return f"{model}: stdout {stdout!r} != {expected_stdout!r}"
    return None


def complete_cells(verdicts: Dict[str, list]) -> int:
    """Run-mode cells that ended within the step budget."""
    return sum(1 for status, _, _ in verdicts.values()
               if status != "timeout")


def payload_verdicts(payload: dict) -> Dict[str, list]:
    """``[status, exit_code, stdout]`` per model from a server job
    payload."""
    return {m: [v.get("status"), v.get("exit_code"), v.get("stdout")]
            for m, v in (payload.get("verdicts") or {}).items()}


def check_daemon(payload: dict, expected_stdout: str,
                 first: Optional[dict]) -> Optional[str]:
    """One daemon answer: the job succeeded, its verdicts match the
    generator's output, and a repeated or coalesced answer equals the
    first answer for the same program."""
    if not payload.get("ok"):
        return f"job failed: {payload.get('error')}"
    problem = check_run(payload_verdicts(payload), expected_stdout)
    if problem:
        return problem
    if first is not None and payload != first:
        return "repeated answer differs from the first"
    return None


def check_server_counts(counters: dict, distinct: int, repeats: int,
                        pairs: int) -> Optional[str]:
    """The server computed each distinct program exactly once."""
    want = {"jobs_executed": distinct, "result_cache_hits": repeats,
            "dedup_coalesced": pairs}
    got = {k: counters.get(k) for k in want}
    if got != want:
        return f"server counters {got} != {want}"
    return None
