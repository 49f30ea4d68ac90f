"""Run CLI operations in-process, judge them against their references, and
reduce passes to the end-to-end metrics."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import time
from dataclasses import dataclass
from typing import Callable

from workloads import Op, resolve_argv

# Seconds calibration_work takes at full speed on the host this benchmark was
# built on. Reported times are raw seconds times CALIBRATION_REF_S / (the
# run's fastest calibration): that cancels the minutes-long phases in which
# a shared host runs everything slower. The factor is near 1 on a quiet host.
CALIBRATION_REF_S = 0.018

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
    "ok_frac": "ratio",
}


def calibration_work() -> int:
    """Fixed pure-Python work with the program's instruction mix: recursion
    that builds tuples, big-integer bit operations, and a dict and a sort over
    a working set of a few megabytes."""
    seen = set()

    def walk(level: int, mask: int, path: tuple[int, ...]) -> int:
        if level == 0:
            seen.add(mask ^ (mask >> 3))
            return len(path)
        bit = 1 << (level * 5)
        return walk(level - 1, mask | bit, path + (level,)) + walk(level - 1, mask, path)

    table = {}
    for i in range(20000):
        table[(i * 7919) % 100003] = (i, str(i))
    return walk(13, 0, ()) + len(seen) + len(sorted(table.items()))


def calibrate() -> float:
    """Wall seconds of one calibration_work call, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


@dataclass(frozen=True)
class OpResult:
    op: str
    wall: float
    cpu: float
    calibration: float
    exit: int | None
    stdout_bytes: int
    error: str | None
    solved: bool

    @property
    def ok(self) -> bool:
        return self.error is None


def answer_differs(stdout: str, answer: dict) -> str | None:
    """Compare a ``phi --json`` result with its golden answer.

    Search statistics (nodes, lower, greedy) may change from commit to
    commit. A proven answer may not, and that includes its lexicographically
    smallest set. An unproven golden answer pins nothing: a better search may
    prove it or find another incumbent, so only the independent check applies.
    """
    if not answer["optimal"]:
        return None
    got = json.loads(stdout)
    if (got["optimal"], got["phi"], got["set"]) != (True, answer["phi"], answer["set"]):
        return f"phi {got['phi']} set {got['set']} optimal={got['optimal']}, golden {answer}"
    return None


def judge(op: Op, golden: dict, exit_code: int | None, stdout: str) -> str | None:
    """Why the output is wrong, or None. Golden exit code and stdout (bytes,
    or the answer for ``phi``) first, then the independent check."""
    if exit_code != golden["exit"]:
        return f"exit code {exit_code}, expected {golden['exit']}"
    try:
        if "answer" in golden:
            problem = answer_differs(stdout, golden["answer"])
        else:
            data = stdout.encode()
            digest = hashlib.sha256(data).hexdigest()
            problem = None
            if digest != golden["sha256"]:
                problem = (
                    f"stdout ({len(data)} B, sha256 {digest[:12]}) differs from golden "
                    f"({golden['bytes']} B, {golden['sha256'][:12]})"
                )
        if problem is None and op.check is not None:
            problem = op.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"could not read stdout: {exc!r}"
    return problem


def proved(op: Op, stdout: str) -> bool:
    """A phi answer counts as solved only when the search proved it."""
    if op.argv[0] == "phi":
        return json.loads(stdout)["optimal"] is True
    return True


def run_op(main: Callable[[list[str]], int], op: Op, paths: dict[str, str], golden: dict) -> OpResult:
    """One CLI call on freshly read input files. Any exception the call
    raises, RecursionError included, makes the operation failed rather than
    ending the pass."""
    argv = resolve_argv(op, paths)
    out, err = io.StringIO(), io.StringIO()
    exit_code: int | None = None
    raised: Exception | None = None
    calibration = calibrate()
    # Start every call from a collected heap, as a fresh CLI process would.
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = main(argv)
    except Exception as exc:  # the pass must survive any failing operation
        raised = exc
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    stdout = out.getvalue()
    if raised is not None:
        error = f"raised {type(raised).__name__}: {str(raised)[:200]}"
    else:
        error = judge(op, golden, exit_code, stdout)
    return OpResult(
        op=op.id,
        wall=wall,
        cpu=cpu,
        calibration=calibration,
        exit=exit_code,
        stdout_bytes=len(stdout.encode()),
        error=error,
        solved=error is None and proved(op, stdout),
    )


def pass_wall(results: list[OpResult]) -> float:
    return sum(r.wall for r in results)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    passes: list[list[OpResult]], setup_s: float, rss_mb: float, calibrations: list[float]
) -> dict[str, float]:
    """Each operation's time is its fastest over the passes, and every time,
    ``setup_s`` included, is scaled by the run's calibration factor.

    Contention from other tenants only ever adds time. On the shared host
    this benchmark was built on, the core alternates every few seconds
    between full speed and about 0.6x, and some phases slow everything for
    minutes; the minimum finds the full-speed time within a run, and the
    calibration factor cancels a phase that lasts the whole run (NOTES.md).
    """
    every = [r for p in passes for r in p]
    by_op: dict[str, list[OpResult]] = {}
    for r in every:
        by_op.setdefault(r.op, []).append(r)
    factor = CALIBRATION_REF_S / min(calibrations)
    walls = [min(r.wall for r in rs) * factor for rs in by_op.values()]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(min(r.cpu for r in rs) for rs in by_op.values()) * factor,
        "slowest_op_s": max(walls),
        "setup_s": setup_s * factor,
        "peak_rss_mb": rss_mb,
        "solved_frac": sum(r.solved for r in every) / len(every),
        "ok_frac": sum(r.ok for r in every) / len(every),
    }


def result_line(passes: list[list[OpResult]], metrics: dict[str, float], units: dict[str, str]) -> str:
    every = [r for p in passes for r in p]
    failed = sum(not r.ok for r in every)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(every),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )
