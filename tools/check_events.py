#!/usr/bin/env python3
"""Schema validator for hacc_run observability artifacts.

Two modes:

  JSONL event stream (default)
      python3 tools/check_events.py run.jsonl
    Every line must be a JSON object carrying "type" and "step"; the stream
    must open with `begin`, then `init` or `restart` — optionally preceded
    by the `--restart auto` recovery scan (`ckpt_validate` verdicts and one
    `recovery` record) — and close with `run_summary` followed by `end`.
    Step events must embed the metrics registry snapshot with every
    runner-registered key (the backend-independent set below); checkpoint
    events must name the file, its cost, and its post-write CRC verdict;
    `ckpt_validate` / `recovery` / `error` / `ckpt_prune` events carry the
    checkpoint-durability fields.  Every step event carries `phases`: the
    step's wall seconds per propagator stage, each finite and >= 0.  The
    contract is documented in docs/OBSERVABILITY.md and docs/RUNNING.md and
    pinned by tests/run/test_events.cpp.

  Chrome trace (--trace)
      python3 tools/check_events.py --trace trace.json [--min-threads N]
                                    [--min-workers N] [--assert-overlap A,B]
    The file must be a trace_event JSON object Perfetto can load: "X"
    duration events with non-negative ts/dur, span names following the
    `module.phase` convention, and thread_name metadata for every lane.
    A trace whose `otherData.dropped_events` is above zero is truncated
    (a per-thread ring overflowed) and fails.
    --min-threads requires that many distinct lanes recorded spans;
    --min-workers requires that many of them to be pool workers
    ("worker-<i>" lanes) — the CI smoke run uses it to prove multi-thread
    tracing end to end.  --assert-overlap A,B requires at least one span
    matching token A to overlap in time with one matching token B (a span
    matches a token when the token equals one of its dot-separated name
    segments, so `pm` matches both `sched.pm` and `pm.deposit`) — the CI
    proof that the step propagator really runs the PM stage concurrently
    with the short-range chain.

Exit status is 0 when the artifact is valid, 1 otherwise (one line per
problem, `path:line: message`).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

# Metrics the runner itself registers: present in every step event and in
# run_summary regardless of scenario or gravity backend.  Backend-specific
# producers (e.g. the pm.* family) are intentionally not required here.
REQUIRED_STEP_METRICS = [
    "tree.builds",
    "sched.pm_s", "sched.short_s", "sched.overlap_s",
    "step.wall_s.count", "step.wall_s.sum",
    "step.wall_s.p50", "step.wall_s.p95", "step.wall_s.p99",
    "step.da.count", "step.da.sum", "step.da.p50", "step.da.p95", "step.da.p99",
    "ops.launches", "ops.kernel_s", "ops.interactions", "ops.m2p",
    "ckpt.writes", "ckpt.bytes", "ckpt.write_s",
    "ckpt.validate", "ckpt.failures", "ckpt.recovered_from",
    "run.outputs", "stepctl.da_next",
]

# Top-level keys required per event type, beyond the universal type/step.
REQUIRED_EVENT_KEYS = {
    "begin": ["scenario", "backend", "mode", "hydro", "restart"],
    "init": ["a"],
    "restart": ["a", "z", "file"],
    "step": ["a", "z", "da", "wall_s", "ke", "phases", "metrics"],
    "checkpoint": ["a", "file", "bytes", "write_s", "crc"],
    "ckpt_validate": ["file", "status"],
    "recovery": ["file", "recovered_from", "candidates"],
    "error": ["what"],
    "ckpt_prune": ["file", "pruned_step"],
    "output": ["a", "z", "n_halos", "largest_halo"],
    "run_summary": ["metrics"],
    "end": ["steps", "total_steps", "a", "z", "wall_s", "checkpoints"],
    "max_steps": ["steps"],
}

# Events the `--restart auto` recovery scan may emit between `begin` and the
# `init`/`restart` that actually starts the run.
RECOVERY_SCAN_EVENTS = ("ckpt_validate", "recovery", "error")

# `module.phase`: lowercase module segment; phase segments keep their own
# capitalization (HACC kernel names like `xsycl.upBarAcF` pass through).
SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*\.[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*$")


def check_jsonl(path: Path) -> list[str]:
    problems: list[str] = []

    def problem(lineno: int, message: str) -> None:
        problems.append(f"{path}:{lineno}: {message}")

    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"{path}:0: unreadable: {e}"]

    events: list[tuple[int, dict]] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            problem(lineno, f"not valid JSON: {e}")
            continue
        if not isinstance(obj, dict):
            problem(lineno, "event line is not a JSON object")
            continue
        events.append((lineno, obj))

    if not events:
        problems.append(f"{path}:0: no events")
        return problems

    for lineno, obj in events:
        etype = obj.get("type")
        if not isinstance(etype, str) or not etype:
            problem(lineno, 'missing or non-string "type"')
            continue
        step = obj.get("step")
        if not isinstance(step, int) or isinstance(step, bool):
            problem(lineno, f'"{etype}" event missing integer "step"')
        for key in REQUIRED_EVENT_KEYS.get(etype, []):
            if key not in obj:
                problem(lineno, f'"{etype}" event missing "{key}"')
        if etype in ("step", "run_summary") and isinstance(obj.get("metrics"), dict):
            metrics = obj["metrics"]
            for key in REQUIRED_STEP_METRICS:
                if key not in metrics:
                    problem(lineno, f'"{etype}" metrics missing "{key}"')
                elif not isinstance(metrics[key], (int, float)):
                    problem(lineno, f'"{etype}" metrics "{key}" is not a number')
        elif etype in ("step", "run_summary") and "metrics" in obj:
            problem(lineno, f'"{etype}" "metrics" is not an object')
        if etype == "step" and "phases" in obj:
            phases = obj["phases"]
            if not isinstance(phases, dict):
                problem(lineno, '"step" "phases" is not an object')
            else:
                for stage, seconds in phases.items():
                    if (not isinstance(seconds, (int, float))
                            or isinstance(seconds, bool)
                            or not math.isfinite(seconds) or seconds < 0):
                        problem(lineno, f'"step" phase "{stage}" is not a '
                                        f'finite number >= 0: {seconds!r}')

    # Stream shape.
    types = [obj.get("type") for _, obj in events]
    if types[0] != "begin":
        problem(events[0][0], f'stream must open with "begin", got "{types[0]}"')
    # After `begin` (and any recovery-scan prelude) the run must announce how
    # it started: fresh ICs (`init`) or a checkpoint (`restart`).
    first_start = next((i for i, t in enumerate(types[1:], start=1)
                        if t not in RECOVERY_SCAN_EVENTS), None)
    if first_start is None or types[first_start] not in ("init", "restart"):
        got = "nothing" if first_start is None else f'"{types[first_start]}"'
        problem(events[min(first_start or 1, len(events) - 1)][0],
                f'after "begin" and the recovery scan the stream must '
                f'continue with "init" or "restart", got {got}')
    if types[-1] != "end":
        problem(events[-1][0], f'stream must close with "end", got "{types[-1]}"')
    elif len(types) < 2 or types[-2] != "run_summary":
        problem(events[-1][0], '"end" must be preceded by "run_summary"')

    # Step events count 1..N in order (restarts start above 1).
    steps = [obj["step"] for _, obj in events
             if obj.get("type") == "step" and isinstance(obj.get("step"), int)]
    for prev, cur in zip(steps, steps[1:]):
        if cur != prev + 1:
            problem(0, f"step events jump from {prev} to {cur}")
            break

    return problems


def trace_dropped_events(trace: dict) -> int:
    """Events the exporter lost to ring overflow (0 when not recorded)."""
    other = trace.get("otherData")
    dropped = other.get("dropped_events", 0) if isinstance(other, dict) else 0
    return dropped if isinstance(dropped, int) else 0


def check_trace(path: Path, min_threads: int, min_workers: int,
                assert_overlap: str | None = None) -> list[str]:
    problems: list[str] = []

    def problem(message: str) -> None:
        problems.append(f"{path}:0: {message}")

    overlap_tokens: tuple[str, str] | None = None
    if assert_overlap is not None:
        parts = [t.strip() for t in assert_overlap.split(",")]
        if len(parts) != 2 or not all(parts):
            return [f"{path}:0: --assert-overlap needs exactly two "
                    f"comma-separated span tokens, got {assert_overlap!r}"]
        overlap_tokens = (parts[0], parts[1])

    try:
        trace = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        return [f"{path}:0: unreadable: {e}"]
    except json.JSONDecodeError as e:
        return [f"{path}:0: not valid JSON: {e}"]

    if not isinstance(trace, dict) or "traceEvents" not in trace:
        problem('top level must be an object with "traceEvents"')
        return problems
    events = trace["traceEvents"]
    if not isinstance(events, list):
        problem('"traceEvents" must be an array')
        return problems
    dropped = trace_dropped_events(trace)
    if dropped:
        problem(f"trace is truncated: {dropped} event(s) dropped "
                f"(otherData.dropped_events)")

    lane_names: dict[int, str] = {}
    lanes_with_spans: set[int] = set()
    bad_names: set[str] = set()
    overlap_intervals: tuple[list, list] = ([], [])
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problem(f"traceEvents[{i}] is not an object")
            continue
        ph = e.get("ph")
        if ph not in ("X", "M"):
            problem(f'traceEvents[{i}] has unexpected ph "{ph}"')
            continue
        if "tid" not in e or "pid" not in e:
            problem(f"traceEvents[{i}] missing pid/tid")
            continue
        if ph == "M":
            if e.get("name") == "thread_name":
                lane_names[e["tid"]] = e.get("args", {}).get("name", "")
            continue
        name = e.get("name")
        if not isinstance(name, str) or not name:
            problem(f"traceEvents[{i}] X event missing name")
            continue
        ts, dur = e.get("ts"), e.get("dur")
        if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
            problem(f'X event "{name}" missing numeric ts/dur')
        elif dur < 0:
            problem(f'X event "{name}" has negative duration {dur}')
        if not SPAN_NAME.match(name) and name not in bad_names:
            bad_names.add(name)
            problem(f'span name "{name}" violates the module.phase convention')
        lanes_with_spans.add(e["tid"])
        if overlap_tokens and isinstance(ts, (int, float)) \
                and isinstance(dur, (int, float)):
            segments = name.split(".")
            for token, intervals in zip(overlap_tokens, overlap_intervals):
                if token in segments:
                    intervals.append((ts, ts + dur))

    for tid in sorted(lanes_with_spans):
        if tid not in lane_names:
            problem(f"lane tid={tid} has spans but no thread_name metadata")

    if len(lanes_with_spans) < min_threads:
        problem(f"only {len(lanes_with_spans)} lane(s) recorded spans; "
                f"--min-threads {min_threads} required")
    workers = sum(1 for tid in lanes_with_spans
                  if lane_names.get(tid, "").startswith("worker-"))
    if workers < min_workers:
        problem(f"only {workers} worker lane(s) recorded spans; "
                f"--min-workers {min_workers} required")

    if overlap_tokens:
        a_token, b_token = overlap_tokens
        a_spans, b_spans = overlap_intervals
        if not a_spans or not b_spans:
            missing = a_token if not a_spans else b_token
            problem(f'--assert-overlap: no span matches token "{missing}"')
        elif not any(a0 < b1 and b0 < a1
                     for a0, a1 in a_spans for b0, b1 in b_spans):
            problem(f'--assert-overlap: no "{a_token}" span overlaps a '
                    f'"{b_token}" span ({len(a_spans)} vs {len(b_spans)} '
                    f'spans, all disjoint in time)')

    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path,
                        help="run JSONL file, or a trace JSON with --trace")
    parser.add_argument("--trace", action="store_true",
                        help="validate a Chrome trace_event file instead")
    parser.add_argument("--min-threads", type=int, default=1,
                        help="trace mode: lanes that must have spans (default 1)")
    parser.add_argument("--min-workers", type=int, default=0,
                        help="trace mode: worker-* lanes that must have spans")
    parser.add_argument("--assert-overlap", metavar="A,B", default=None,
                        help="trace mode: require a span matching token A to "
                             "overlap in time with one matching token B")
    args = parser.parse_args(argv)

    if args.trace:
        problems = check_trace(args.path, args.min_threads, args.min_workers,
                               args.assert_overlap)
    else:
        problems = check_jsonl(args.path)
    for p in problems:
        print(p)
    if problems:
        print(f"check_events: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_events: {args.path} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
