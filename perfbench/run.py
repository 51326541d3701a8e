#!/usr/bin/env python3
"""The repository benchmark: particle-steps/s end to end, with per-layer
probes timed from outside the program.

    python3 perfbench/run.py --workload hydro-pmpp --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

A run builds the driver (perfbench/CMakeLists.txt) into .bench_build/,
computes or reuses the one-thread ScenarioRunner reference for the seed,
repeats the workload for --seconds, checks every repetition, and prints
every metric with its unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
The full record, provenance included, is written under
.bench_build/results/.  See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "cmake"
EXE = CMAKE_BUILD / "hacc_perfbench"
WORKLOADS = ("hydro-pmpp", "gravity-treepm", "pm-mesh")

# The contract of tests/run/test_thread_parity.cpp: multi-thread runs match
# the one-thread run to this relative tolerance.
REL_TOL = 1e-4

BUILD_TIMEOUT_S = 840
REFERENCE_TIMEOUT_S = 120
RUN_GRACE_S = 120
SPH_KERNELS = ("geometry", "corrections", "extras", "acceleration", "energy")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, **kw):
    """Runs a child process to completion.  On a timeout, or when this
    process is interrupted or terminated, kills the child and waits for it."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{cmd[0]} timed out after {timeout} s")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out, err


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no CRK-HACC sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "a") as logf:
        steps = []
        cache = CMAKE_BUILD / "CMakeCache.txt"
        if cache.is_file() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
                                not in cache.read_text()):
            remove_tree(CMAKE_BUILD)  # configured for another source tree
        if not cache.is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", str(CMAKE_BUILD), "--target",
                      "hacc_perfbench", "-j", jobs])
        # Compiler temporaries stay inside the checkout too.
        tmp = BUILD / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        for cmd in steps:
            code, _, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=logf,
                                   stderr=subprocess.STDOUT, cwd=ROOT, env=env)
            if code != 0:
                raise BenchError(f"build failed ({' '.join(cmd)}); see {build_log}")
    if not EXE.is_file():
        raise BenchError(f"build produced no {EXE}")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """sha256 over the program and benchmark sources (path and content)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", BENCH_DIR.name):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    files.append(ROOT / "CMakeLists.txt")
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        code, out, _ = run_child(["git", "rev-parse", "HEAD"], 30,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, cwd=ROOT, text=True)
    except (OSError, BenchError):
        return None
    return out.strip() if code == 0 else None


def reference(workload, seed):
    """Final state of ScenarioRunner::run at one thread for this seed,
    cached per driver binary."""
    cache = BUILD / "refs" / file_sha256(EXE)[:16] / f"{workload}-seed{seed}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    workdir = BUILD / "work" / f"ref-{os.getpid()}"
    code, out, err = run_child(
        [str(EXE), "reference", "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir)],
        REFERENCE_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT)
    remove_tree(workdir)
    if code != 0:
        raise BenchError(f"reference run failed: {err.strip()}")
    ref = json.loads(out.strip().splitlines()[-1])
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(ref))
    return ref


def remove_tree(path):
    if not path.exists():
        return
    for p in sorted(path.rglob("*"), reverse=True):
        p.rmdir() if p.is_dir() else p.unlink()
    path.rmdir()


def measure(workload, seed, seconds, trace):
    workdir = BUILD / "work" / f"run-{os.getpid()}"
    out = BUILD / "work" / f"run-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        code, _, err = run_child(
            [str(EXE), "run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--workdir", str(workdir), "--out", str(out)],
            seconds + RUN_GRACE_S, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, cwd=ROOT)
        if code != 0:
            raise BenchError(f"driver failed: {err.strip()}")
        return json.loads(out.read_text())
    finally:
        remove_tree(workdir)
        if out.exists():
            out.unlink()


def rel_close(value, ref):
    return abs(value - ref) <= REL_TOL * max(abs(ref), 1e-300)


def check_rep(rep, ref):
    """Every failed check of one repetition, by name."""
    failed = [name for name, ok in sorted(rep["checks"].items()) if not ok]
    fin = rep["final"]
    if fin["steps"] != ref["steps"]:
        failed.append("steps_vs_reference")
    if not rel_close(fin["kinetic_energy"], ref["kinetic_energy"]):
        failed.append("kinetic_energy_vs_reference")
    if not rel_close(fin["thermal_energy"], ref["thermal_energy"]):
        failed.append("thermal_energy_vs_reference")
    if [h["n_halos"] for h in rep["halos"]] != ref["halos"]:
        failed.append("halo_count_vs_reference")
    if len(rep["checkpoints"]) != ref["checkpoints"]:
        failed.append("checkpoint_count_vs_reference")
    if ref["hit_max_steps"] or ref["checkpoint_failures"]:
        failed.append("reference_run_incomplete")
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def samples(result):
    """Per-repetition end-to-end samples (set-up also from extra set-ups)."""
    reps = result["reps"]
    return {
        "particle_steps_per_s": [
            r["particles"] * len(r["step_wall_s"]) / sum(r["step_wall_s"])
            for r in reps],
        "time_to_solution_s": [r["solution_s"] for r in reps],
        "setup_s": result["extra_setup_s"] + [r["setup_s"] for r in reps],
    }


def end_to_end(result):
    s = samples(result)
    return {
        "particle_steps_per_s": metric(benchstats.median(s["particle_steps_per_s"]), "1/s"),
        "time_to_solution_s": metric(benchstats.median(s["time_to_solution_s"]), "s"),
        "setup_s": metric(benchstats.median(s["setup_s"]), "s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(result):
    spans = result["spans"]
    selfs = benchstats.self_times(spans)
    by_name = {}
    for s, self_s in zip(spans, selfs):
        by_name.setdefault(s[0], []).append((s, self_s))
    counters = {}
    for name, value, _run in result["counters"]:
        counters.setdefault(name, []).append(value)

    def self_med(name):
        v = [x for _, x in by_name.get(name, [])]
        return benchstats.median(v) if v else 0.0

    def dur_med(name):
        v = [s[2] - s[1] for s, _ in by_name.get(name, [])]
        return benchstats.median(v) if v else 0.0

    def count(name):
        v = counters.get(name, [])
        return benchstats.median(v) if v else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    reps = result["reps"]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    m = {}
    m["core.step_s_p50"] = metric(dur_med("core.step"), "s")
    for key, field in (("sched.pm_s", "sched_pm_s"),
                       ("sched.short_range_s", "sched_short_range_s"),
                       ("sched.overlap_s", "sched_overlap_s")):
        m[key] = metric(benchstats.median([v for r in reps for v in r[field]]), "s")

    sph_s = 0.0
    for k in SPH_KERNELS:
        t = self_med(f"sph.{k}")
        sph_s += t
        m[f"sph.{k}_s"] = metric(t, "s")
    tested, useful = count("sph.pairs_tested"), count("sph.pairs_useful")
    m["sph.pairs_tested"] = metric(tested, "count")
    m["sph.pairs_useful"] = metric(useful, "count")
    m["sph.useful_ratio"] = metric(ratio(useful, tested), "ratio")
    # Each of the five kernels walks the same pairs.
    m["sph.useful_pairs_per_s"] = metric(
        ratio(useful * len(SPH_KERNELS), sph_s), "1/s")

    pp_s = self_med("gravity.pp")
    tested, useful = count("gravity.pp_pairs_tested"), count("gravity.pp_pairs_useful")
    m["gravity.pp_s"] = metric(pp_s, "s")
    m["gravity.pp_pairs_tested"] = metric(tested, "count")
    m["gravity.pp_pairs_useful"] = metric(useful, "count")
    m["gravity.pp_useful_ratio"] = metric(ratio(useful, tested), "ratio")
    m["gravity.pp_useful_pairs_per_s"] = metric(ratio(useful, pp_s), "1/s")
    m["gravity.pp_force_rel_rms"] = metric(count("gravity.pp_force_rel_rms"), "ratio")

    m["gravity.pm_s"] = metric(self_med("gravity.pm"), "s")
    m["mesh.cic_deposit_s"] = metric(self_med("mesh.cic_deposit"), "s")
    m["fft.r2c_s"] = metric(self_med("fft.r2c"), "s")
    m["fft.c2r_s"] = metric(self_med("fft.c2r"), "s")
    m["fft.bytes_computed"] = metric(count("fft.bytes_computed"), "B")

    m["domain.rebuild_s"] = metric(self_med("domain.rebuild"), "s")
    m["domain.leaves"] = metric(count("domain.leaves"), "count")
    m["domain.leaf_pairs"] = metric(count("domain.leaf_pairs"), "count")

    m["fmm.build_s"] = metric(self_med("fmm.build"), "s")
    m["fmm.far_s"] = metric(self_med("fmm.far"), "s")
    m["fmm.m2p"] = metric(count("fmm.m2p"), "count")

    write_s = dur_med("io.ckpt_write")
    ckpt_bytes = [c["bytes"] for r in traced for c in r["checkpoints"]]
    ckpt_bytes = benchstats.median(ckpt_bytes) if ckpt_bytes else 0.0
    m["io.ckpt_write_s"] = metric(write_s, "s")
    m["io.ckpt_validate_s"] = metric(dur_med("io.ckpt_validate"), "s")
    m["io.ckpt_read_s"] = metric(dur_med("io.ckpt_read"), "s")
    m["io.ckpt_bytes"] = metric(ckpt_bytes, "B")
    m["io.ckpt_write_mb_per_s"] = metric(ratio(ckpt_bytes / 1e6, write_s), "MB/s")

    m["halo.fof_s"] = metric(dur_med("halo.fof"), "s")
    finals = [r["halos"][-1]["n_halos"] for r in traced if r["halos"]]
    m["halo.count"] = metric(benchstats.median(finals) if finals else 0.0, "count")

    # Coverage: the probe's layer self times over the step it mirrors.
    steps = [s for s, _ in by_name.get("core.step", [])]
    probes = [(i, s) for i, s in enumerate(spans) if s[0] == "probe"]
    covered = [0.0] * len(spans)
    for s, self_s in zip(spans, selfs):
        if s[3] >= 0:
            covered[s[3]] += self_s
    coverage = [covered[i] / (st[2] - st[1]) for (i, _), st in zip(probes, steps)]
    m["trace.coverage"] = metric(
        benchstats.median(coverage) if coverage else 0.0, "ratio")
    walls_traced = [w for r in traced for w in r["step_wall_s"]]
    walls_plain = [w for r in untraced for w in r["step_wall_s"]]
    m["trace.overhead_s"] = metric(
        benchstats.median(walls_traced) - benchstats.median(walls_plain), "s")
    m["trace.spans_lost"] = metric(float(result["spans_lost"]), "count")
    return m


def timing_summary(result):
    """Median, tail percentile and sample count of the step wall."""
    walls = [w for r in result["reps"] for w in r["step_wall_s"]]
    tail = benchstats.tail_percentile(walls)
    return {"samples": len(walls), "median_s": benchstats.median(walls),
            "tail": None if tail is None else {"p": tail[0], "value_s": tail[1]}}


def cmd_run(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    if not 1 <= args.seconds <= 120:
        raise BenchError("--seconds must be between 1 and 120")
    build()
    ref = reference(args.workload, args.seed)
    result = measure(args.workload, args.seed, args.seconds, args.trace)

    failures = {}
    for rep in result["reps"]:
        bad = check_rep(rep, ref)
        if bad:
            failures[rep["rep"]] = bad
    attempted = len(result["reps"])
    metrics = per_layer(result) if args.trace else end_to_end(result)
    declared = [m["name"] for m in load_spec()["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(metrics))}")

    prov = dict(result["provenance"])
    prov["git_sha"] = git_sha()
    prov["source_sha256"] = source_digest()
    prov["seed"] = args.seed
    if prov["oversubscribed"]:
        prov["note"] = ("pool larger than the cores available: "
                        "no scaling claim may rest on this record")
    truncated = result["spans_lost"] > 0
    record = {
        "record_version": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "provenance": prov,
        "reference": ref,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "trace_truncated": truncated,
        "step_wall": timing_summary(result),
        "samples": samples(result),
        "metrics": metrics,
    }
    out_dir = Path(args.results_dir) if args.results_dir else BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-"
                      f"{time.time_ns()}.json")
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  pool {prov['pool']} of "
          f"{prov['nproc']} cores  {prov['cpu_model']}  ({prov['build_type']}, "
          f"{prov['compiler']})")
    for rep, bad in failures.items():
        print(f"FAILED repetition {rep}: {', '.join(bad)}")
    if truncated:
        print(f"TRACE TRUNCATED: {result['spans_lost']} spans lost")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps({"correct": not failures,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def load_records(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        try:
            rec = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and rec.get("record_version") == 1:
            records.append(rec)
    return records


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_compare(dir_a, dir_b):
    spec = load_spec()
    sides = [load_records(dir_a), load_records(dir_b)]
    if not sides[0] or not sides[1]:
        raise BenchError("compare needs benchmark records on both sides")
    print(f"A = {dir_a}\nB = {dir_b}")
    for wl in WORKLOADS:
        runs = [sorted((r for r in side if r["workload"] == wl and not r["trace"]
                        and r["failed"] == 0), key=lambda r: r["seed"])
                for side in sides]
        if not runs[0] or not runs[1]:
            continue
        print(f"\n{wl}: {len(runs[0])} runs A, {len(runs[1])} runs B")
        for m in spec["end_to_end"]:
            name = m["name"]
            # Pair runs by seed where both sides have it, then in seed order.
            a_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in runs[0]}
            b_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in runs[1]}
            common = sorted(set(a_by_seed) & set(b_by_seed))
            a = [a_by_seed[s] for s in common] + [a_by_seed[s] for s in sorted(a_by_seed) if s not in common]
            b = [b_by_seed[s] for s in common] + [b_by_seed[s] for s in sorted(b_by_seed) if s not in common]
            qa, qb = benchstats.quartiles(a), benchstats.quartiles(b)
            v = benchstats.verdict(a, b, m["better"], m["bound"])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            print(f"  {name:22s} A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                  f"B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {m['unit']}  "
                  f"{change:+.2%}  bound {m['bound']:.0%}  {v}")
    return 0


def cmd_self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR), pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite).wasSuccessful()
    build()
    workdir = BUILD / "work" / f"self-test-{os.getpid()}"
    code, out, err = run_child([str(EXE), "self-test", "--workdir", str(workdir)],
                               600, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, cwd=ROOT)
    remove_tree(workdir)
    print(out, end="")
    if err:
        log(err.strip())
    return 0 if ok and code == 0 else 1


def main(argv):
    # SIGTERM unwinds like Ctrl-C, so run_child stops the driver it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", help="where the run record goes "
                    "(default .bench_build/results)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.compare:
            return cmd_compare(*args.compare)
        if args.self_test:
            return cmd_self_test()
        if not args.workload:
            ap.error("--workload is required")
        return cmd_run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
