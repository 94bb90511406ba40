"""Benchmark of the barbellw3 certificate checker.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-serial --seed 1 --seconds 50 --trace 0

With `--trace 0` the benchmark launches `python -m barbellw3 verify all
... --workers 1 --format json` from the checkout's `src`, one process at
a time, until `--seconds` have passed, and reports the median wall time,
CPU time and peak resident memory of a run, plus the median start-up
cost of a small `verify psi` launch.
With `--trace 1` it runs `verify_all` in this process instead, untraced
at one worker and at every CPU of the affinity set, then traced at one
worker, and reports the per-layer metrics of BENCHMARK.json.  Every
report passes the gate in gate.py.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Details,
including the trace's spans, go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from gate import PLANTED, gate, negative_control
from tracer import CHUNKS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Why each workload exists is in README.md.  The sweep bounds are
# smaller than the README's (3, 3) so that a run holds over ten
# repetitions, whose median is steadier than one long launch.
WORKLOADS = {
    "sweep-serial": {"kmax": 10, "max_syllables": 2, "max_exponent": 3, "trials": 2000},
    "structural-deep-k": {"kmax": 100, "max_syllables": 1, "max_exponent": 1, "trials": 0},
}
SETUP_ARGS = ("verify", "psi", "--kmax", "1", "--format", "json")


def affinity_workers() -> int:
    # The CLI's default, os.cpu_count(), can exceed the CPUs this
    # process may run on, so the worker count is always passed.
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpus": affinity_workers(), "cpu_model": model,
            "python": sys.version.split()[0]}


def verify_args(p: dict, workers: int) -> list[str]:
    return ["verify", "all", "--kmax", str(p["kmax"]),
            "--max-syllables", str(p["max_syllables"]),
            "--max-exponent", str(p["max_exponent"]), "--trials", str(p["trials"]),
            "--seed", str(p["seed"]), "--workers", str(workers), "--format", "json"]


# ---------------------------------------------------------------------------
# End to end: the CLI as a user runs it.

@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


# A child's peak RSS counts the memory of the process it was forked
# from, so the CLI is forked by this small interpreter, not by the
# benchmark, which reports the CLI's exit code, wall time, CPU time and
# peak RSS (its own and its reaped pool workers') through a pipe.  The
# CLI is pinned to the CPUs given as the second argument.
_LAUNCHER = """
import os, sys, time
started = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.close(int(sys.argv[1]))
    os.sched_setaffinity(0, map(int, sys.argv[2].split(",")))
    os.execv(sys.argv[3], sys.argv[3:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - started
os.write(int(sys.argv[1]), f"{os.waitstatus_to_exitcode(status)} {wall} "
         f"{usage.ru_utime + usage.ru_stime} {usage.ru_maxrss}".encode())
"""


def launch(args, cpus) -> Launch:
    """Run the CLI once on `cpus`, with bytecode caching on whatever the caller's setting."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err, \
            os.fdopen(read_end, "rb") as result:
        try:
            process = subprocess.Popen(
                [sys.executable, "-S", "-c", _LAUNCHER, str(write_end),
                 ",".join(map(str, cpus)), sys.executable, "-m", "barbellw3", *args],
                cwd=ROOT, env=env, stdout=out, stderr=err, pass_fds=(write_end,),
                start_new_session=True)
        finally:
            os.close(write_end)
        try:
            process.wait()
        except BaseException:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        code, wall, cpu, rss_kb = result.read().split()
        out.seek(0)
        err.seek(0)
        return Launch(float(wall), float(cpu), int(rss_kb) / 1024, int(code),
                      out.read(), err.read())


def setup_problems(run: Launch) -> list[str]:
    if run.returncode != 0:
        return [f"setup: exit code {run.returncode}: {run.stderr.decode()[-300:]}"]
    try:
        passed = json.loads(run.stdout).get("overall") == "pass"
    except ValueError:
        passed = False
    return [] if passed else ["setup: verify psi did not report a pass"]


def end_to_end(p: dict, seconds: float) -> tuple[dict, dict, list[str]]:
    cpus = sorted(os.sched_getaffinity(0))
    problems = setup_problems(launch(SETUP_ARGS, cpus))  # also fills __pycache__
    # The reference report is made with one worker per CPU: every timed
    # one-worker report must equal it byte for byte.
    reference = launch(verify_args(p, len(cpus)), cpus)
    runs = [reference]
    failed = [gate(reference.returncode, reference.stdout, reference.stdout, p)]
    problems += negative_control_problems(reference.stdout, p)
    setups, timed = [], []
    started = perf_counter()
    # Start-up launches are interleaved with the timed runs so that both
    # medians sample the same stretch of machine noise.  Each launch is
    # pinned to each CPU in turn: on a shared host one CPU can be slow
    # for minutes while another is not, and an unpinned process tends to
    # stay where its parent ran.
    while perf_counter() - started < seconds or not timed:
        pinned = [cpus[len(timed) % len(cpus)]]
        setup = launch(SETUP_ARGS, pinned)
        problems += setup_problems(setup)
        setups.append(setup.wall_s)
        run = launch(verify_args(p, 1), pinned)
        timed.append(run)
        runs.append(run)
        failed.append(gate(run.returncode, run.stdout, reference.stdout, p))
    problems += [problem for run_problems in failed for problem in run_problems]
    metrics = {
        "wall_s": statistics.median(run.wall_s for run in timed),
        "cpu_s": statistics.median(run.cpu_s for run in timed),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in timed),
        "setup_s": statistics.median(setups),
    }
    detail = {
        "attempted": len(runs),
        "failed": sum(1 for run_problems in failed if run_problems),
        "samples": {
            "wall_s": [run.wall_s for run in timed],
            "cpu_s": [run.cpu_s for run in timed],
            "peak_rss_mb": [run.peak_rss_mb for run in timed],
            "setup_s": setups,
        },
        "report_bytes": len(reference.stdout),
        "report_sha256": hashlib.sha256(reference.stdout).hexdigest(),
    }
    return metrics, detail, problems


def negative_control_problems(report: bytes, p: dict) -> list[str]:
    unflagged = negative_control(report, p)
    print(f"gate negative control: {len(PLANTED) - len(unflagged)}/{len(PLANTED)} "
          "planted defects flagged")
    return [f"control: the gate did not flag a planted {kind} defect" for kind in unflagged]


# ---------------------------------------------------------------------------
# Per layer: verify_all in this process, traced from outside the package.

WORD_LAYER = ("words.rename", "words.invert", "words.concat_words", "words._merge_runs",
              "words.bounded_words")
BARBELL_LAYER = ("barbell.hexagon", "barbell._pair_pieces", "barbell._t_poly_coeffs",
                 "barbell.t_poly", "barbell.w3_target")
CHECKS = ("hexagon_exhaustive", "hexagon_random", "span_generators", "solution_table",
          "hexagon_cases", "rank", "target_expansions_agree", "psi_targets")
# Values that depend only on the workload: they must repeat exactly.
EXACT = re.compile(r"\.(calls|pairs|solutions|columns|report_bytes|repeat_ratio"
                   r"|span_enumeration_ratio)$")


def check_seconds(reports) -> dict[str, float]:
    seconds = dict.fromkeys(CHECKS, 0.0)
    for report in reports:
        for check in report.checks:
            base = re.sub(r"(_k\d+|_d[12])+$", "", check.name)
            base = "psi_targets" if base == "psi_target" else base
            if base in seconds:
                seconds[base] += check.elapsed_ms / 1000
    return seconds


def counted(reports, check: str, field: int) -> int:
    """Sum of the count at word `field` of a check's details, over all suites."""
    return sum(int(c.details.split()[field]) for r in reports for c in r.checks
               if c.name == check)


def max_over_median(durations: list[float]) -> float:
    return max(durations) / statistics.median(durations)


def traced_iteration(package, p, n_workers):
    """One untraced run at one worker, one at n_workers, one traced at one worker."""
    verify, emit = package["verify"], package["cli"].emit
    kwargs = {"kmax": p["kmax"], "max_syllables": p["max_syllables"],
              "max_exponent": p["max_exponent"], "random_trials": p["trials"],
              "seed": p["seed"]}

    def timed(n, tracer=None):
        started = perf_counter()
        try:
            reports = verify.verify_all(**kwargs, workers=n)
        finally:
            if tracer is not None:
                tracer.remove()
        return reports, perf_counter() - started

    # Only the chunk functions are wrapped here: 32 calls per sweep, so
    # the run stays untraced for practical purposes.
    chunks = Tracer(package).install(CHUNKS)
    one, one_wall = timed(1, chunks)
    many, _ = timed(n_workers)
    tracer = Tracer(package).install()
    traced, traced_wall = timed(1, tracer)
    started = perf_counter()
    text = emit(one, "json")
    emit_s = perf_counter() - started
    reports = {"one": text.encode(), "many": emit(many, "json").encode(),
               "traced": emit(traced, "json").encode()}

    seconds, many_seconds = check_seconds(one), check_seconds(many)
    m = {}
    for name in WORD_LAYER + BARBELL_LAYER + ("patterns.eval_pattern", "ring.RingElement",
                                              "solver.solve"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    m["ring.Functional.evaluate.calls"] = tracer.calls("ring.Functional.evaluate")
    m["ring.rank.self_s"] = tracer.self_s("ring.rank")
    m["ring.rank.columns"] = tracer.counters["ring.rank.columns"]
    m["ring.matrix_rank_exact.self_s"] = tracer.self_s("ring.matrix_rank_exact")
    m["barbell.enumerate_admissible.pairs"] = (
        tracer.counters["barbell.enumerate_admissible.pairs"])
    m["barbell.enumerate_admissible.self_s"] = tracer.self_s("barbell.enumerate_admissible")
    m["solver.solve.solutions"] = tracer.counters["solver.solve.solutions"]
    m["solver.fallback.calls"] = tracer.calls("solver.fallback")
    m["solver.compare_with_reference.total_s"] = tracer.total_s("solver.compare_with_reference")
    m["solver.hexagon_case_analysis.total_s"] = tracer.total_s("solver.hexagon_case_analysis")
    for check in CHECKS:
        m[f"verify.{check}.s"] = seconds[check]
    m["verify.hexagon_pairs_per_s"] = (
        counted(one, "hexagon_exhaustive", 0) / seconds["hexagon_exhaustive"])
    m["verify.span_generators_per_s"] = (
        counted(one, "span_generators", 3) / seconds["span_generators"])

    sweeps = [(name, task, items) for name, task, items in tracer.chunk_tasks
              if name != "verify._hexagon_random_chunk"]
    distinct = {(name, task): items for name, task, items in sweeps}
    m["verify.repeat_ratio"] = sum(items for *_, items in sweeps) / sum(distinct.values())
    span_tasks = [task for name, task, _ in sweeps if name == "verify._span_chunk"]
    checked = sum(stop - start for *_, start, stop in span_tasks)
    enumerated = m["barbell.enumerate_admissible.pairs"]
    m["verify.span_enumeration_ratio"] = enumerated / checked
    problems = []
    if enumerated != sum(stop for *_, stop in span_tasks):  # islice skips `start` pairs
        problems.append(f"trace: {enumerated} admissible pairs yielded, chunk ranges "
                        f"imply {sum(stop for *_, stop in span_tasks)}")
    for sweep, chunk in (("hexagon_exhaustive", "_hexagon_chunk"),
                         ("span_generators", "_span_chunk")):
        m[f"verify.{sweep}.chunk.max_over_median"] = max_over_median(
            chunks.span_durations(f"verify.{chunk}"))
        m[f"verify.{sweep}.speedup"] = seconds[sweep] / many_seconds[sweep]
    m["cli.emit.s"] = emit_s
    m["cli.report_bytes"] = len(reports["one"])
    m["trace.overhead_s"] = traced_wall - one_wall
    m["trace.overhead_share"] = (traced_wall - one_wall) / one_wall
    shares = {  # what each workload exercises
        "sweeps": (seconds["hexagon_exhaustive"] + seconds["span_generators"]
                   + seconds["hexagon_random"]) / one_wall,
        "rank_solver": (seconds["rank"] + seconds["solution_table"]
                        + seconds["hexagon_cases"]) / one_wall,
    }
    return m, reports, problems, shares, tracer


def traced_runs(p: dict, seconds: float):
    sys.path.insert(0, str(SRC))
    import barbellw3
    from barbellw3 import barbell, cli, patterns, ring, solver, verify, words

    if Path(barbellw3.__file__).resolve().parent != SRC / "barbellw3":
        raise SystemExit(f"error: imported barbellw3 from {barbellw3.__file__}, not {SRC}")
    package = {"barbellw3": barbellw3, "words": words, "patterns": patterns, "ring": ring,
               "barbell": barbell, "solver": solver, "verify": verify, "cli": cli}
    n_workers = affinity_workers()
    iterations, problems, attempted, failed = [], [], 0, 0
    reference = None
    started = perf_counter()
    while perf_counter() - started < seconds or not iterations:
        m, reports, trace_problems, shares, tracer = traced_iteration(
            package, p, n_workers)
        reference = reference or reports["one"]
        if not iterations:
            problems += negative_control_problems(reference, p)
        for data in reports.values():
            attempted += 1
            run_problems = gate(0, data, reference, p)
            failed += bool(run_problems)
            problems += run_problems
        problems += trace_problems
        iterations.append((m, shares))
    first = iterations[0][0]
    for m, _ in iterations[1:]:
        changed = [name for name in m if EXACT.search(name) and m[name] != first[name]]
        if changed:
            problems.append(f"trace: counts changed between repetitions: {changed}")
    metrics = {name: first[name] if EXACT.search(name)
               else statistics.median(m[name] for m, _ in iterations) for name in first}
    shares = {name: statistics.median(s[name] for _, s in iterations)
              for name in iterations[0][1]}
    detail = {"attempted": attempted, "failed": failed, "iterations": len(iterations),
              "share_of_untraced_wall": shares, "last_trace": tracer.to_json_dict()}
    return metrics, detail, problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "barbellw3" / "__main__.py").is_file():
        print(f"error: no barbellw3 sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    p = {**WORKLOADS[args.workload], "seed": args.seed}
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: barbellw3 {' '.join(verify_args(p, 1))}")
    run = traced_runs if args.trace else end_to_end
    metrics, detail, problems = run(p, args.seconds)
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured {sorted(set(metrics) ^ set(units))} "
                         "differently from BENCHMARK.json")

    for problem in problems[:20]:
        print("FAILED " + problem)
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"failed_share {detail['failed'] / detail['attempted']:.6g} 1 "
              f"({detail['failed']} of {detail['attempted']} runs), "
              f"{len(detail['samples']['wall_s'])} timed runs, "
              f"wall_s max {max(detail['samples']['wall_s']):.4g} s")
    else:
        for name, share in detail["share_of_untraced_wall"].items():
            print(f"share of untraced wall: {name} {share:.3f}")
    result = {
        "correct": not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    record = {"workload": args.workload, "parameters": p,
              "environment": env, "problems": problems, "result": result, **detail}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
