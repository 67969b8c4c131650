"""symext benchmark: run one workload through the CLI in fresh processes,
check every output, and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each CLI invocation is a new child
Python process (`bench/child.py`) with `--jobs 1`, because every symext
memo is module-global and a real user pays the cold cost on each run.

--trace 0 (default) measures the end-to-end metrics with tracing off:
rounds of a few set-up-only invocations and one full invocation, until
another round would pass --seconds (at least two rounds); each metric
is the median of its samples.

--trace 1 alternates an untraced and a traced full invocation and
reports the per-layer metrics taken from the traced one's spans, with
the tracing overhead beside them.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A record of
the run (samples, checks, git sha, Python version, nproc, /proc/loadavg
at start and end) is written under bench/.work/results/.  The exit status
is 0 when every output check passed, 1 when one failed, 2 on a usage or
set-up error (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import summarize
from workloads import DEFAULT_SEED, WORKLOADS, Workload, spec_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

SETUP_PROBES = 3        # set-up-only invocations per full one, untraced
MIN_FULL = 2            # full invocations per run, at least
RUN_LIMIT_S = 170.0     # every child is killed past this point of a run
DEFAULT_SECONDS = 45    # when BENCHMARK.json is absent

END_TO_END = {"wall_s": "s", "verdicts_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "forcing.forces.recursive.self_s": "s",
    "forcing.forces.recursive.calls": "count",
    "forcing.forces.semantic.self_s": "s",
    "forcing.forces.semantic.calls": "count",
    "core.generic_filters.self_s": "s",
    "core.generic_filters.yielded": "count",
    "names.interpret.self_s": "s",
    "names.interpret.calls": "count",
    "forcing.symmetry_lemma_check.self_s": "s",
    "forcing.symmetry_lemma_check.calls": "count",
    "forcing.act_formula.self_s": "s",
    "symmetry.act_condition.self_s": "s",
    "symmetry.act_condition.calls": "count",
    "kernels.swap_kernel.self_s": "s",
    "kernels.swap_kernel.calls": "count",
    "kernels.swap_kernel.pass_ratio": "ratio",
    "core.compatible.self_s": "s",
    "core.compatible.calls": "count",
    "symmetry.act_name.self_s": "s",
    "symmetry.act_name.calls": "count",
    "symmetry.act_name.fixed_ratio": "ratio",
    "symmetry.check_support.self_s": "s",
    "instances.canonical_family.calls": "count",
    "instances.in_stage.self_s": "s",
    "instances.in_stage.calls": "count",
    "names.name_cells.self_s": "s",
    "names.name_cells.calls": "count",
    "names.check_name.calls": "count",
    "kernels.wisc_kernel.self_s": "s",
    "kernels.wisc_kernel.calls": "count",
    "kernels.wisc_kernel.pass_ratio": "ratio",
    "symmetry.conjugation_check.self_s": "s",
    "symmetry.assemble_sequence.self_s": "s",
    "cli.self_s": "s",
    "cli.units": "count",
    "cli.stdout_bytes": "bytes",
    "cli.parse_s": "s",
    "instances.build_instance.s": "s",
    "instances.build_staged_instance.s": "s",
    "symmetry.is_hs.self_s": "s",
    "symmetry.infer_min_support.self_s": "s",
    "core.iter_conditions.self_s": "s",
    "core.iter_conditions.yielded": "count",
    "symmetry.generator_closure.self_s": "s",
    "names.make_name.calls": "count",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------
# one child process

def invoke(workload: Workload, spec_path: Path, seed: int, deadline: float,
           setup_only: bool = False, trace_out: Path | None = None) -> dict:
    """Spawn one child, wait for it, and return its timings and status.
    The child is killed if it is still running at `deadline`."""
    record_path = WORK / "record.json"
    stdout_path = WORK / "stdout.jsonl"
    stderr_path = WORK / "stderr.txt"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--record", str(record_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += workload.cli_args(str(spec_path), seed)
    # The child's Python settings are set here, not inherited: buffered
    # stdout and cached bytecode, as for an installed symext.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2 ** 32),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"status": proc.returncode, "wall_s": t1 - t0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "stdout_bytes": stdout_path.stat().st_size}
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
        sample["setup_s"] = record["setup_done"] - t0
    except (OSError, ValueError, KeyError):
        sample["setup_s"] = None
    if proc.returncode != 0 or sample["setup_s"] is None:
        sample["stderr_tail"] = stderr_path.read_text(errors="replace")[-2000:]
    if not setup_only:
        sample["check"] = check_output(stdout_path, workload, seed)
    return sample


# ------------------------------------------------------------------
# output check

def check_output(path: Path, workload: Workload, seed: int) -> dict:
    """Every line passes, each suite emits its pinned unit count in
    order, and the sha256 of stdout without the elapsed fields matches
    the pinned digest.  The chains suite logs the seed in its params; it
    is put back to the default seed before hashing, so the digest holds
    for every seed."""
    digest = hashlib.sha256()
    runs: list = []          # [suite, lines] in output order
    failing = malformed = 0
    with open(path, "rb") as fh:
        for line in fh:
            cut = line.rfind(b', "elapsed": ')
            if not line.startswith(b'{"suite": "') or cut < 0:
                malformed += 1
                continue
            body = line[:cut] + b"}\n"
            suite = line[11:line.index(b'"', 11)].decode()
            if not body.endswith(b', "verdict": "pass"}\n'):
                failing += 1
            if suite == "chains":
                obj = json.loads(body)
                if "seed" in obj["params"]:
                    if obj["params"]["seed"] != seed:
                        malformed += 1
                    obj["params"]["seed"] = DEFAULT_SEED
                body = json.dumps(obj).encode() + b"\n"
            digest.update(body)
            if runs and runs[-1][0] == suite:
                runs[-1][1] += 1
            else:
                runs.append([suite, 1])
    counts = [[suite, n] for suite, n in workload.counts.items()]
    problems = []
    if failing:
        problems.append(f"{failing} lines have a verdict other than pass")
    if malformed:
        problems.append(f"{malformed} lines are malformed or carry the wrong seed")
    if runs != counts:
        problems.append(f"suite unit counts {runs} != pinned {counts}")
    if digest.hexdigest() != workload.digest:
        problems.append(f"digest {digest.hexdigest()} != pinned {workload.digest}")
    return {"units": sum(n for _, n in runs), "digest": digest.hexdigest(),
            "problems": problems}


def sample_ok(sample: dict) -> bool:
    return (sample["status"] == 0 and sample["setup_s"] is not None
            and not sample.get("check", {}).get("problems"))


# ------------------------------------------------------------------
# measuring

def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure_untraced(workload, spec_path, seed, seconds, run_deadline):
    """Rounds of SETUP_PROBES set-up-only invocations and one full
    invocation, while another round fits in `seconds` (at least MIN_FULL
    rounds).  Interleaving keeps both kinds of sample under the same
    machine conditions."""
    def call(**kw):
        return invoke(workload, spec_path, seed, run_deadline, **kw)

    call(setup_only=True)        # warm the bytecode and file caches
    start = time.monotonic()
    probes, full, rounds = [], [], []
    while len(full) < MIN_FULL or (
            time.monotonic() + statistics.median(rounds) <= start + seconds):
        began = time.monotonic()
        probes += [call(setup_only=True) for _ in range(SETUP_PROBES)]
        full.append(call())
        rounds.append(time.monotonic() - began)
        if not all(sample_ok(s) for s in probes + full):
            break
    samples = probes + full
    stats = {}
    if all(sample_ok(s) for s in samples):
        rates = [s["check"]["units"] / (s["wall_s"] - s["setup_s"]) for s in full]
        stats = {"wall_s": quartiles([s["wall_s"] for s in full]),
                 "verdicts_per_s": quartiles(rates),
                 "setup_s": quartiles([s["setup_s"] for s in samples]),
                 "peak_rss_mb": quartiles([s["peak_rss_mb"] for s in full])}
    return samples, full, stats


def layer_metrics(summary: dict, stdout_bytes: int, overhead: float) -> dict:
    """Map a trace summary to the PER_LAYER metric names: `<span>.self_s`,
    `<span>.s` (total), `<span>.calls` (spans, or calls of a counted
    function), `<span>.yielded`, `<span>.pass_ratio` and
    `<span>.fixed_ratio` (spans whose outcome flag is set, per span)."""
    spans, counts = summary["spans"], summary["counts"]
    special = {"cli.parse_s": spans.get("cli.parse", {}).get("total_s", 0.0),
               "cli.units": summary["units"],
               "cli.stdout_bytes": stdout_bytes,
               "trace.overhead_ratio": overhead}
    out = {}
    for metric in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
            continue
        name, field = metric.rsplit(".", 1)
        row = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flagged": 0})
        if field == "calls" and name in counts:
            out[metric] = counts[name]
        elif field in ("calls", "self_s"):
            out[metric] = row[field]
        elif field == "s":
            out[metric] = row["total_s"]
        elif field == "yielded":
            out[metric] = row["flagged"]
        else:   # pass_ratio, fixed_ratio
            out[metric] = row["flagged"] / row["calls"] if row["calls"] else 0.0
    return out


def measure_traced(workload, spec_path, seed, seconds, run_deadline):
    """Rounds of one untraced and one traced full invocation, while
    another round fits in `seconds` (at least one round)."""
    trace_path = WORK / f"trace-{workload.name}.spans"
    invoke(workload, spec_path, seed, run_deadline, setup_only=True)
    start = time.monotonic()
    samples, layers, rounds = [], [], []
    while not rounds or time.monotonic() + statistics.median(rounds) <= start + seconds:
        began = time.monotonic()
        plain = invoke(workload, spec_path, seed, run_deadline)
        traced = invoke(workload, spec_path, seed, run_deadline, trace_out=trace_path)
        rounds.append(time.monotonic() - began)
        samples += [plain, traced]
        if not (sample_ok(plain) and sample_ok(traced)):
            break
        overhead = traced["wall_s"] / plain["wall_s"] - 1.0
        layers.append(layer_metrics(summarize(str(trace_path)),
                                    traced["stdout_bytes"], overhead))
    stats = {}
    if all(sample_ok(s) for s in samples):
        stats = {m: quartiles([l[m] for l in layers]) for m in PER_LAYER}
    return samples, samples, stats


# ------------------------------------------------------------------
# run record

def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def check_config() -> int:
    """Cross-check BENCHMARK.json, when present, against the metric and
    workload names this file produces; return its run_seconds."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return DEFAULT_SECONDS
    config = json.loads(path.read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in config["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in config["per_layer"]}
    if listed != END_TO_END or layered != PER_LAYER:
        raise SetupError("BENCHMARK.json metrics differ from bench/run.py")
    if not {w["name"] for w in config["workloads"]} <= set(WORKLOADS):
        raise SetupError("BENCHMARK.json names a workload bench/workloads.py lacks")
    return config["run_seconds"]


def prepare(workload: Workload) -> Path:
    if not (ROOT / "src" / "symext" / "cli.py").is_file():
        raise SetupError(f"no symext sources under {ROOT / 'src'}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    if workload.spec_file is not None:
        return ROOT / workload.spec_file
    path = WORK / f"{workload.name}.json"
    path.write_text(spec_text(workload), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        seconds = check_config()
        spec_path = prepare(workload)
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.seconds is not None:
        seconds = args.seconds

    started = time.monotonic()
    record = {"workload": workload.name, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "git_sha": git_sha(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_start": loadavg()}
    measure = measure_traced if args.trace else measure_untraced
    samples, full, stats = measure(workload, spec_path, args.seed, seconds,
                                   started + RUN_LIMIT_S)
    record["loadavg_end"] = loadavg()
    record["elapsed_s"] = time.monotonic() - started
    record["bench_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = workload.units * len(full)
    failed = sum(workload.units for s in full if not sample_ok(s))
    correct = bool(stats) and failed == 0 and all(sample_ok(s) for s in samples)
    if not correct and failed == 0:
        failed = attempted
    record.update(samples=samples, stats=stats, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, correct=correct)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = WORK / "results" / f"{stamp}-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    units = END_TO_END if args.trace == 0 else PER_LAYER
    for s in samples:
        for problem in s.get("check", {}).get("problems", []):
            print(f"check failed: {problem}")
        if s["status"] != 0:
            print(f"child exited {s['status']}: {s.get('stderr_tail', '')}")
    print(f"workload {workload.name}: seed {args.seed}, {len(full)} checked runs, "
          f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} units)")
    for name, st in stats.items():
        print(f"{name}: median {st['median']:.6g} {units[name]} "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})")
    print(f"record: {out.relative_to(ROOT)}")
    metrics = {name: {"value": st["median"], "unit": units[name]}
               for name, st in stats.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
