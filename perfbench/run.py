#!/usr/bin/env python3
"""Runs one workload of the VN2 benchmark and prints its metrics.

    python3 perfbench/run.py --workload citysee-train --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --quick        # every workload, tiny inputs, all checks

Run from the repository root (or any checkout of it). The first run builds
perfbench/vn2_perfbench into .bench_build/ with CMake. A run then

  1. sets up: runs `vn2_perfbench prepare` once for the flows' inputs;
  2. measures: runs one untimed warm-up flow that also runs the
     workload's independent checks, then fresh `vn2_perfbench flow`
     processes, one after the other, until the timed flows have taken
     --seconds (at least MIN_FLOWS). Every flow's outputs must be
     identical to the warm-up's. run_s, cpu_s and peak_rss_mb are medians
     over the timed flows. With --trace 1, traced and untraced flows
     alternate and the per-layer figures are medians over the traced
     flows. Between timed flows, spread evenly over the window, the
     set-up runs SETUP_REPEATS - 1 more times into a directory of its
     own; every repeat's outputs must equal the first's, and setup_s is
     the median wall time of all repeats;
  3. prints a report and, as its last line, one JSON object with the keys
     correct, attempted, failed and metrics.

A flow is one operation, plus one for each entry of its "operations"
(invariants it runs on inputs --seed does not change). A flow fails when
its process fails, when one of its checks does not hold, or when its
outputs equal those of a flow whose checks failed. See perfbench/README.md
for workloads and metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "vn2_perfbench"
WORKLOADS = ("citysee-simulate", "citysee-train", "citysee-diagnose")
SETUP_REPEATS = 5
MIN_FLOWS = 3          # per kind of flow, however short --seconds is
DEADLINE_S = 170.0     # the whole run ends well inside 180 s
CPUS = sorted(os.sched_getaffinity(0))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(kind):
    """(name, unit) of the "end_to_end" or "per_layer" metrics."""
    return [(m["name"], m["unit"]) for m in spec()[kind]]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no VN2 sources under {ROOT}/src to build")
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "vn2_perfbench", "--parallel", "4"],
                   check=True, stdout=sys.stderr, env=env)


def git_sha():
    """HEAD of the checkout when it is a git work tree; read directly so
    nothing outside the checkout is consulted."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# How many processes of each command (prepare, flow) have started.
started = collections.Counter()


def vn2(args, deadline):
    """Runs vn2_perfbench; returns (wall seconds, parsed last line or None).

    A child starts on its parent's CPU and its serial work stays there, so
    every flow of a run would measure the one CPU this script sits on.
    Each process of a command starts on the next CPU in turn instead (this
    script moves there for the fork); the child may then use every CPU.
    """
    os.sched_setaffinity(0, {CPUS[started[args[0]] % len(CPUS)]})
    started[args[0]] += 1
    timeout = max(1.0, deadline - time.monotonic())
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [str(BINARY), *args], capture_output=True, text=True,
            timeout=timeout, preexec_fn=lambda: os.sched_setaffinity(0, CPUS))
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(args))
        return time.monotonic() - start, None
    finally:
        os.sched_setaffinity(0, CPUS)
    wall = time.monotonic() - start
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"vn2_perfbench {' '.join(args)} exited {proc.returncode}")
        return wall, None
    return wall, json.loads(lines[-1])


def digest_files(directory):
    digests = {}
    for path in sorted(directory.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_workload(workload, seed, seconds, trace, quick, deadline):
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(workload, seed, quick, work, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, seed, quick, work, seconds, trace, deadline):
    def args(directory):
        return [workload, "--seed", str(seed), "--dir", str(directory),
                *(["--quick"] if quick else [])]

    correct = True
    setups, prepared = [], None

    def setup():
        """One set-up into a fresh directory; the first is the flows'."""
        nonlocal correct, prepared
        directory = work / ("flows" if not setups else "setup")
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        wall, out = vn2(["prepare", *args(directory)], deadline)
        if out is None:
            raise RuntimeError(f"set-up of {workload} failed")
        setups.append(wall)
        files = digest_files(directory)
        if prepared is not None and files != prepared:
            log("set-up is not deterministic: outputs differ between repeats")
            correct = False
        prepared = files
        if setups[1:]:
            shutil.rmtree(directory)

    setup()
    common = args(work / "flows")
    repeats = 1 if trace else SETUP_REPEATS

    # The first flow runs the checks and warms the host up after the
    # set-up's writes; it is not timed. With --trace 1 the first traced
    # flow runs the checks too (it measures parallel.diagnose_speedup).
    # Flows are deterministic, so a flow whose outputs equal those of a
    # flow that failed its checks fails too: a broken program fails every
    # operation of a run, whatever its length.
    flows = {"warm-up": [], False: [], True: []}
    attempted = failed = 0
    first_digest, bad_digests = None, set()

    def flow(traced, check):
        nonlocal attempted, failed, first_digest, correct
        command = ["flow", *common]
        if traced:
            command.append("--trace")
        if check:
            command.append("--check")
        attempted += 1
        wall, out = vn2(command, deadline)
        if out is None:
            failed += 1
            return None, wall
        operations = out["operations"].values()
        attempted += len(operations)
        failed += sum(1 for ok in operations if not ok)
        if out["checks_failed"] > 0:
            bad_digests.add(out["digest"])
        if first_digest is None:
            first_digest = out["digest"]
        elif out["digest"] != first_digest:
            log("flow outputs differ between flows of one run")
            correct = False
        if out["digest"] in bad_digests:
            failed += 1
        return out, wall

    warmup, _ = flow(False, True)
    if warmup:
        flows["warm-up"].append(warmup)
    kinds = [True, False] if trace else [False]
    window = 0.0  # wall time of the timed flows so far
    while time.monotonic() < deadline - 5.0:
        enough = all(len(flows[k]) >= MIN_FLOWS for k in kinds)
        if enough and window >= seconds and len(setups) >= repeats:
            break
        traced = kinds[sum(map(len, (flows[k] for k in kinds))) % len(kinds)]
        out, wall = flow(traced, traced and not flows[True])
        window += wall
        if out is not None:
            flows[traced].append(out)
        if len(setups) < repeats and window >= len(setups) * seconds / repeats:
            setup()
    if not flows[False] or (trace and not flows[True]):
        raise RuntimeError(f"no {workload} flow completed")
    if len(setups) < repeats:
        raise RuntimeError(f"only {len(setups)} set-ups of {workload} ran")
    return correct, attempted, failed, setups, flows


def median(values):
    return statistics.median(values) if values else 0.0


def metrics_of(trace, setups, flows):
    if not trace:
        plain = flows[False]
        return {name: {"value": median(setups if name == "setup_s"
                                       else [f[name] for f in plain]),
                       "unit": unit}
                for name, unit in metric_names("end_to_end")}
    traced = flows[True]
    out = {}
    for name, unit in metric_names("per_layer"):
        values = [f["layers"][name] for f in traced if name in f["layers"]]
        out[name] = {"value": median(values), "unit": unit}
    untraced_run = median([f["run_s"] for f in flows[False]])
    traced_run = median([f["run_s"] for f in traced])
    out["telemetry.overhead_pct"] = {
        "value": 100.0 * (traced_run / untraced_run - 1.0), "unit": "%"}
    return out


def environment():
    _, env = vn2(["env"], time.monotonic() + 30.0)
    env = env or {}
    env["nproc"] = len(os.sched_getaffinity(0))
    env["git_sha"] = git_sha()
    return env


def report(workload, seed, env, setups, flows, metrics, attempted, failed):
    log(f"== {workload} seed {seed}")
    log("environment:", json.dumps(env, sort_keys=True))
    log(f"set-up runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    labels = {"warm-up": "warm-up flow", False: "flow", True: "traced flow"}
    for kind, runs in flows.items():
        for f in runs:
            log(f"{labels[kind]}: run_s {f['run_s']:.3f} "
                f"cpu_s {f['cpu_s']:.3f} peak_rss_mb {f['peak_rss_mb']:.1f} "
                f"checks {json.dumps(f['checks'])} "
                f"operations {json.dumps(f['operations'])}")
    first = next((f for runs in flows.values() for f in runs), {})
    log(f"thread budget: {first.get('threads')}")
    log("workload:", json.dumps(first.get("report", {}), sort_keys=True))
    log(f"operations: {attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def self_test():
    """Every workload at the quick size with every check; exit 0 if all hold."""
    ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        correct, attempted, failed, _, flows = run_workload(
            workload, 1, 0, True, True, deadline)
        traced = flows[True][0]["layers"]
        missing = [n for n, _ in metric_names("per_layer")
                   if n not in traced and n not in
                   ("telemetry.overhead_pct", "parallel.diagnose_speedup")]
        good = correct and failed == 0 and not missing
        print(f"{workload}: {attempted} operations, {failed} failed, "
              f"{'ok' if good else 'FAILED'}"
              f"{' (missing ' + ', '.join(missing) + ')' if missing else ''}")
        ok = ok and good
    return 0 if ok else 1


def main():
    # A terminated run still stops its vn2_perfbench child (subprocess.run
    # kills and waits on any exception) and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs; without --workload, self-test "
                             "every workload")
    args = parser.parse_args()
    try:
        build()
        deadline = time.monotonic() + DEADLINE_S
        if args.workload is None:
            if not args.quick:
                parser.error("--workload is required (or --quick)")
            return self_test()
        env = environment()
        correct, attempted, failed, setups, flows = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.quick, deadline)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"run.py: {error}")
        return 1
    metrics = metrics_of(bool(args.trace), setups, flows)
    report(args.workload, args.seed, env, setups, flows, metrics, attempted,
           failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
