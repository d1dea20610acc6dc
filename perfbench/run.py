#!/usr/bin/env python3
"""Build and run one benchmark run, or the toy-size self-test.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark program (perfbench/flmbench.ml)
is built from source with dune into .bench_build/, then run once.  Its
output is passed through; before its last line (the JSON result) this
script adds one "# env:" line recording the machine and the run's
conditions.  Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "flmbench.exe")
RUN_TIMEOUT_S = 170


def load_spec():
    """BENCHMARK.json: the one list of workloads, metrics and units."""
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "./perfbench/flmbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.isfile(EXE)


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_ticks():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def fs_type(path):
    """Filesystem type of the mount holding path (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, right.split()[0]
    return kind


def commit():
    """The git commit when run in a clone; else a digest of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and lines[0] == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for root in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    p = os.path.join(dirpath, name)
                    digest.update(p.encode())
                    with open(p, "rb") as f:
                        digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, toy=False):
    """Run the built program once; returns (lines, result) or None."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)] + (["--toy"] if toy else [])
    # The serve workloads run pinned to one CPU, daemon and client alike:
    # a request hand-off is then a same-CPU context switch.  Unpinned, each
    # hand-off is a cross-CPU wake-up, and on a shared two-core box those
    # made op_p50_ms swing by 60% between runs of one seed (pinned: 4%).
    pin = None
    if workload.startswith("serve_"):
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    load_start, steal_start = loadavg(), cpu_ticks()
    # Its own process group, so a timed-out run takes its forked daemon
    # down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, preexec_fn=pin)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        sys.stderr.write("run timed out\n")
    steal_end = cpu_ticks()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(stdout)
        return None
    env = {
        "nproc": os.cpu_count(),
        "pinned_cpu": None if pin is None else cpu,
        "engine_jobs": 1,
        "ocaml": subprocess.run(["ocamlopt", "-version"], capture_output=True,
                                text=True).stdout.strip(),
        "commit": commit(),
        "store_fs": fs_type("."),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "steal_pct": round(100.0 * (steal_end[0] - steal_start[0])
                           / max(1, steal_end[1] - steal_start[1]), 2),
    }
    env_line = "# env: " + json.dumps(env, sort_keys=True)
    return lines[:-1] + [env_line, lines[-1]], result


def selftest():
    """Every workload at toy size, untraced and traced: the correctness
    gates hold and every metric BENCHMARK.json names appears with its unit."""
    spec = load_spec()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            before = len(problems)
            got = run_once(workload, seed=7, seconds=1, trace=trace, toy=True)
            if got is None:
                problems.append(tag + ": run failed")
                continue
            _, result = got
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(tag + ": result keys %s" % sorted(result))
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(tag + ": gates failed %s" % json.dumps(
                    {k: result[k] for k in ("correct", "attempted", "failed")}))
            metrics = result["metrics"]
            if sorted(metrics) != sorted(wanted[trace]):
                problems.append(tag + ": metric names differ: %s" % sorted(
                    set(metrics) ^ set(wanted[trace])))
            for name, m in metrics.items():
                ok = (isinstance(m.get("value"), (int, float))
                      and math.isfinite(m["value"])
                      and m.get("unit") == wanted[trace].get(name))
                if not ok:
                    problems.append(tag + ": bad metric %s %s" % (name, m))
            value = {k: m["value"] for k, m in metrics.items()}
            if trace == 1 and workload == "serve_warm":
                for k, v in (("exec.runs", 0), ("store.writes", 0),
                             ("exec_cache.hit_ratio", 1)):
                    if value[k] != v:
                        problems.append(tag + ": %s = %s, want %s" % (k, value[k], v))
            if trace == 1 and workload == "serve_write":
                if value["exec_cache.hit_ratio"] != 0 or value["store.writes"] <= 0:
                    problems.append(tag + ": expected misses and journal writes")
            if trace == 0 and any(value[k] <= 0 for k in value):
                problems.append(tag + ": a metric reads 0")
            if trace == 1 and value["unattributed_ms"] < 0:
                problems.append(tag + ": unattributed_ms = %s < 0"
                                % value["unattributed_ms"])
            print("selftest %-22s ok=%s attempted=%d" % (
                tag, len(problems) == before, result["attempted"]))
    for p in problems:
        print("selftest FAIL: " + p)
    print("selftest: " + ("OK" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run from the repository root (no dune-project here)\n")
        return 2
    if not args.selftest:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.workload not in [w["name"] for w in load_spec()["workloads"]]:
            parser.error("unknown workload %r" % args.workload)
    if not build():
        sys.stderr.write("build failed\n")
        return 1
    if args.selftest:
        return selftest()
    got = run_once(args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    lines, _ = got
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
