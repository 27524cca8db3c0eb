#!/usr/bin/env python3
"""Repository benchmark for lapis: builds lapis_perfbench from this checkout
and runs one workload.

    python3 perfbench/run.py --workload study_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds a
Release tree under .bench_build/perfbench (later runs only re-check it).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Per-layer metrics that perfbench/layers.json does not list for the
workload are reported as 0. Earlier lines give provenance, every metric
with its unit, timing sample counts and check results.

--self-test runs every workload at a tiny scale in both modes and checks
that every metric is emitted with its unit, every output check passes, the
same seed reproduces the same digests and another seed changes them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = os.path.join(".bench_build", "perfbench-work")
TRACE_DIR = os.path.join(".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "lapis_perfbench")
RUN_TIMEOUT_S = 170
TINY = ["--apps=300", "--installs=2000", "--setups=1"]


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_checkout():
    for path in ("BENCHMARK.json", os.path.join(BENCH_DIR, "layers.json"),
                 os.path.join(BENCH_DIR, "CMakeLists.txt"),
                 os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(path):
            raise BenchError(
                f"{path} not found: run from the root of a lapis checkout")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "lapis_perfbench"])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    check=False)
            if result.returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError(f"build step failed: {' '.join(step)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(".git"):
        return None
    result = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=False)
    return result.stdout.strip() or None


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the binary's report (a dict)."""
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work_dir = os.path.join(WORK_ROOT, tag)
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.spans.tsv")
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={work_dir}", *extra]
    if trace:
        cmd.append(f"--spans-out={spans}")
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S}s") from e
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace and result.stderr:
        sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stderr[-4000:])
        raise BenchError(f"{workload} exited with {result.returncode}")
    return json.loads(lines[-1])


def select_metrics(spec, layers, workload, trace, report):
    """The BENCHMARK.json metrics of this mode, with units checked."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = report["metrics"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in emitted:
            if emitted[name]["unit"] != unit:
                raise BenchError(f"{name}: unit {emitted[name]['unit']} "
                                 f"!= {unit}")
            value = emitted[name]["value"]
            if value is None:
                raise BenchError(f"{name}: not a finite number")
            out[name] = {"value": value, "unit": unit}
        elif trace and workload not in layers["per_layer"][name]["workloads"]:
            out[name] = {"value": 0, "unit": unit}
        else:
            raise BenchError(f"{workload} did not emit {name}")
    return out


def provenance(report, workload, seed):
    notes = report["notes"]
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": notes.get("cpu_model"),
        "nproc": notes.get("nproc"),
        "compiler": notes.get("compiler"),
        "build_type": notes.get("build_type"),
        "release_build": notes.get("build_type") == "Release",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "scale": notes.get("scale"),
    }


def run(args):
    check_checkout()
    spec = load_json("BENCHMARK.json")
    layers = load_json(os.path.join(BENCH_DIR, "layers.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    build()
    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    metrics = select_metrics(spec, layers, args.workload, args.trace, report)
    prov = provenance(report, args.workload, args.seed)
    if not prov["release_build"]:
        print(f"WARNING: {prov['build_type']} build, not Release",
              file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, timing in sorted(report["timings"].items()):
        tail = (f", p{timing['tail_pct']:g} {timing['tail']:.6g}"
                if timing["tail_pct"] else "")
        print(f"timing {name}: p50 {timing['p50']:.6g} {timing['unit']}"
              f"{tail} (n={timing['n']})")
    for name, value in metrics.items():
        print(f"metric {name} = {value['value']:.6g} {value['unit']}")
    print(f"checks: {report['checks']} run, failures: "
          f"{report['check_failures'] or 'none'}")
    if report["failure_samples"]:
        print(f"failed operations: {report['failure_samples']}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def self_test():
    check_checkout()
    spec = load_json("BENCHMARK.json")
    layers = load_json(os.path.join(BENCH_DIR, "layers.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for metric in spec["per_layer"]:
        entry = layers["per_layer"].get(metric["name"])
        if entry is None or not entry.get("moves"):
            problems.append(f"layers.json has no target for {metric['name']}")
        elif not set(entry["workloads"]) <= set(workloads):
            problems.append(f"layers.json: bad workload in {metric['name']}")
    build()
    digests = {}
    for workload in workloads:
        for trace in (0, 1):
            report = run_binary(workload, 11, 1, trace, TINY)
            try:
                select_metrics(spec, layers, workload, trace, report)
            except BenchError as e:
                problems.append(f"{workload} trace={trace}: {e}")
            if not report["correct"] or report["failed"] != 0:
                problems.append(f"{workload} trace={trace}: checks "
                                f"{report['check_failures']}, failed "
                                f"{report['failure_samples']}")
            if trace == 0:
                digests[workload] = report["digests"]
        again = run_binary(workload, 11, 1, 0, TINY)["digests"]
        other = run_binary(workload, 12, 1, 0, TINY)["digests"]
        if not digests[workload] or again != digests[workload]:
            problems.append(f"{workload}: seed 11 digests do not repeat")
        for key, value in digests[workload].items():
            if other.get(key) == value:
                problems.append(f"{workload}: seed 12 leaves {key} unchanged")
        print(f"self-test {workload}: digests {digests[workload]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        run(args)
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
