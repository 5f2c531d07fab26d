#!/usr/bin/env python3
"""Benchmark command for MUSE-Net: build, run one workload, check, report.

    python3 perfbench/run.py --workload serve-poisson|infer-replay|train \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the program's libraries
from ../src) into .bench_build/ (or $CARGO_TARGET_DIR); later calls reuse it.
Each run executes the harness self-tests, then the workload with the thread
count perfbench/layers.json gives it.

Output on stdout: one line per metric (name, the workload's own name for the
measurement, value, unit, sample count), the full report with provenance as
one JSON line, and last the result line {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports every end-to-end metric of BENCHMARK.json,
--trace 1 every per-layer metric, from a traced run; perfbench/layers.json
says which measurement of each workload fills each metric. Any failed check
exits 1 after a result line with correct false and no metrics; a failed
build exits 1 without a result line.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures once and builds the benchmark; returns the build dir."""
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    configured = build_dir / "configured.ok"
    log_path = build_root / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not configured.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "perfbench_test", "-j", jobs])
    with open(log_path, "a") as log_file:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log_file, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                log("build failed:\n" + "\n".join(tail))
                return None
            if cmd[1] == "-S":
                configured.touch()
    return build_dir


def cpu_info():
    model, flags = None, []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model is None:
                model = value.strip()
            if key.strip() == "flags" and not flags:
                flags = value.split()
    except OSError:
        pass
    model = model or platform.processor()
    wanted = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
              "avx512vl", "avx512_vnni", "avx512_bf16", "amx_tile")
    return model, [f for f in wanted if f in flags]


def source_hash():
    """SHA-256 over the program's and the benchmark's sources, for checkouts
    without git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(build_dir, threads):
    model, isa = cpu_info()
    info_path = build_dir / "build_info.json"
    build_info = json.loads(info_path.read_text()) if info_path.exists() else {}
    return {
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "isa_flags": isa,
        "compiler": build_info.get("compiler"),
        "cxx_flags": build_info.get("cxx_flags"),
        "MUSENET_NUM_THREADS": threads,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "layers.json").read_text())
    spec = plan["workloads"].get(args.workload)
    if spec is None or args.seconds <= 0 or args.seed < 0:
        log(f"unknown workload {args.workload!r} or bad --seconds/--seed")
        return 2
    declared = {m["name"]: m["unit"] for m in
                bench["per_layer" if args.trace else "end_to_end"]}
    sources = spec["per_layer" if args.trace else "end_to_end"]
    if set(sources) != set(declared):
        log(f"perfbench/layers.json does not map every metric of "
            f"BENCHMARK.json for {args.workload}")
        return 2

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build(build_root)
    if build_dir is None:
        return 1
    selftest = subprocess.run([str(build_dir / "perfbench_test"), "--gtest_brief=1"],
                              capture_output=True, text=True, cwd=ROOT)
    if selftest.returncode != 0:
        log("harness self-tests failed:\n" + selftest.stdout[-3000:])
        return 1

    out_dir = build_root / "run"
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = str(spec["threads"])
    env = dict(os.environ, MUSENET_NUM_THREADS=threads)
    env.pop("MUSENET_TRACE", None)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no report from the workload (exit {proc.returncode})")
        return 1

    failures = list(report["failures"])
    if proc.returncode != 0 and not failures:
        failures.append(f"workload exited {proc.returncode}")
    metrics = report["metrics"]
    result = {}
    for name, source in sources.items():
        # null: a layer this workload does not drive, so its count or share
        # is 0 (layers.json never maps a time to null).
        got = ({"value": 0, "unit": declared[name], "n": 0} if source is None
               else metrics.get(source))
        if got is None:
            failures.append(f"metric {source} (for {name}) missing")
        elif got["unit"] != declared[name]:
            failures.append(f"metric {source} unit {got['unit']!r} does not "
                            f"match {name} in BENCHMARK.json")
        else:
            result[name] = got
            print(f"{name:36s} {source or '-':40s} {got['value']:>14.6g} "
                  f"{got['unit']:8s} n={got['n']}")

    report["provenance"] = provenance(build_dir, threads)
    report["failures"] = failures
    report["correct"] = report["correct"] and not failures
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    for why in failures:
        log(f"FAILED: {why}")
    ok = report["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": ({k: {"value": v["value"], "unit": v["unit"]}
                     for k, v in result.items()} if ok else {}),
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
