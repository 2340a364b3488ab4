"""The dirlaw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``dirlaw`` is imported from its
``src/``.  Workloads (see ``workloads.py`` for the steps and why each
was chosen): integers-k2-converge, integers-models-k3, engines-limit-k4.

A run first makes ``SETUP_ONLY`` set-up-only repetitions (import and
cache fill, nothing else), then repeats the whole workload, each time in
a fresh interpreter with a fresh ``DIRLAW_CACHE``, as long as another
repetition is expected to end within ``--seconds``.  At least one
repetition runs, two with ``--trace 1``.

``--trace 0`` reports the end-to-end metrics, as medians over the
repetitions of the run:

    wall_s       child-process time from before ``import dirlaw`` to after
                 the last payload is written
    setup_s      import plus cache fill, over set-up-only and full
                 repetitions
    peak_rss_mb  peak RSS of the child process

Both times are given at a reference machine speed.  On a shared virtual
machine the speed of the same code drifts by 20-40% over minutes, with
every workload and the interpreter start-up moving together, so raw
medians of two runs minutes apart differ by more than a regression worth
catching.  Before each child process the run times ``speed_sample``, a
fixed mix of interpreter and numpy work that no change to ``dirlaw`` can
affect, and scales its raw times by ``CAL_REF_S`` over the median of
those samples.  The raw medians and the factor are printed as well.

``--trace 1`` alternates traced and untraced repetitions, starting with a
traced one, and reports the per-layer metrics of ``tracer.py`` as medians
over the traced ones; ``trace.overhead_frac`` is the ratio of traced to
untraced median wall time, minus 1.

Every step's output is checked (``workloads.check``).  A step fails if it
exits non-zero or its output fails a check; ``failed`` counts failed
steps out of ``attempted``, and ``correct`` is true only if none failed.
The last line of stdout is the JSON result; the lines before it record
the seed, the environment, the workload's rationale and every metric
with its quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY = 5
DEADLINE_S = 170.0          # every run exits well within 180 s
X_MAX = 1_000_000           # largest integer scale, integers-k2-converge
# A typical speed_sample time on the reference machine (a 2-vCPU KVM guest
# of an Intel Xeon, Sapphire Rapids family; Python 3.11.7, numpy 2.4); it
# only sets the scale of the reported times, which compare across runs.
CAL_REF_S = 0.15


def speed_sample() -> float:
    """Seconds for a fixed mix of bytecode and numpy work (~0.2 s)."""
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i
    a = np.arange(1_000_000, dtype=np.float64)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment() -> list[str]:
    """Lines recording the interpreter, libraries and the CPU caches."""
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(idx / "size")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    src = sorted((ROOT / "src" / "dirlaw").glob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in src)
    # _accumulate_uniform_k2 holds tau (int64), inv_tau and logn (float64)
    # over 0..x; the sieve adds one uint32 per n.
    arrays = 3 * 8 * (X_MAX + 1) / 1e6
    sieve = 4 * (X_MAX + 1) / 1e6
    return [
        f"# env python={platform.python_version()} "
        f"numpy={versions['numpy']} scipy={versions['scipy']} "
        f"nproc={os.cpu_count()} cpu={cpu!r} "
        + " ".join(f"{k}={v}" for k, v in caches.items()),
        f"# x=1e6 working set: {arrays:.1f} MB of int64/float64 arrays "
        f"+ {sieve:.1f} MB sieve, against L3={caches.get('L3', 'unknown')}",
        f"# src/dirlaw: {lines} lines in {len(src)} modules",
    ]


def _child(spec: dict, deadline: float) -> dict | None:
    work = Path(spec["dir"])
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"# repetition timed out: {work.name}", file=sys.stderr)
        return None
    try:
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"benchmark child failed: {work.name}")
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summary(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return (f"{name} median={med!r} q1={q1!r} q3={q3!r} unit={unit} "
            f"n={len(values)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dirlaw benchmark")
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dirlaw" / "__init__.py").is_file():
        print(f"error: no dirlaw sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed)
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "small": False, "pin": False}
    setups, reps, traced_reps, speeds = [], [], [], []
    try:
        for i in range(SETUP_ONLY):
            speeds.append(speed_sample())
            res = _child(dict(base, dir=str(scratch / f"setup{i}"),
                              trace=False, setup_only=True), deadline)
            if res is None:
                break
            setups.append(res["setup_s"])
        min_reps = 2 if args.trace else 1
        while True:
            n = len(reps) + len(traced_reps)
            traced = bool(args.trace) and n % 2 == 0
            speeds.append(speed_sample())
            res = _child(dict(base, dir=str(scratch / f"rep{n}"),
                              trace=traced, setup_only=False), deadline)
            if res is None:
                reps.append(None)
                break
            (traced_reps if traced else reps).append(res)
            setups.append(res["setup_s"])
            elapsed = time.perf_counter() - start
            typical = statistics.median(
                r["wall_s"] for r in reps + traced_reps if r)
            if n + 1 >= min_reps and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = failed = 0
    lines = [f"# perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    lines += environment()
    lines += [f"# why: {wl.why}", f"# layers: {wl.layers}"]
    for res in reps + traced_reps:
        steps = res["steps"] if res else []
        attempted += len(steps) if res else len(wl.steps)
        failed += len(wl.steps) if res is None else sum(
            1 for st in steps if st["failures"])
        for i, st in enumerate(steps):
            for reason in st["failures"]:
                lines.append(f"# FAIL step {i} {' '.join(wl.steps[i])}: "
                             f"{reason}")
    lines.append(f"failed_frac={failed / max(attempted, 1)!r} "
                 f"({failed} of {attempted} steps)")

    done = [r for r in reps if r]
    samples = {}
    if not args.trace and done:
        walls = [r["wall_s"] for r in done]
        scale = CAL_REF_S / statistics.median(speeds)
        lines.append(_summary("raw wall_s", walls, "s"))
        lines.append(_summary("raw setup_s", setups, "s"))
        lines.append(_summary("speed_sample", speeds, "s")
                     + f" scale={scale!r}")
        samples = {"wall_s": [w * scale for w in walls],
                   "setup_s": [w * scale for w in setups],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in done]}
    elif traced_reps and done:
        samples = {name: [r["layers"][name] for r in traced_reps]
                   for name in traced_reps[0]["layers"]}
        samples["trace.overhead_frac"] = [
            statistics.median(r["wall_s"] for r in traced_reps)
            / statistics.median(r["wall_s"] for r in done) - 1.0]
        lines.append(f"# spans recorded per traced repetition: "
                     f"{[r['spans'] for r in traced_reps]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in samples:
            values = samples[m["name"]]
            lines.append(_summary(m["name"], values, m["unit"]))
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and bool(samples),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
