"""Self-test of the benchmark, at shrunken sizes; takes well under a minute.

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced repetition and
shows that:

* every step passes its checks;
* traced and untraced payloads are byte-identical;
* the traced repetition reports every per-layer metric, writes one root
  span per step with that step's request id, and restores every wrapped
  name;
* a perturbed payload is caught, by the pinned comparison and by the
  workload's own independent check.

It also stresses the tracer's aggregated counters from more threads than
cores.  Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import dirlaw  # noqa: E402  (imported from the checkout's src/)
import dirlaw.cli  # noqa: E402

WORK = run.ROOT / ".perfbench_work" / "selftest"
PINNED = json.loads((run.HERE / "expected.json").read_text())


def _repetition(name: str, trace: bool) -> tuple[dict, Path]:
    work = WORK / f"{name}-{int(trace)}"
    work.mkdir(parents=True)
    spec = {"root": str(run.ROOT), "workload": name, "seed": 11,
            "small": True, "trace": trace, "setup_only": False,
            "pin": False, "dir": str(work)}
    subprocess.run([sys.executable, str(run.HERE / "child.py"),
                    json.dumps(spec)], check=True, timeout=120)
    return json.loads((work / "result.json").read_text()), work


def _payloads(wl, work: Path) -> dict[int, str]:
    out = {}
    for i, argv in enumerate(wl.steps):
        ext = "csv" if workloads.is_report(argv) else "txt"
        out[i] = (work / f"{i:02d}.{ext}").read_text()
    return out


def _bump_last_number(text: str) -> str:
    """Move the last number on the second line (or the only line) by 1e-6."""
    lines = text.splitlines()
    at = 1 if len(lines) > 1 else 0
    head, sep, last = lines[at].rpartition("=" if "=" in lines[at]
                                           and "," not in lines[at] else ",")
    lines[at] = f"{head}{sep}{float(last) + 1e-6!r}"
    return "\n".join(lines) + "\n"


def _limit(u: float) -> float:
    return dirlaw.dirichlet.cdf((0.5, 0.5), (u,), 1e-9)


def check_workload(name: str):
    wl = workloads.build(name, 11, small=True)
    plain, plain_dir = _repetition(name, trace=False)
    traced, traced_dir = _repetition(name, trace=True)
    for res in (plain, traced):
        bad = {i: st["failures"] for i, st in enumerate(res["steps"])
               if st["failures"]}
        assert not bad, (name, bad)
    a, b = _payloads(wl, plain_dir), _payloads(wl, traced_dir)
    assert a == b, f"{name}: traced payloads differ from untraced ones"
    print(f"PASS {name}: {len(wl.steps)} steps checked, traced and "
          f"untraced payloads byte-identical "
          f"({sum(len(t) for t in a.values())} bytes)")

    layers = traced["layers"]
    names = {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = names - set(layers) - {"trace.overhead_frac"}
    assert not missing, f"{name}: per-layer metrics missing: {missing}"
    spans = [json.loads(line) for line in
             (traced_dir / "spans.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s["layer"] == "cli" and s["parent"] is None]
    assert [s["request"] for s in roots] == list(range(len(wl.steps)))
    assert layers["cli.steps"] == len(wl.steps)
    print(f"PASS {name}: traced run has {len(layers)} layer metrics, "
          f"{len(spans)} spans, one root span per step")

    pinned = PINNED[name + "/small"]
    for i in sorted(set(a) - workloads.statistical_steps(wl))[:1]:
        bumped = {**a, i: _bump_last_number(a[i])}
        got = workloads.check(wl, bumped, pinned, limit_k2=_limit)
        assert i in got, f"{name}: perturbed step {i} was not caught"
        print(f"PASS {name}: perturbed step {i} caught: {got[i][0]}")
    return wl, a


def check_independent(payloads: dict):
    """Each workload's own check catches a fault without pinned values."""
    wl, a = payloads["integers-k2-converge"]
    got = workloads.check(wl, a, None, limit_k2=lambda u: _limit(u) + 1e-6)
    assert 0 in got and "betainc" in got[0][0], got
    print(f"PASS arcsine limit check catches a 1e-6 shift: {got[0][0]}")

    wl, a = payloads["integers-models-k3"]
    i = min(workloads.statistical_steps(wl))
    est = workloads.parse(a[i], csv=False)
    moved = {**a, i: f"estimate={est['estimate'] + 0.1!r} "
                     f"stderr={est['stderr']!r}\n"}
    got = workloads.check(wl, moved, None)
    assert i in got and "stderr" in got[i][0], got
    print(f"PASS mc check catches an estimate moved by 0.1: {got[i][0]}")

    wl, a = payloads["engines-limit-k4"]
    cdf_steps = [i for i, argv in enumerate(wl.steps) if argv[1] == "cdf"]
    one = next(i for i in cdf_steps if len(set(wl.steps[i][-1].split(",")))
               > 1)
    moved = {**a, one: _bump_last_number(a[one])}
    got = workloads.check(wl, moved, None)
    assert one in got and "permutation" in got[one][0], got
    print(f"PASS permutation check catches one corner moved by 1e-6: "
          f"{len(got)} steps of its class flagged")


def check_grids():
    for k, step in ((2, Fraction(1, 20)), (4, Fraction(1, 8)),
                    (4, Fraction(1, 4))):
        assert workloads.corners(k, step) == list(
            dirlaw.report.rect_grid(k, step)), (k, step)
    print("PASS corner lists equal report.rect_grid")


def check_restore():
    owners = (dirlaw.cli, dirlaw.caches, dirlaw.integers, dirlaw.perms,
              dirlaw.polyfield, dirlaw.series, dirlaw.dirichlet,
              dirlaw.quadrature, dirlaw.arith)
    before = [dict(vars(m)) for m in owners]
    tr = tracing.Tracer()
    tracing.instrument(tr, dirlaw)
    wrapped = len(tr._patches)
    assert dirlaw.integers.factorize is not before[2]["factorize"]
    tr.restore()
    for m, snap in zip(owners, before):
        changed = [k for k, v in vars(m).items() if snap.get(k) is not v]
        assert not changed, (m.__name__, changed)
    print(f"PASS {wrapped} wrapped names restored to the originals")


def check_threads():
    """Aggregated counters lose no update under heavy thread switching."""
    class Box:
        @staticmethod
        def work(n):
            return n + 1

    tr = tracing.Tracer()
    tr.wrap_hot(Box, "work", "box.work")
    threads, calls = 8, 5000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=lambda: [Box.work(i) for i in
                                                 range(calls)])
                for _ in range(threads)]
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in pool)
    finally:
        sys.setswitchinterval(old)
        tr.restore()
    assert tr.calls["box.work"] == threads * calls, tr.calls["box.work"]
    print(f"PASS {threads} threads x {calls} aggregated calls, none lost")


def main() -> int:
    start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_grids()
        check_restore()
        check_threads()
        payloads = {name: check_workload(name) for name in workloads.NAMES}
        check_independent(payloads)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    print(f"selftest passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
