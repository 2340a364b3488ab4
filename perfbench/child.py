"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the workload, the seed, the work
directory for this repetition and three switches: ``small`` (self-test
sizes), ``trace`` (install the wrappers of ``tracer.py``) and
``setup_only`` (import and fill the cache, then stop).

Timeline, all inside this process:

    t0 -- import dirlaw -- fill DIRLAW_CACHE -- steps 0 .. n-1 -- t_end
    |<-------------- setup_s -------------->|
    |<------------------------------ wall_s ------------------------>|

Each step passes its argv to ``dirlaw.cli.main``, the way a script
driving the CLI would, so ``lru_cache``s are cold at t0 and shared
between the steps.  Report verbs write their CSV to ``--out`` in the work
directory; the other verbs' stdout is saved there as the payload.
Outputs are checked after t_end.  The result goes to ``result.json`` in
the work directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads


def _fill(caches, fills):
    for entry in fills:
        if entry[0] == "spf":
            caches.get_spf_sieve(entry[1])
        else:
            caches.get_irreducibles(entry[1], entry[2])


def run(spec: dict) -> dict:
    root, work = Path(spec["root"]), Path(spec["dir"])
    wl = workloads.build(spec["workload"], spec["seed"], spec["small"])
    os.environ["DIRLAW_CACHE"] = str(work / "cache")
    sys.path.insert(0, str(root / "src"))
    tr = tracing.Tracer() if spec["trace"] else None
    cpu0 = os.times()

    t0 = time.perf_counter()
    import dirlaw
    import dirlaw.cli
    t_import = time.perf_counter()
    origin = Path(dirlaw.__file__).resolve()
    if root.resolve() / "src" not in origin.parents:
        raise RuntimeError(f"imported dirlaw from {origin}, not the checkout")
    span = (lambda layer, name: contextlib.nullcontext()) if tr is None \
        else tr.span
    if tr is not None:
        tracing.instrument(tr, dirlaw)
        tr.bind_home()
    try:
        with span("caches", "fill"):
            _fill(dirlaw.caches, wl.fills)
        t_setup = time.perf_counter()
        result = {"import_s": t_import - t0, "setup_s": t_setup - t0}
        if spec["setup_only"]:
            return result

        payloads, steps = {}, []
        for i, argv in enumerate(wl.steps):
            argv = list(argv)
            out = work / f"{i:02d}.csv"
            if workloads.is_report(argv):
                argv += ["--out", str(out)]
            buf, err = io.StringIO(), io.StringIO()
            s0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                try:
                    if tr is not None:
                        tr.request = i
                    with span("cli", "step"):
                        rc = dirlaw.cli.main(argv)
                except Exception:
                    rc = 1
                    err.write(traceback.format_exc())
            steps.append({"rc": rc, "s": time.perf_counter() - s0,
                          "stderr": err.getvalue()[-2000:] if rc else ""})
            if not workloads.is_report(argv):
                out = work / f"{i:02d}.txt"
                out.write_text(buf.getvalue())
            if rc == 0:
                payloads[i] = out.read_text()
        t_end = time.perf_counter()
    finally:
        if tr is not None:
            tr.restore()
    cpu1 = os.times()
    cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    result.update({
        "wall_s": t_end - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cpu_s": cpu_s,
        "steps": steps,
    })
    if tr is not None:
        tr.write_spans(work / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tr, len(steps), cpu_s)
        result["spans"] = len(tr.spans)

    if spec.get("pin"):
        result["parsed"] = {
            str(i): workloads.parse(text, workloads.is_report(wl.steps[i]))
            for i, text in payloads.items()}
        return result
    pinned_all = json.loads((Path(__file__).parent
                             / "expected.json").read_text())
    key = wl.name + ("/small" if spec["small"] else "")
    failures = workloads.check(
        wl, payloads, pinned_all.get(key, {}),
        limit_k2=lambda u: dirlaw.dirichlet.cdf((0.5, 0.5), (u,), 1e-9))
    for i, st in enumerate(steps):
        reasons = failures.get(i, [])
        if st["rc"] != 0:
            reasons = [f"exit code {st['rc']}: {st['stderr'].strip()}"]
        st["failures"] = reasons
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    (Path(spec["dir"]) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
