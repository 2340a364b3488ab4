"""Regenerate ``expected.json``, the pinned payloads the checks compare to.

    python3 perfbench/pin.py

Runs every workload once, at full and at self-test sizes, and stores each
step's parsed payload (Monte Carlo steps excluded: their check is
statistical).  Pin only from a commit whose outputs are known good; a
change that moves a pinned value is a change in the program's results.
"""

from __future__ import annotations

import json
import shutil
import time

import run
import workloads


def main() -> int:
    scratch = run.ROOT / ".perfbench_work" / "pin"
    pinned = {}
    try:
        for name in workloads.NAMES:
            for small in (False, True):
                wl = workloads.build(name, 0, small)
                res = run._child(
                    {"root": str(run.ROOT), "workload": name, "seed": 0,
                     "small": small, "trace": False, "setup_only": False,
                     "pin": True, "dir": str(scratch / f"{name}-{small}")},
                    deadline=time.perf_counter() + 600)
                bad = [i for i, st in enumerate(res["steps"]) if st["rc"]]
                if bad:
                    raise RuntimeError(f"{name}: steps {bad} failed")
                skip = workloads.statistical_steps(wl)
                key = name + ("/small" if small else "")
                pinned[key] = {i: p for i, p in res["parsed"].items()
                               if int(i) not in skip}
                print(f"pinned {key}: {len(pinned[key])} payloads, "
                      f"{res['wall_s']:.2f} s")
    finally:
        shutil.rmtree(scratch.parent, ignore_errors=True)
    # one line per pinned payload keeps the file small and diffs readable
    blocks = []
    for key, steps in sorted(pinned.items()):
        body = ",\n".join(
            f"  {json.dumps(i)}: {json.dumps(p)}"
            for i, p in sorted(steps.items(), key=lambda s: int(s[0])))
        blocks.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    (run.HERE / "expected.json").write_text(
        "{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
