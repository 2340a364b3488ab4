"""The benchmark's workloads and the checks on their outputs.

A workload is a list of ``dirlaw`` CLI argv steps that one fresh
interpreter runs in order, plus the cache entries its set-up fills so
that the timed steps only read them.  ``small=True`` gives the same steps
at shrunken sizes, for the self-test.

Checks are independent of the code they measure where that is possible:

* the arcsine limit of ``integers-k2-converge`` against
  ``scipy.special.betainc(1/2, 1/2, u)``;
* the k = 4 Dir(1/4, ..., 1/4) corners for invariance under every
  permutation of u (the law is exchangeable);
* the Monte Carlo estimate against the ``squarefree`` histogram row at
  u = (1/2, 1/5), within 5 standard errors (any seed passes);
* every other payload value against ``expected.json``, pinned from the
  program by ``pin.py``, within ``TOL``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

# Absolute below magnitude 1, relative above.  Values are printed with
# 12 significant digits; 1e-9 leaves room for the ~1e-12 changes that a
# reordered floating-point sum makes, and nothing more.
TOL = 1e-9
# Two CDF values of one permutation class each lie within the CDF's own
# 1e-9 tolerance of the true value.
PERM_TOL = 2e-9
MC_SIGMAS = 5.0

NAMES = ("integers-k2-converge", "integers-models-k3", "engines-limit-k4")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                       # why it was chosen
    layers: str                    # which layers it loads, heavily or not
    steps: tuple[tuple[str, ...], ...]
    fills: tuple[tuple, ...]       # ("spf", x) or ("irr", q, max_deg)


def corners(k: int, step: Fraction) -> list[tuple[Fraction, ...]]:
    """The k-1 dimensional corners of ``report.rect_grid(k, step)``."""
    m = int(1 / step)
    return [tuple(i * step for i in c)
            for c in itertools.product(range(1, m + 1), repeat=k - 1)
            if sum(c) <= m]


def build(name: str, seed: int, small: bool = False) -> Workload:
    if name == "integers-k2-converge":
        xs = (1000, 10000, 100000) if small else (1000, 10000, 100000,
                                                 1000000)
        return Workload(
            name,
            why="headline arcsine setting on the criterion-7 scales; "
                "the control that bypasses the walker, factorize and "
                "threads",
            layers="heavy: integers vector path (~85% of the time), "
                   "caches (4 MB sieve file); light: dirichlet (20 1-D "
                   "corners); none: factorize, pool threads, perms, "
                   "polyfield, series",
            steps=(("integers", "converge", "--x", ",".join(map(str, xs)),
                    "--k", "2", "--grid", "1/20", "--threads", "2"),),
            fills=(("spf", max(xs)),))
    if name == "integers-models-k3":
        x_sf, x_co, x_ne, x_tw, samples, box, nmax = (
            (3000, 1000, 300, 200, 2000, 20, 30) if small
            else (30000, 10000, 3000, 2000, 20000, 100, 120))
        steps = tuple(
            ("integers", "run", "--x", str(x), "--k", "3", "--model", model,
             "--grid", "1/10", "--threads", "2")
            for model, x in (("squarefree", x_sf), ("coprime", x_co),
                             ("nested", x_ne),
                             ("tau-weights:1;1,1,2", x_tw)))
        steps += (
            ("integers", "mc", "--x", str(x_sf), "--model", "squarefree",
             "--k", "3", "--u", "1/2,1/5", "--samples", str(samples),
             "--seed", str(seed)),
            ("integers", "boxsum", "--x", f"{box},{box},{box}", "--k", "3"),
            ("series", "direct", "--s", "2,2,2", "--k", "3",
             "--nmax", str(nmax)))
        return Workload(
            name,
            why="every g_local shape through the Python tuple walker, "
                "factorize and GIL-bound thread sharding; both copies of "
                "the tau_k/v_p kernel",
            layers="heavy: integers walker with Fraction weights, arith "
                   "factorize (pool threads), series d_direct, boxsum; "
                   "light: dirichlet (45 2-D corners per model), caches; "
                   "none: perms, polyfield",
            steps=steps,
            fills=tuple(("spf", x) for x in sorted(
                {x_sf, x_co, x_ne, x_tw, box, nmax})))
    if name == "engines-limit-k4":
        # Perms on the 1/10 grid and polys up to n=16 (the 1/20 grid and
        # n=18 would double the time) let 3-4 repetitions fit in one run;
        # single repetitions vary by 10-25% on a shared 2-vCPU machine.
        perm_n, q2_n, q3_n, step = (
            ((50, 100), (6, 8), (4, 6), Fraction(1, 4)) if small
            else ((100, 1000, 2000), (12, 14, 16), (6, 8), Fraction(1, 8)))
        steps = (
            ("perms", "converge", "--n", ",".join(map(str, perm_n)),
             "--k", "3", "--grid", "1/10"),
            ("polys", "converge", "--q", "2", "--n",
             ",".join(map(str, q2_n)), "--k", "3", "--grid", "1/10"),
            ("polys", "converge", "--q", "3", "--n",
             ",".join(map(str, q3_n)), "--k", "2", "--grid", "1/10"))
        steps += tuple(
            ("dirichlet", "cdf", "--alpha", "0.25,0.25,0.25,0.25", "--u",
             ",".join(str(float(c)) for c in u))
            for u in corners(4, step))
        return Workload(
            name,
            why="no integer engine: perms, both polyfield paths and the "
                "cold 3-D nested quadrature of 56 k=4 corners, with "
                "overlapping k=3 grids for real CDF cache hits",
            layers="heavy: perms exact sums, polyfield enumeration (q=2 "
                   "XOR sieve, q=3 _code_mul), dirichlet + quadrature "
                   "(cold k=4 corners); light: caches (irreducible "
                   "tables); none: integers, factorize, series",
            steps=steps,
            fills=(("irr", 2, max(q2_n) // 2), ("irr", 3, max(q3_n) // 2)))
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------- payloads

def is_report(argv) -> bool:
    """Report verbs write a CSV payload to --out; the rest print a line."""
    return argv[1] in ("run", "converge")


def parse(text: str, csv: bool):
    """Numbers of one payload: a CSV table, ``key=value`` pairs or one
    value."""
    if csv:
        lines = text.strip().splitlines()
        return {"header": lines[0].split(","),
                "rows": [[float(c) for c in line.split(",")]
                         for line in lines[1:]]}
    if "=" in text:
        return {k: float(v) for k, v in
                (tok.split("=", 1) for tok in text.split())}
    return {"value": float(text)}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _compare(got, want) -> str | None:
    if "header" in want:
        if got.get("header") != want["header"]:
            return f"header {got.get('header')} != {want['header']}"
        if len(got["rows"]) != len(want["rows"]):
            return f"{len(got['rows'])} rows, pinned {len(want['rows'])}"
        for r, (grow, wrow) in enumerate(zip(got["rows"], want["rows"])):
            for c, (g, w) in enumerate(zip(grow, wrow)):
                if not _close(g, w):
                    return f"row {r} col {c}: {g!r} != pinned {w!r}"
        return None
    if set(got) != set(want):
        return f"keys {sorted(got)} != pinned {sorted(want)}"
    for key, w in want.items():
        if not _close(got[key], w):
            return f"{key}: {got[key]!r} != pinned {w!r}"
    return None


def statistical_steps(wl: Workload) -> set[int]:
    """Steps whose output depends on the seed; they are never pinned."""
    return {i for i, argv in enumerate(wl.steps) if argv[1] == "mc"}


def check(wl: Workload, payloads: dict[int, str], pinned: dict | None,
          limit_k2=None) -> dict[int, list[str]]:
    """Failure reasons by step index; an empty dict means all passed.

    ``payloads`` maps a step index to its payload text; a missing step
    (it exited non-zero) is skipped here.  ``pinned`` maps step indices
    (as strings) to parsed payloads; None skips the pinned comparison.
    ``limit_k2(u)`` returns the arcsine limit the run used at corner u.
    """
    failures: dict[int, list[str]] = {}

    def fail(i: int, reason: str):
        failures.setdefault(i, []).append(reason)

    parsed = {}
    for i, text in payloads.items():
        try:
            parsed[i] = parse(text, is_report(wl.steps[i]))
        except (ValueError, IndexError) as exc:
            fail(i, f"unparsable payload: {exc}")

    if pinned is not None:
        for i in sorted(set(parsed) - statistical_steps(wl)):
            want = pinned.get(str(i))
            diff = ("no pinned value" if want is None
                    else _compare(parsed[i], want))
            if diff:
                fail(i, diff)

    if wl.name == "integers-k2-converge" and 0 in parsed:
        from scipy.special import betainc
        for u in corners(2, Fraction(1, 20)):
            lim = limit_k2(float(u[0]))
            ref = float(betainc(0.5, 0.5, float(u[0])))
            if abs(lim - ref) > TOL:
                fail(0, f"limit at u={u[0]}: {lim!r} != betainc {ref!r}")

    if wl.name == "integers-models-k3":
        for i in statistical_steps(wl):
            if i not in parsed or 0 not in parsed:
                continue
            est, err = parsed[i]["estimate"], parsed[i]["stderr"]
            rows = [r for r in parsed[0]["rows"] if r[:2] == [0.5, 0.2]]
            if len(rows) != 1:
                fail(i, "no squarefree histogram row at u=(1/2,1/5)")
            elif abs(est - rows[0][2]) > MC_SIGMAS * err:
                fail(i, f"mc {est} is more than {MC_SIGMAS} stderr "
                        f"({err}) from the histogram {rows[0][2]}")

    if wl.name == "engines-limit-k4":
        classes: dict[tuple, list[int]] = {}
        for i, argv in enumerate(wl.steps):
            if argv[1] == "cdf" and i in parsed:
                u = tuple(sorted(float(c) for c in argv[-1].split(",")))
                classes.setdefault(u, []).append(i)
        for u, members in classes.items():
            vals = [parsed[i]["value"] for i in members]
            if max(vals) - min(vals) > PERM_TOL:
                for i in members:
                    fail(i, f"not permutation-invariant at {u}: {vals}")
    return failures
