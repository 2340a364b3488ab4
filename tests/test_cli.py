import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirlaw import cli, polyfield
from dirlaw.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dirichlet_cdf_example(capsys):
    code, out, _ = run(capsys, "dirichlet", "cdf", "--alpha", "0.5,0.5",
                       "--u", "0.25")
    assert code == 0
    assert out.strip() == "0.333333333333"


def test_perms_exact_example(capsys):
    code, out, _ = run(capsys, "perms", "exact", "--n", "2", "--k", "2",
                       "--u", "0.5")
    assert code == 0 and out.strip() == "5/8"


def test_integers_exact_example(capsys):
    code, out, _ = run(capsys, "integers", "exact", "--x", "4", "--k", "2",
                       "--u", "1/2")
    assert code == 0 and out.strip() == "2/3"
    code, out, _ = run(capsys, "integers", "exact", "--x", "1", "--k", "2",
                       "--u", "1/2")
    assert code == 0 and out.strip() == "1"


def test_polys_exact_example(capsys):
    code, out, _ = run(capsys, "polys", "exact", "--q", "2", "--n", "2",
                       "--k", "2", "--u", "0.5")
    assert code == 0 and out.strip() == "31/48"
    # any prime q: (15 q + 1) / (24 q) at n = 2; 67108837 is also the first
    # word prime the exact path scans for n = 2, and is skipped there
    for q in (17, 67108837):
        code, out, err = run(capsys, "polys", "exact", "--q", str(q), "--n",
                             "2", "--k", "2", "--u", "1/2")
        assert code == 0 and Fraction(out.strip()) \
            == Fraction(15 * q + 1, 24 * q), err
        floats = polyfield._corner_table(q, 2, 2, polyfield.Floats())
        assert abs(float(Fraction(out.strip())) - floats[1, 0].real) <= 1e-15


def test_perms_brute_matches_exact(capsys):
    code, out, _ = run(capsys, "perms", "brute", "--n", "5", "--k", "3",
                       "--u", "1/3,1/3")
    code2, out2, _ = run(capsys, "perms", "exact", "--n", "5", "--k", "3",
                         "--u", "1/3,1/3")
    assert code == code2 == 0 and out == out2


def test_usage_error_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DIRLAW_CACHE", str(tmp_path))
    assert run(capsys, "integers", "exact", "--x", "4")[0] == 2  # no --u
    assert run(capsys, "nonsense")[0] == 2
    code, _, err = run(capsys, "integers", "exact", "--x", "4", "--k", "2",
                       "--u", "3/2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "polys", "exact", "--q", "4", "--n", "2",
                       "--k", "2", "--u", "0.5")
    assert code == 2 and "prime" in err
    # the domain is checked before a sieve is built or cached
    for nmax in ("5000000", "0"):
        code, _, err = run(capsys, "series", "direct", "--s", "2,2",
                           "--nmax", nmax)
        assert code == 2 and "n_max must lie in [1, 100000]" in err
    assert not (tmp_path / "spf_5000000.bin").exists()
    for argv, message in [
            (("exact", "--x", "3000000", "--k", "2", "--u", "3/2"),
             "rectangle coordinates must lie in [0, 1]"),
            (("run", "--x", "3000000", "--k", "2", "--grid", "7/3"),
             "grid step must divide 1"),
            (("converge", "--x", "1000,3000000", "--k", "2", "--grid",
              "1/200"), "grid step must be at least 0.01"),
            (("mc", "--x", "3000000", "--k", "2", "--u", "1/2",
              "--samples", "0"), "sample count must be at least 1000")]:
        code, _, err = run(capsys, "integers", *argv)
        assert code == 2 and message in err
    assert not (tmp_path / "spf_3000000.bin").exists()
    # non-finite numbers are domain errors, not tracebacks or nan values
    for argv, message in [
            (("integers", "boxsum", "--x", "nan,10", "--k", "2"),
             "box bounds must be finite"),
            (("series", "direct", "--s", "nan,2", "--nmax", "5"),
             "coordinates must be finite"),
            (("series", "direct", "--s", "2,inf", "--nmax", "5"),
             "coordinates must be finite"),
            (("series", "euler", "--s", "nan,2"),
             "coordinates must be finite"),
            (("series", "primesum", "--k", "2", "--j", "0", "--s", "nan"),
             "s must be finite"),
            (("dirichlet", "cdf", "--alpha", "1,1", "--u", "nan"),
             "rectangle corner coordinates must be finite"),
            (("dirichlet", "density", "--alpha", "1,1", "--t", "nan,0.5"),
             "simplex coordinates must be finite")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and not out
    # the polys arguments are checked before a table is built or cached
    for argv, message in [
            (("exact", "--q", "2", "--n", "6", "--k", "1", "--u", "1/2"),
             "rectangle dimension must be k - 1"),
            (("exact", "--q", "2", "--n", "8", "--k", "2", "--u", "3/2"),
             "rectangle coordinates must lie in [0, 1]"),
            (("run", "--q", "2", "--n", "10", "--k", "2", "--grid", "7/3"),
             "grid step must lie in (0, 1/2]")]:
        code, _, err = run(capsys, "polys", *argv)
        assert code == 2 and message in err
    assert not list(tmp_path.glob("irr_*.bin"))
    # a grid with no corner, (k - 1) step > 1, is refused before sieving
    for argv in [("integers", "run", "--x", "100", "--k", "5", "--grid",
                  "1/2"),
                 ("integers", "converge", "--x", "100,200", "--k", "4",
                  "--grid", "1/2"),
                 ("perms", "converge", "--n", "10", "--k", "4", "--grid",
                  "1/2")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and "grid step leaves no corner" in err and not out
    assert not list(tmp_path.glob("spf_*.bin"))


@pytest.mark.parametrize("argv,message", [
    (("integers", "run", "--x", "100", "--k", "2", "--grid", "0"),
     "grid step must lie in (0, 1/2]"),
    (("integers", "converge", "--x", "100,200", "--k", "2", "--grid", "0"),
     "grid step must lie in (0, 1/2]"),
    (("integers", "mc", "--x", "1000", "--k", "2", "--u", "1/2", "--seed",
      "-1"), "seed must be at least 0"),
    (("dirichlet", "sample", "--alpha", "1,1", "--seed", "-5"),
     "seed must be at least 0"),
    (("dirichlet", "cdf", "--alpha", "2e5,1,1", "--u", "0.5,0.2"),
     "every alpha_i must be at most 100000"),
    (("dirichlet", "density", "--alpha", "1e100,1e100", "--t", "0.5,0.5"),
     "every alpha_i must be at most 100000"),
    (("dirichlet", "sample", "--alpha", "1,100001"),
     "every alpha_i must be at most 100000"),
    (("integers", "converge", "--x", "100,100"), "scales must not repeat"),
    (("polys", "converge", "--q", "2", "--n", "8,8", "--k", "2", "--grid",
      "1/2"), "scales must not repeat"),
    (("perms", "converge", "--n", "10,10", "--k", "2", "--grid", "1/2"),
     "scales must not repeat"),
    (("integers", "converge", "--x", "1a", "--k", "2"),
     "not an integer list: '1a'"),
    (("dirichlet", "cdf", "--alpha", "1,x", "--u", "0.5"),
     "not a number list: '1,x'"),
    (("perms", "converge", "--n", "10", "--k", "2", "--grid", "1/0"),
     "not a rational number: '1/0'"),
    (("series", "direct", "--s", "2,z", "--k", "2"), "not a number: 'z'")])
def test_out_of_domain_values_exit_2_with_one_error_line(capsys, argv,
                                                         message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_cli_import_leaves_scipy_special_unloaded():
    # importing scipy.special takes about 0.27 s, more than the CLI itself
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, dirlaw.cli; print('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_verbs_run_without_scipy(tmp_path):
    # scipy is a test-time oracle only: the CDF and zeta kernels are the
    # package's own, so no verb loads any scipy module
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "DIRLAW_CACHE": str(tmp_path), "PYTHONPATH":
           os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    verbs = [
        ["integers", "converge", "--x", "1000,3000", "--k", "2"],
        ["integers", "run", "--x", "300", "--k", "3", "--grid", "1/4"],
        ["dirichlet", "cdf", "--alpha", "0.25,0.25,0.25,0.25",
         "--u", "0.5,0.25,0.125"],
        ["series", "direct", "--s", "2,2", "--k", "2", "--nmax", "50"],
        ["series", "euler", "--s", "2,2", "--k", "2", "--pmax", "50"],
        ["perms", "converge", "--n", "20,40", "--k", "3", "--grid", "1/4"],
        ["polys", "converge", "--q", "2", "--n", "4,6", "--k", "2",
         "--grid", "1/4"]]
    probe = (
        "import contextlib, io, json, sys\n"
        "from dirlaw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {verbs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'scipy')]))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[0] * len(verbs), []]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ("integers", "run", "--x", "300", "--k", "2", "--grid", "1/4")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["bins"] == 4
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("u_1,empirical,limit,deviation\n")


@pytest.mark.parametrize("spelling", ["residues:abc", "coprime:1-x",
                                      "tau-weights:a;1,2,3"])
def test_malformed_model_is_usage_error(capsys, spelling):
    code, _, err = run(capsys, "integers", "exact", "--x", "10", "--k", "3",
                       "--u", "1/2,1/4", "--model", spelling)
    assert code == 2 and "error" in err and "Traceback" not in err


def test_resource_error_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DIRLAW_CACHE", str(tmp_path))
    code, _, err = run(capsys, "integers", "run", "--x", "200000000",
                       "--k", "2")
    assert code == 3 and "error" in err
    # the volume guard fires before a sieve is built or cached
    code, _, err = run(capsys, "integers", "boxsum", "--x",
                       "20000,20000,20000", "--k", "3")
    assert code == 3 and "box volume exceeds the 1e8 guard" in err
    assert not (tmp_path / "spf_20000.bin").exists()
    # the polys work guard, counted before any array, refuses within 1 s:
    # on the float count, before _crt_basis would compute 3^(3e7), on k,
    # and on the residue rings: 159 at (2, 200, 2), 2299 at
    # (999999999989, 837, 2)
    for argv in [("exact", "--q", "3", "--n", "30000000", "--k", "2", "--u",
                  "1/2"),
                 ("run", "--q", "2", "--n", "2000", "--k", "2"),
                 ("converge", "--q", "2", "--n", "24,2000", "--k", "2"),
                 ("exact", "--q", "2", "--n", "12", "--k", "30", "--u",
                  ",".join(["1/40"] * 29)),
                 ("run", "--q", "2", "--n", "4", "--k", "12", "--grid",
                  "1/10"),
                 ("exact", "--q", "2", "--n", "9", "--k", "7", "--u",
                  ",".join(["1/7"] * 6)),
                 ("exact", "--q", "2", "--n", "4", "--k", "11", "--u",
                  ",".join(["1/11"] * 10)),
                 ("exact", "--q", "2", "--n", "200", "--k", "2", "--u",
                  "1/2"),
                 ("exact", "--q", "999999999989", "--n", "837", "--k", "2",
                  "--u", "1/2")]:
        start = time.perf_counter()
        code, out, err = run(capsys, "polys", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "exceeds the 6e8 work guard" in err and not out
    assert not list(tmp_path.glob("irr_*.bin"))
    # guards that refuse work before it starts, without a traceback
    for argv, message in [
            (("series", "euler", "--s", "2,2", "--pmax", "100", "--vmax",
              "100000"), "exceeds the Euler-product cost guard"),
            (("dirichlet", "sample", "--alpha", "1,1", "--samples",
              "1000000000"), "samples * k exceeds the 1e7 guard"),
            (("series", "euler", "--s", ",".join(["2"] * 200), "--pmax",
              "10", "--vmax", "30"), "exceeds the float range"),
            (("series", "a0", "--p", "2", "--k", "900", "--vmax", "30"),
             "k must be at most 100"),
            (("series", "a0", "--p", "2", "--k", "100", "--vmax", "300"),
             "exceeds the 2.5e6 composition recursion guard"),
            (("series", "a0", "--p", "2", "--k", "2", "--vmax", "20000"),
             "exceeds the 2.5e6 composition recursion guard"),
            (("integers", "mc", "--x", "1000", "--k", "2", "--u", "1/2",
              "--samples", "100000000000"),
             "sample count exceeds the 1e8 guard")]:
        code, out, err = run(capsys, *argv)
        assert code == 3 and message in err and not out
    assert not (tmp_path / "spf_1000.bin").exists()


_GRIDS = st.sampled_from(["1/2", "1/3", "1/4", "1/5", "0"])
_SCALES = st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True)
# polys k: small, or k >= 26, which the work guard refuses at every n
_POLY_K = st.one_of(st.integers(1, 5), st.integers(26, 40))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


ARGVS = st.one_of(
    st.builds(lambda x, k, g: ("integers", "run", "--x", str(x), "--k",
                               str(k), "--grid", g),
              st.integers(1, 300), st.integers(1, 6), _GRIDS),
    st.builds(lambda xs, k, g: ("integers", "converge", "--x",
                                _csv(sorted(xs)), "--k", str(k), "--grid", g),
              _SCALES, st.integers(1, 6), _GRIDS),
    st.builds(lambda ns, k, g: ("perms", "converge", "--n", _csv(ns), "--k",
                                str(k), "--grid", g),
              st.lists(st.integers(0, 60), min_size=1, max_size=3),
              st.integers(1, 7), _GRIDS),
    st.builds(lambda q, n, k: ("polys", "exact", "--q", str(q), "--n",
                               str(n), "--k", str(k), "--u",
                               _csv([f"1/{k}"] * max(k - 1, 1))),
              st.sampled_from([2, 3, 4, 5, 17]), st.integers(0, 6), _POLY_K),
    st.builds(lambda q, n, k, g: ("polys", "run", "--q", str(q), "--n",
                                  str(n), "--k", str(k), "--grid", g),
              st.sampled_from([2, 3, 5, 17, 10007]), st.integers(0, 6),
              _POLY_K, _GRIDS),
    st.builds(lambda m, pmax: ("series", "euler", "--s", _csv([2] * m),
                               "--pmax", str(pmax), "--vmax", "30"),
              st.integers(1, 250), st.integers(1, 20)),
    st.builds(lambda p, k, v: ("series", "a0", "--p", str(p), "--k", str(k),
                               "--vmax", str(v)),
              st.sampled_from([2, 3, 4]), st.integers(0, 1000),
              st.integers(0, 5)),
    # the deprecated flag, the a0 cost guard and the polys work guard
    st.builds(lambda verb, x, k, t: ("integers", verb, "--x", str(x), "--k",
                                     str(k), "--grid", "1/4", "--threads",
                                     str(t)),
              st.sampled_from(["run", "converge"]), st.integers(1, 300),
              st.integers(1, 4), st.integers(-2, 64)),
    st.builds(lambda p, k, v: ("series", "a0", "--p", str(p), "--k", str(k),
                               "--vmax", str(v)),
              st.sampled_from([2, 3, 97]), st.integers(1, 120),
              st.integers(0, 30000)),
    st.builds(lambda q, n, k: ("polys", "exact", "--q", str(q), "--n",
                               str(n), "--k", str(k), "--u",
                               _csv([f"1/{k}"] * (k - 1))),
              st.sampled_from([2, 3]), st.integers(8, 11),
              st.integers(6, 10)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=ARGVS)
def test_argv_families_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("verb,x", [("run", "20000"),
                                    ("converge", "1000,20000")])
def test_threads_flag_is_deprecated_and_ignored(verb, x, capsys, tmp_path):
    argv = ["integers", verb, "--x", x, "--k", "2", "--model",
            "two-squares", "--grid", "1/20"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "plain.csv"))
    assert code == 0 and "deprecated" not in err
    plain = (tmp_path / "plain.csv").read_bytes()
    for threads in ("1", "2", "8"):
        out = tmp_path / f"threads{threads}.csv"
        code, _, err = run(capsys, *argv, "--threads", threads, "--out",
                           str(out))
        assert code == 0
        notes = [line for line in err.splitlines()
                 if "--threads is deprecated and has no effect" in line]
        assert len(notes) == 1, err
        assert out.read_bytes() == plain


def test_integrity_error_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DIRLAW_CACHE", str(tmp_path))
    argv = ("integers", "exact", "--x", "10", "--k", "2", "--u", "1/2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == "7/12"
    cache = tmp_path / "spf_10.bin"
    raw = bytearray(cache.read_bytes())
    raw[12 + 4 * 2] ^= 0xFF  # spf[2], a sentinel
    cache.write_bytes(bytes(raw))
    code, _, err = run(capsys, *argv)
    assert code == 4 and "error" in err
    # a limit CDF outside the Frechet bounds of its marginals
    code, out, err = run(capsys, "dirichlet", "cdf", "--alpha",
                         "1e5,1e5,1e5", "--u", "0.364,0.492")
    assert code == 4 and "Frechet bounds" in err and not out


def test_run_writes_csv_and_manifest(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "dev.csv"
    code, _, err = run(capsys, "integers", "run", "--x", "2000", "--k", "2",
                       "--grid", "1/10", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "u_1,empirical,limit,deviation"
    assert len(lines) == 11  # header + 10 grid points

    manifest = json.loads((tmp_path / "dev.csv.manifest.json").read_text())
    assert manifest["kind"] == "integers"
    assert manifest["params"]["x"] == 2000
    assert manifest["params"]["grid"] == "1/10"
    assert manifest["tool_version"]
    assert manifest["outputs"] == [str(out_path)]

    # identical rerun must produce a byte-identical payload
    out2 = tmp_path / "dev2.csv"
    code, _, _ = run(capsys, "integers", "run", "--x", "2000", "--k", "2",
                     "--grid", "1/10", "--out", str(out2))
    assert code == 0
    assert out2.read_bytes() == out_path.read_bytes()

    # so is a JSON payload, even when the clock moves between the runs
    tick = itertools.count()
    monkeypatch.setattr(cli, "_now_utc",
                        lambda: f"2000-01-01T00:00:{next(tick):02d}Z")
    argv = ("integers", "run", "--x", "2000", "--k", "2", "--grid", "1/10",
            "--format", "json")
    code, json1, _ = run(capsys, *argv)
    code2, json2, _ = run(capsys, *argv)
    assert code == code2 == 0 and json1 == json2

    # x = 1 is inside the domain: only n = 1, at the origin
    code, out, _ = run(capsys, "integers", "run", "--x", "1", "--k", "2")
    assert code == 0 and len(out.strip().split("\n")) == 21


def test_manifest_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_now_utc", lambda: "2000-01-01T00:00:00Z")
    conv, samp = tmp_path / "conv.csv", tmp_path / "samp.csv"
    assert run(capsys, "integers", "converge", "--x", "100,300", "--k", "2",
               "--grid", "1/4", "--out", str(conv))[0] == 0
    assert run(capsys, "dirichlet", "sample", "--alpha", "0.5,1.5",
               "--samples", "2", "--seed", "7", "--out", str(samp))[0] == 0
    assert (tmp_path / "conv.csv.manifest.json").read_text() == (
        '{\n  "kind": "converge",\n  "outputs": [\n'
        f'    {json.dumps(str(conv))}\n  ],\n'
        '  "params": {\n    "engine": "integers",\n    "format": "csv",\n'
        '    "grid": "1/4",\n    "k": 2,\n    "model": "uniform",\n'
        '    "x": [\n      100,\n      300\n    ]\n  },\n  "seed": 0,\n'
        '  "timestamp_utc": "2000-01-01T00:00:00Z",\n'
        '  "tool_version": "0.1.0"\n}\n')
    assert (tmp_path / "samp.csv.manifest.json").read_text() == (
        '{\n  "kind": "dirichlet",\n  "outputs": [\n'
        f'    {json.dumps(str(samp))}\n  ],\n'
        '  "params": {\n    "alpha": [\n      0.5,\n      1.5\n    ],\n'
        '    "samples": 2\n  },\n  "seed": 7,\n'
        '  "timestamp_utc": "2000-01-01T00:00:00Z",\n'
        '  "tool_version": "0.1.0"\n}\n')


def test_summary_line_takes_the_stream_the_payload_leaves(capsys,
                                                         tmp_path):
    argv = ("integers", "run", "--x", "1000", "--k", "2", "--grid", "1/2")
    code, out, err = run(capsys, *argv)
    payload, summary = out.splitlines(), err.splitlines()
    assert code == 0 and payload[0] == "u_1,empirical,limit,deviation"
    assert len(summary) == 1 and summary[0].startswith("scale=1000 ")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 0 and out.splitlines() == summary and not err
    assert (tmp_path / "o.csv").read_text().splitlines() == payload


def test_huge_primes_are_refused_before_trial_division(capsys):
    for argv in [("series", "a0", "--p", "1000000000000000003", "--k", "2",
                  "--vmax", "2"),
                 ("polys", "exact", "--q", "1000000000000000003", "--n", "2",
                  "--k", "2", "--u", "1/2")]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and not out and "Traceback" not in err
    # the largest prime below the 10^12 guard is still checked
    code, out, _ = run(capsys, "series", "a0", "--p", "999999999989", "--k",
                       "2", "--vmax", "2")
    assert code == 0 and out.strip().startswith("999999999967")


def test_run_json_schema(capsys):
    code, out, err = run(capsys, "integers", "run", "--x", "1000",
                         "--k", "2", "--grid", "1/5", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert list(body.keys()) == ["kind", "k", "scale", "model", "grid_step",
                                 "bins", "sup_dev", "scaled_sup_dev", "rows",
                                 "tool_version"]
    assert body["kind"] == "integers" and body["scale"] == 1000
    assert body["bins"] == 5 and len(body["rows"]) == 5
    assert "sup_dev" in err


def test_converge_csv(capsys):
    code, out, err = run(capsys, "perms", "converge", "--n", "10,50",
                         "--k", "2", "--grid", "1/10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "scale,sup_dev,scaled_sup_dev"
    assert lines[1].startswith("10,") and lines[2].startswith("50,")


def test_boxsum_summary(capsys):
    code, out, _ = run(capsys, "integers", "boxsum", "--x", "50,50",
                       "--k", "2")
    assert code == 0
    assert out.startswith("S=") and "residual_ratio=" in out


def test_series_verbs(capsys):
    code, out, _ = run(capsys, "series", "a0", "--p", "3", "--k", "2",
                       "--vmax", "4")
    assert code == 0 and out.strip() == "242/243"
    code, out, _ = run(capsys, "series", "direct", "--s", "2,2",
                       "--nmax", "100")
    assert code == 0 and out.startswith("value=") and "tail=" in out
    code, out, _ = run(capsys, "series", "direct", "--s", "2,2",
                       "--nmax", "1")
    assert code == 0 and out.startswith("value=1 ")
    code, out, _ = run(capsys, "series", "primesum", "--model", "uniform",
                       "--k", "2", "--j", "0", "--s", "2", "--pmax", "500")
    assert code == 0 and out.strip() == "0"


def test_sample_csv_deterministic(capsys):
    args = ("dirichlet", "sample", "--alpha", "0.5,0.5", "--samples", "4",
            "--seed", "3")
    code, out, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0 and out == out2
    lines = out.strip().split("\n")
    assert lines[0] == "t_1,t_2" and len(lines) == 5


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.startswith("dirlaw ")
