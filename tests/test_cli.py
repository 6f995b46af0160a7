import ast
import cmath
import concurrent.futures
import csv
import hashlib
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest

from cftorus import cli, exterior, floer, oracle, scalars
from cftorus.cli import main, parse_holonomy, parse_spin


# child interpreters import the same cftorus, with or without PYTHONPATH
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")])))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hf_exact_brane_point(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--spin", "0",
                                    "--holonomy", "1/3,1/3"])
    assert code == 0
    record = json.loads(out)
    assert record["nonvanishing"] is True
    assert record["ranks_by_lambda_degree"] == [1, 2, 1]
    assert record["backend"] == "exact"


def test_hf_twisted_spin_vanishes(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--spin", "{1}"])
    assert code == 0
    assert json.loads(out)["nonvanishing"] is False


def test_hf_n1_twisted_spin_survives(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "1", "--spin", "{1}"])
    assert code == 0
    assert json.loads(out)["nonvanishing"] is True


def test_hf_sign_vector_spin(capsys):
    # leading-dash values need the = form so argparse keeps them as values
    code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--spin=-1,-1,1"])
    assert code == 0
    assert json.loads(out)["spin"] == [-1, -1, 1]


def test_hf_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, ["hf", "--n", "2", "--holonomy", "1/3"])
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(capsys):
    assert main(["hf"]) == 2  # missing --n
    capsys.readouterr()


def test_hf_approx_holonomy(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "2",
                                    "--holonomy", "0.6,0.8;1.0,0.0"])
    assert code == 0
    record = json.loads(out)
    assert record["backend"] == "approx"
    assert record["nonvanishing"] is False


def test_mixed_holonomy_promoted_with_warning(capsys):
    code, out, err = run_cli(capsys, ["hf", "--n", "2",
                                      "--holonomy", "1/3;0.6,0.8"])
    assert code == 0
    assert "promoted" in err
    assert json.loads(out)["backend"] == "approx"


def test_backend_exact_rejects_decimals(capsys):
    code, _, err = run_cli(capsys, ["hf", "--n", "1", "--backend", "exact",
                                    "--holonomy", "0.6,0.8"])
    assert code == 2
    assert "exact" in err


def test_backend_approx_forces_promotion(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--backend", "approx",
                                    "--holonomy", "1/3,1/3"])
    assert code == 0
    record = json.loads(out)
    assert record["backend"] == "approx"
    assert record["nonvanishing"] is True


def test_spin_scan_counts(capsys):
    code, out, err = run_cli(capsys, ["spin-scan", "4"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 16
    assert sum(r["nonvanishing"] for r in records) == 1
    assert "nonvanishing: 1 of 16" in err


def test_spin_scan_n5_two_survivors(capsys):
    code, out, _ = run_cli(capsys, ["spin-scan", "5"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r["nonvanishing"] for r in records) == 2


def test_brane_scan_n3(capsys):
    code, out, err = run_cli(capsys, ["brane-scan", "3"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 64
    hits = [r for r in records if r["nonvanishing"]]
    assert len(hits) == 4
    for r in hits:
        assert len(set(r["holonomy"])) == 1


def test_scan_guards(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused size reached evaluate_cell")

    monkeypatch.setattr(cli, "evaluate_cell", never)
    code, _, err = run_cli(capsys, ["hf", "--n", "13"])
    assert code == 2
    assert err == "hf supports 1 <= --n <= 12; got --n=13\n"
    code, _, err = run_cli(capsys, ["hf", "--n", "0"])
    assert code == 2 and "got --n=0" in err
    code, _, err = run_cli(capsys, ["spin-scan", "13"])
    assert code == 2
    assert err == "spin-scan supports 1 <= n <= 12 (2^n cells); got n=13\n"
    code, _, err = run_cli(capsys, ["brane-scan", "7"])
    assert code == 2
    assert err == "brane-scan supports 1 <= n <= 6 ((n+1)^n cells); got n=7\n"
    code, _, err = run_cli(capsys, ["brane-scan", "0"])
    assert code == 2 and "got n=0" in err


@pytest.mark.parametrize("argv,named", [
    (["spin-scan", "2", "--jobs", "0"], "--jobs"),
    (["brane-scan", "2", "--jobs", "-4"], "--jobs"),
    (["spin-scan", "2", "--tol", "-1"], "--tol"),
    (["spin-scan", "2", "--tol", "0"], "--tol"),
    (["hf", "--n", "2", "--tol", "nan"], "--tol"),
    (["maslov-check", "--count", "1", "--tol", "inf"], "--tol"),
    (["hf", "--n", "2", "--holonomy", "nan,0"], "nan"),
    (["maslov-check", "--count", "-5"], "--count"),
    (["hf", "--n", "2", "--holonomy=0.6,0.8,1;1,0"], "'0.6,0.8,1'"),
    (["hf", "--n", "2", "--holonomy=0.6,;1,0"], "'0.6,'"),
    (["hf", "--n", "2", "--spin", "a"], "--spin entry 'a'"),
    (["hf", "--n", "2", "--spin", "1,x"], "--spin entry 'x'"),
    (["hf", "--n", "2", "--spin", "0.5"], "--spin entry '0.5'"),
    (["hf", "--n", "2", "--spin", "5"], "--spin entry '5'"),
    (["hf", "--n", "2", "--holonomy", "1/2012,1/21"], "--holonomy"),
    (["hf", "--n", "1", "--holonomy", "a"],
     "holonomy entry 'a' is not p/q, re,im or a real number"),
    (["hf", "--n", "1", "--holonomy", "1/x"],
     "holonomy entry '1/x' is not p/q, re,im or a real number"),
    (["hf", "--n", "1", "--holonomy", "1/-3"],
     "holonomy entry '1/-3' is not p/q, re,im or a real number"),
    (["maslov-check", "--count", "2", "--tol", "2"],
     "disc 1 of 2 (n=4, --seed 0, --tol 2): curve sample within 2 of zero"),
    # n tokens are a twisted subset, which names each index once
    (["hf", "--n", "3", "--spin", "1,1,1"],
     "--spin entry '1' repeats index 1 of the twisted subset"),
    (["hf", "--n", "3", "--spin", "{2,3,02}"],
     "--spin entry '02' repeats index 2 of the twisted subset"),
])
def test_bad_inputs_exit_2_naming_them(capsys, argv, named):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert named in err


def equal_weight_holonomy(n, size):
    """--holonomy with every h_j = e^(i theta), so that h_0 = e^(-i n theta)
    and every weight v_j = h_j - h_0 has modulus `size`."""
    h = cmath.exp(2j * math.asin(size / 2) / (n + 1))
    return ";".join(["%r,%r" % (h.real, h.imag)] * n)


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_hf_refuses_cells_inside_the_vanishing_band(capsys, n, tol):
    # every |v_j| = 0.8 tol puts max|v_j| < tol < |v|_2: the closed form reads
    # zero weights and the SVD route does not, so the cell is refused
    def hf(size):
        return run_cli(capsys, ["hf", "--n", str(n), "--tol", repr(tol),
                                "--holonomy", equal_weight_holonomy(n, size)])

    code, out, err = hf(0.8 * tol)
    assert code == 2 and out == ""
    assert "holonomy lies within tolerance of a vanishing transition" in err
    # just below the band (|v|_2 = 0.9 tol) every weight reads zero, just
    # above it (every |v_j| = 1.1 tol) none does, and both routes agree
    for size, table in ((0.9 * tol / math.sqrt(n), [math.comb(n, k) for k in range(n + 1)]),
                        (1.1 * tol, [0] * (n + 1))):
        code, out, err = hf(size)
        assert (code, err) == (0, "")
        assert json.loads(out)["ranks_by_lambda_degree"] == table


def test_cell_refusals_name_the_cell(capsys, monkeypatch):
    # the approximate refusal names the cell it refused
    code, out, err = run_cli(capsys, ["hf", "--n", "2", "--tol", "1e-6",
                                      "--holonomy", equal_weight_holonomy(2, 0.8e-6)])
    assert (code, out) == (2, "")
    assert "holonomy lies within tolerance of a vanishing transition" in err
    assert "(spin 1,1,1, holonomy %s)" % equal_weight_holonomy(2, 0.8e-6).replace(
        ";", " ") in err
    # an exact cell whose two rank routes disagree is a failed check: exit 1
    # with a message naming the cell, and no traceback
    monkeypatch.setattr(floer, "floer_ranks_closedform",
                        lambda w, tol: floer.RankTable((0,) * (w.n + 1)))
    code, out, err = run_cli(capsys, ["brane-scan", "2"])
    assert (code, out) == (1, "")
    assert err == ("error: brute-force and closed-form rank tables disagree: "
                   "RankTable(by_lambda_degree=(1, 2, 1)) vs "
                   "RankTable(by_lambda_degree=(0, 0, 0)) "
                   "(spin 1,1,1, holonomy 0/1 0/1)\n")
    # a closed form that reads every cell as nonvanishing agrees with the
    # first spin structure and fails the second, after one record
    monkeypatch.setattr(floer, "floer_ranks_closedform",
                        lambda w, tol: floer.RankTable((1, 3, 3, 1)))
    code, out, err = run_cli(capsys, ["spin-scan", "3"])
    assert code == 1 and out.count("\n") == 1
    assert err.startswith("error: brute-force and closed-form rank tables disagree")
    assert err.endswith("(spin -1,-1,1,1, holonomy 0/1 0/1 0/1)\n")


def test_a_failed_square_zero_check_exits_1_naming_the_cell(capsys, monkeypatch):
    # wedge rows whose sign never flips: D_1 o D_0 holds 2 v_i v_j, not zero
    wedge = exterior.wedge_by_vector

    def never_flipping(v, k):
        cols = exterior.index_sets(len(v), k)
        return [{c: v[min(set(J) - set(cols[c])) - 1] for c in row}
                for J, row in zip(exterior.index_sets(len(v), k + 1), wedge(v, k))]

    monkeypatch.setattr(exterior, "wedge_by_vector", never_flipping)
    monkeypatch.setattr(oracle, "wedge_by_vector", never_flipping)
    code, out, err = run_cli(capsys, ["brane-scan", "2"])
    assert (code, out.count("\n")) == (1, 1)
    assert err == ("error: composite D_1 o D_0 is not zero "
                   "(spin 1,1,1, holonomy 0/1 1/3)\n")
    code, out, err = run_cli(capsys, ["hf", "--n", "3", "--spin", "{1}",
                                      "--holonomy", "0.6,0.8;0,1;-1,0"])
    assert (code, out) == (1, "")
    assert err == ("error: composite D_1 o D_0 is not zero "
                   "(spin -1,-1,1,1, holonomy 0.6,0.8 0.0,1.0 -1.0,0.0)\n")
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 1
    assert "FAIL coboundary squares to zero: n=3, v=2,-3,-3: " \
        "composite D_1 o D_0 is not zero\n" in out
    assert "FAIL brane count n=2: composite D_1 o D_0 is not zero (spin 1,1,1, " \
        "holonomy 0/1 1/3)\n" in out


def test_holonomy_lcm_cap(capsys, monkeypatch):
    # the cap is on the lcm of the denominators, not on the largest one
    for text in ("1/720,1/1", "1/80,1/9"):
        code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--holonomy", text])
        assert code == 0 and json.loads(out)["backend"] == "exact"

    def never(*args, **kwargs):
        raise AssertionError("a refused holonomy reached the exact backend")

    monkeypatch.setattr(floer.HolonomyAssignment, "from_angles", never)
    for text, order in (("1/721,0/1", 721), ("1/80,1/11", 880)):
        code, out, err = run_cli(capsys, ["hf", "--n", "2", "--holonomy", text])
        assert (code, out) == (2, "")
        assert err == ("error: --holonomy denominators have lcm %d; the exact "
                       "backend takes at most 720\n" % order)
    # the approximate backend does not build Q(zeta_m) and takes the entries
    code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--backend", "approx",
                                    "--holonomy", "1/721,0/1"])
    assert code == 0 and json.loads(out)["backend"] == "approx"


@pytest.mark.parametrize("argv", [
    ["--n", "7", "--holonomy", "1/5,1/7,1/19,1/35,1/95,1/133,1/665"],
    ["--n", "6", "--holonomy", "1/23,1/31,1/713,2/713,3/713,4/713"],
    ["--n", "3", "--spin", "{1}", "--holonomy", "1/694,2/694,693/694"],
    ["--n", "3", "--spin", "{1}", "--holonomy", "1/718,2/718,717/718"],
])
def test_holonomy_queries_below_the_cap_finish_within_1s(capsys, argv):
    # the README's budget for accepted --holonomy queries, timed cold:
    # Phi_m and the prime field for the lcm are built inside the clock
    scalars.cyclotomic_polynomial.cache_clear()
    scalars.prime_field.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["hf"] + argv)
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["backend"] == "exact"
    assert elapsed < 1.0, elapsed


#: unit holonomies none of which is 1, so every weight v_j is nonzero
APPROX_12 = ("0.6,0.8;0.8,0.6;-0.6,0.8;0.6,-0.8;-0.8,-0.6;0,1;0,-1;-1,0;"
             "0.28,0.96;0.96,0.28;-0.28,0.96;0.96,-0.28")


def test_hf_largest_n_finishes_within_budget(capsys):
    # the README's budget for the largest accepted hf, on both backends
    for argv, backend in ((["--spin", "{1}"], "exact"),
                          (["--holonomy", APPROX_12], "approx")):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["hf", "--n", "12"] + argv)
        elapsed = time.perf_counter() - start
        record = json.loads(out)
        assert code == 0 and record["backend"] == backend
        assert record["nonvanishing"] is False
        assert elapsed < 20.0, (argv, elapsed)


# pieces the spin and holonomy parsers split on or treat specially
SWEEP_PIECES = ("1", "-1", "0", "2", "/", ",", ";", "{", "}", "nan", "inf",
                "1e400", "0.6", "a")


@pytest.mark.parametrize("option", ["--spin", "--holonomy"])
def test_hf_parser_sweep(capsys, option):
    # every string is answered or refused with exit 2, and a refusal names
    # the option or quotes the part of the input it could not read
    rng = random.Random(17)
    for _ in range(250):
        text = "".join(rng.choice(SWEEP_PIECES)
                       for _ in range(rng.randint(1, 8)))
        code, out, err = run_cli(capsys, ["hf", "--n", "2",
                                          "%s=%s" % (option, text)])
        assert code in (0, 2), text
        if code == 2:
            assert out == "", text
            quoted = re.findall(r"'([^']+)'", err)
            assert (option.lstrip("-") in err
                    or any(q in text for q in quoted)), (text, err)


# values for each option of each command, (valid, invalid): out of range
# or not a value at all.  Scans stay at n <= 3 or are refused, --jobs at 2
# or below and --count at 5 or below, so the sweep stays fast and starts at
# most two worker processes at a time.
ARGV_SWEEP_VALUES = {
    "--n": (["1", "2", "3"], ["0", "13", "-1", "x", ""]),
    "n": (["1", "2", "3"], ["0", "7", "13", "-2", "x", "1.5", ""]),
    "--spin": (["0", "{1}", "1,2", "-1,-1,1"], ["1,1", "5", "a", "{", ""]),
    "--holonomy": (["1/3,1/3", "1/2,0/1", "0.6,0.8;1,0", "1/3;0.6,0.8", "1,-1"],
                   ["5,0;3,0", "nan,0", "1/0", "1/x", "1/2012,1/21", "a", ""]),
    "--backend": (["exact", "approx"], ["fast"]),
    "--tol": (["1e-9", "1e-6", "0.5", "1e-300"],
              ["0", "-1", "1", "100", "nan", "inf", "x"]),
    "--format": (["json", "csv"], ["xml"]),
    "--jobs": (["1", "2"], ["0", "-3", "x"]),
    "--count": (["0", "1", "5"], ["-1", "x"]),
    "--seed": (["0", "7", "-3"], ["x"]),
}
ARGV_SWEEP_OPTIONS = {
    "hf": ["--n", "--spin", "--holonomy", "--backend", "--tol", "--format"],
    "spin-scan": ["n", "--tol", "--format", "--jobs"],
    "brane-scan": ["n", "--tol", "--format", "--jobs"],
    "maslov-check": ["--count", "--seed", "--tol"],
    "selftest": ["--tol"],
}
CF_TOL_SWEEP = ([None] * 6) + ["1e-9", "1e-4", "0", "nan", "abc", "100"]


def sweep_argv(rng):
    """A command with each of its options present or not, and a value for
    each; maslov-check always gets its --count, and some argv lists carry
    an option of another command."""
    command = rng.choices(list(ARGV_SWEEP_OPTIONS), weights=[12, 5, 5, 3, 1])[0]
    argv = [command]
    for option in ARGV_SWEEP_OPTIONS[command]:
        present = 0.9 if option in ("n", "--n") else 0.5
        if option == "--count" or rng.random() < present:
            value = rng.choice(ARGV_SWEEP_VALUES[option][rng.random() < 0.2])
            argv.append(value if option == "n" else "%s=%s" % (option, value))
    if rng.random() < 0.05:
        argv.append(rng.choice(["--jobs=2", "--seed=1", "--backend=exact"]))
    return argv


def names_an_input(err, argv, env_tol):
    """Whether a refusal names an option of argv (or CF_TOL when it is set)
    or quotes a token of argv, or a part of one."""
    names = [t.split("=", 1)[0] for t in argv[1:] if t.startswith("--")]
    names += ["holonomy"] if "--holonomy" in names else []
    names += ["CF_TOL", "--tol"] if env_tol is not None else []
    if any(name in err for name in names):
        return True
    if argv[0].endswith("-scan") and re.search(r"\bn\b", err):
        return True  # the positional n
    values = [t.split("=", 1)[-1] for t in argv]
    return any(q in values or (q and any(q in t for t in argv))
               for q in re.findall(r"'([^']*)'", err))


def test_argv_sweep_over_every_command(capsys, monkeypatch):
    # each argv list is answered (0), fails a check (1) or is refused (2)
    # with a message naming what it refused; no exception escapes, and an
    # answered hf prints one record with the seven README fields
    rng = random.Random(22)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        argv = sweep_argv(rng)
        env_tol = rng.choice(CF_TOL_SWEEP)
        if env_tol is None:
            monkeypatch.delenv("CF_TOL", raising=False)
        else:
            monkeypatch.setenv("CF_TOL", env_tol)
        code, out, err = run_cli(capsys, argv)
        assert code in codes, (argv, env_tol, code)
        codes[code] += 1
        if code == 2:
            assert out == "", (argv, env_tol)
            assert names_an_input(err, argv, env_tol), (argv, env_tol, err)
        elif code == 0 and argv[0] == "hf":
            lines = out.splitlines()
            if "--format=csv" in argv:
                assert lines[0] == ",".join(cli.CSV_FIELDS), argv
                lines = lines[1:]
                assert len(lines) == 1 and lines[0].endswith((",exact", ",approx"))
            else:
                assert len(lines) == 1
                assert set(json.loads(lines[0])) == set(cli.CSV_FIELDS), argv
    assert min(codes[0], codes[2]) > 50, codes


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
def test_bad_tol_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("CF_TOL", value)
    code, out, err = run_cli(capsys, ["spin-scan", "2"])
    assert code == 2
    assert out == ""
    assert "CF_TOL" in err and value in err


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "1", "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("n,spin,holonomy")
    assert row.startswith("1,+1 +1,0/1,1 1,1 1,true,exact")


def test_maslov_check_empty_report(capsys):
    code, out, _ = run_cli(capsys, ["maslov-check", "--count", "0"])
    assert code == 0
    record = json.loads(out)
    assert record["checked"] == 0 and record["mismatches"] == []


def test_maslov_check_passes(capsys):
    code, out, _ = run_cli(capsys, ["maslov-check", "--count", "20",
                                    "--seed", "5"])
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_maslov_check_deterministic_bytes():
    cmd = [sys.executable, "-m", "cftorus", "maslov-check",
           "--count", "15", "--seed", "9"]
    first = subprocess.run(cmd, capture_output=True, check=True,
                           env=CHILD_ENV)
    second = subprocess.run(cmd, capture_output=True, check=True,
                           env=CHILD_ENV)
    assert first.stdout == second.stdout


# a fresh interpreter imports cftorus, then cftorus.cli, then runs each
# command in turn, and reports after each step whether a module is loaded
LOADED_PROBE = """
import contextlib, io, json, sys
module = sys.argv[1]
import cftorus
loaded = [module in sys.modules]
from cftorus import cli
loaded.append(module in sys.modules)
sink = io.StringIO()
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert cli.main(argv) == 0, argv
    loaded.append(module in sys.modules)
print(json.dumps(loaded))
"""


def loaded_after(module, *commands):
    done = subprocess.run([sys.executable, "-c", LOADED_PROBE, module,
                           json.dumps(commands)],
                          capture_output=True, text=True, check=True,
                          env=CHILD_ENV)
    return json.loads(done.stdout)


def test_exact_commands_never_import_numpy():
    exact = [["hf", "--n", "3", "--spin", "{2}", "--holonomy", "1/3,1/3,1/3"],
             ["spin-scan", "3"], ["brane-scan", "2"]]
    approx = ["hf", "--n", "2", "--holonomy", "0.6,0.8;0.6,-0.8"]
    assert loaded_after("numpy", *exact, approx) == [False] * 5 + [True]
    assert loaded_after("numpy", ["maslov-check", "--count", "1"]) == [False, False, False]
    # serial commands never load the process pool either
    assert loaded_after("concurrent.futures.process", *exact) == [False] * 5


#: the functions of src/cftorus that import numpy; the rest of the package
#: runs on the standard library
NUMPY_SITES = {
    "exterior._rank_svd",
    "maslov.LagrangianFrame.__post_init__", "maslov._check_unitary",
    "maslov._plane_invariants", "maslov._stack_maslov",
    "maslov.diag_phase_frame", "maslov.loop_maslov",
}


def numpy_import_sites(path):
    """Qualified names of the scopes of a module that import numpy; an
    import under `if TYPE_CHECKING:` never runs and is skipped."""
    module = os.path.splitext(os.path.basename(path))[0]
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and getattr(child.test, "id", "") == "TYPE_CHECKING":
                continue  # never runs
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            modules = []
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            if any(m.split(".")[0] == "numpy" for m in modules):
                sites.add(".".join([module] + scope))
            visit(child, scope)

    with open(path) as source:
        visit(ast.parse(source.read()), [])
    return sites


def test_numpy_is_imported_only_where_pinned():
    src = os.path.dirname(cli.__file__)
    sites = set()
    for name in os.listdir(src):
        if name.endswith(".py"):
            sites |= numpy_import_sites(os.path.join(src, name))
    assert sites == NUMPY_SITES


#: what tests/reference.py may import from cftorus: index bookkeeping and
#: scalar conversions, never a routine that the references check
REFERENCE_IMPORTS = {
    ("cftorus.exterior", "index_sets"), ("cftorus.exterior", "_basis_positions"),
    ("cftorus.scalars", "DEFAULT_TOL"), ("cftorus.scalars", "scalar_is_zero"),
    ("cftorus.scalars", "scalar_to_complex"),
}


def test_reference_imports_only_bookkeeping_from_cftorus():
    path = os.path.join(os.path.dirname(__file__), "reference.py")
    with open(path) as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cftorus"):
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("cftorus") for a in node.names), \
                [a.name for a in node.names]
    assert imported <= REFERENCE_IMPORTS, imported - REFERENCE_IMPORTS


def test_import_cftorus_loads_no_submodule():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cftorus; "
         "print([m for m in sys.modules if m.startswith('cftorus.')])"],
        capture_output=True, text=True, check=True, env=CHILD_ENV)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("module", ["cftorus.floer", "cftorus.exterior",
                                    "cftorus.scalars", "cftorus.oracle",
                                    "cftorus.signs", "dataclasses", "inspect",
                                    "fractions", "decimal"])
def test_maslov_check_never_loads_the_exact_stack(module):
    assert loaded_after(module, ["maslov-check", "--count", "1"]) == [False] * 3


#: every public name of the cftorus package, as exported when all of its
#: submodules were imported eagerly
PUBLIC_NAMES = """
    ApproxComplex BlaschkeComponent BlaschkeDisc BlaschkeFactor ChartError
    Cyclotomic DEFAULT_TOL DegenerateDiscError
    FrameError FrameLoop GradedMatrixComplex HolonomyAssignment
    HomotopyClass LagrangianFrame MoebiusMap NotAComplexError
    OrientedFactor OrientedFactorization RankTable SpinStructure
    UndersampledLoopError WeightVector b_map boundary_fibre_signs brane_configs
    cohomology_ranks
    disc_boundary_maslov disc_eval disc_make discs evaluate_cell
    exterior floer
    floer_ranks_bruteforce floer_ranks_closedform gluing_sign
    homotopy_class index_sets koszul_complex koszul_rescale_check
    loop_maslov maslov maslov_index moduli_dim oracle permute_sign psl2_act rank
    root_of_unity scalar_is_zero scalars signs simplex_coboundary
    solve_disc_through_point spin_configs squarezero_chain
    standard_spin wedge_by_vector weights winding_number
""".split()


def test_public_names_still_resolve():
    import cftorus

    assert sorted(cftorus.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(cftorus))
    for name in PUBLIC_NAMES:
        assert getattr(cftorus, name) is not None, name
    assert cftorus.disc_eval is cftorus.discs.disc_eval
    assert cftorus.winding_number is cftorus.maslov.winding_number
    with pytest.raises(AttributeError, match="no_such_name"):
        cftorus.no_such_name
#: every public callable's parameters, defaults included, with annotations
#: left out; None for exception classes, which take the builtin's arguments.
#: A signature change has to edit this table.
PUBLIC_SIGNATURES = {
    'ApproxComplex': '(real=0.0, imag=0.0)',
    'BlaschkeComponent': '(theta=0.0, factors=())',
    'BlaschkeDisc': '(components, tol=1e-09)',
    'BlaschkeFactor': '(alpha, exact=None)',
    'ChartError': None,
    'Cyclotomic': '(order, coeffs)',
    'DegenerateDiscError': None,
    'FrameError': None,
    'FrameLoop': '(frames)',
    'GradedMatrixComplex': '(matrices, modulus=None)',
    'HolonomyAssignment': '(h=None, h0=None, angles=None, tol=1e-09)',
    'HomotopyClass': '(mu)',
    'LagrangianFrame': '(matrix, tol=1e-09)',
    'MoebiusMap': '(theta=0.0, a=0j)',
    'NotAComplexError': None,
    'OrientedFactor': '(label, dim)',
    'OrientedFactorization': '(factors)',
    'RankTable': '(by_lambda_degree)',
    'SpinStructure': '(eps)',
    'UndersampledLoopError': None,
    'WeightVector': '(c, v)',
    'b_map': '(frame, tol=1e-09)',
    'boundary_fibre_signs': '(x, l)',
    'brane_configs': '(n)',
    'cohomology_ranks': '(cx, tol=1e-09)',
    'disc_boundary_maslov': '(d, tol=1e-09, samples=256, max_samples=16384)',
    'disc_eval': '(d, z)',
    'disc_make': '(components, tol=1e-09)',
    'evaluate_cell': '(spin, holonomy, tol=1e-09)',
    'floer_ranks_bruteforce': '(w, tol=1e-09)',
    'floer_ranks_closedform': '(w, tol=1e-09)',
    'gluing_sign': '(dim_l)',
    'homotopy_class': '(d)',
    'index_sets': '(n, k)',
    'koszul_complex': '(v, modulus=None)',
    'koszul_rescale_check': '(w, tol=1e-09)',
    'loop_maslov': '(loop, tol=1e-09, step_limit=3.141592653589793)',
    'maslov_index': '(d)',
    'moduli_dim': '(n, mu, marked_points=2)',
    'permute_sign': '(f, perm)',
    'psl2_act': '(d, phi, tol=1e-09)',
    'rank': '(matrix, tol=1e-09, modulus=None)',
    'root_of_unity': '(p, q)',
    'scalar_is_zero': '(x, tol=1e-09)',
    'simplex_coboundary': '(n, k)',
    'solve_disc_through_point': '(class_index, target, tol=1e-09)',
    'spin_configs': '(n)',
    'squarezero_chain': '(n, mu_a)',
    'standard_spin': '(n)',
    'wedge_by_vector': '(v, k)',
    'weights': '(spin, holonomy)',
    'winding_number': '(samples, tol=1e-09, step_limit=3.141592653589793, residue_limit=0.1)',
}


def plain_signature(obj):
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    empty = inspect.Parameter.empty
    return str(sig.replace(
        parameters=[p.replace(annotation=empty) for p in sig.parameters.values()],
        return_annotation=empty))


def test_public_signatures_are_pinned():
    import cftorus

    callables = {name: getattr(cftorus, name) for name in cftorus.__all__
                 if callable(getattr(cftorus, name))
                 and not inspect.ismodule(getattr(cftorus, name))}
    assert {name: plain_signature(obj) for name, obj in callables.items()} == \
        PUBLIC_SIGNATURES


def test_sizes_and_backends_are_not_parameters():
    # each of these reads n from its data and exactness from its entries
    from cftorus import exterior, oracle

    for obj in (exterior.wedge_by_vector, exterior.koszul_complex,
                exterior.GradedMatrixComplex, floer.floer_ranks_bruteforce,
                floer.floer_ranks_closedform, floer.RankTable, floer.ScanCell,
                floer.WeightVector, floer.HolonomyAssignment,
                oracle.koszul_rescale_check):
        params = inspect.signature(obj).parameters
        assert not {"n", "exact"} & set(params), (obj.__name__, list(params))


# golden corpus: sha256 of the json and csv stdout, and the stderr summary,
# of each scan; serial and pooled runs must both reproduce them byte for byte
SCAN_GOLDEN = {
    ("spin-scan", 1): (
        "95e82db2145278b1c3f267f2146681cb1eafe61d9eaa91362e91319fcff0263f",
        "0056e8afa80927626669896691087421763b29078b1b9b0dc5ffa91259de19d9",
        "nonvanishing: 2 of 2 spin structures\n"),
    ("spin-scan", 2): (
        "0b109948ce177356a6bb791e04a6b283631583b99f06bfd62a147528b28e7883",
        "52fcdd9a5f326948f584da977065057fbc4beefbe1dfdc2a7a1e31af2847f11c",
        "nonvanishing: 1 of 4 spin structures\n"),
    ("spin-scan", 3): (
        "d71b30078b047e0172e8872df8d2003c594e24ba6edd4b127d25294bbdf089aa",
        "b12593cc85628af3edefb4accac0189d51325c238e1d611d78049ab135683a8a",
        "nonvanishing: 2 of 8 spin structures\n"),
    ("spin-scan", 4): (
        "fb6bcca9fb3e987a9271547689c199a123cceb8c837210833f61b7e4ed2b4efa",
        "445394ebc581f51eadaf0fc3ab84e122328cfd28434c5725c25da82d509e0113",
        "nonvanishing: 1 of 16 spin structures\n"),
    ("spin-scan", 5): (
        "d9ab9e20778b76d774a2c9a3ddaeedb81fc4a183593ce959dae4048741d2bc21",
        "c4bee2344dddc171bdac4939bb5ad9f3081ba4135e6b1d9e9436bc99f5dd3827",
        "nonvanishing: 2 of 32 spin structures\n"),
    ("spin-scan", 6): (
        "19213afbfd188d5466026a59da1eba805bfe1cb6d888b7ca90dee6e1724759b8",
        "c947513fd7da87cad376297ad3be4b19cf222c1647fafa070f2288e05d2cbdae",
        "nonvanishing: 1 of 64 spin structures\n"),
    ("brane-scan", 1): (
        "2ef9f21d92bb0ecbb0912312d006a3aaee7b21ef5835d4cd1bf8289f78df9a33",
        "196d5a45e9e4d1c8fc2e4b77b1b91ac21b572b66346bb72692436bde8aca332f",
        "nonvanishing: 2 of 2 holonomy assignments\n"),
    ("brane-scan", 2): (
        "b4c34e4e79a7032210f420cb2a452e5bed45a24f1f34e1b64ecc10b80bd4f2f8",
        "08c62708bfd6fb494950cb69949417d191eff9ce091a2ddf885c4a91a16cb8d0",
        "nonvanishing: 3 of 9 holonomy assignments\n"),
    ("brane-scan", 3): (
        "518910c47215d89385cd2fb3a01b76447c70cce80e33a6267e09d15ed181c368",
        "54e24c13847faefcb2f76a31bf28c4ad63b58b6a44f82e681a36676f3bbfaa3c",
        "nonvanishing: 4 of 64 holonomy assignments\n"),
    ("brane-scan", 4): (
        "88529ddb7fd579da040fa69291569bb3b6870060f0acad0cd7f62865d233e3ff",
        "d2c4b455177d2f03e4bff70a2e64a041510c1aa7ebc85a6012f7b17b2aeab710",
        "nonvanishing: 5 of 625 holonomy assignments\n"),
}


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "jobs2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command,n", list(SCAN_GOLDEN),
                         ids=["%s-%d" % key for key in SCAN_GOLDEN])
def test_scan_golden_corpus(capsys, command, n, fmt, jobs):
    json_sha, csv_sha, summary = SCAN_GOLDEN[command, n]
    code, out, err = run_cli(capsys, [command, str(n), "--format", fmt, *jobs])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        json_sha if fmt == "json" else csv_sha)
    assert err == summary


# full-size serial json digests, taken from the dense route before the sparse
# elimination kernel replaced it; spin-scan 8 is also the benchmark's digest
FULL_SIZE_GOLDEN = {
    ("spin-scan", 7): (
        "68bd97cddd6edd704f9490d5ec53093747de4d6b40244861e29bd97236fb4d3f",
        "nonvanishing: 2 of 128 spin structures\n"),
    ("spin-scan", 8): (
        "28a51066fe4b6f0e7b0c3fc3732e84df14e1eea5cc3ab37d458113eb02bf821c",
        "nonvanishing: 1 of 256 spin structures\n"),
}


@pytest.mark.parametrize("command,n", list(FULL_SIZE_GOLDEN),
                         ids=["%s-%d" % key for key in FULL_SIZE_GOLDEN])
def test_full_size_scan_golden(capsys, command, n):
    digest, summary = FULL_SIZE_GOLDEN[command, n]
    code, out, err = run_cli(capsys, [command, str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == summary


def test_spin_scan_10_over_two_jobs_matches_the_dense_route_digest(capsys):
    # 1,024 cells at n = 10, against the json digest the dense route printed
    # before the wedge matrices were built as sparse rows
    code, out, err = run_cli(capsys, ["spin-scan", "10", "--jobs", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "08e194ae5eae9e573a2dc1bfd55d1fb898a0e5ee3686c93533ec8be64d70c44f")
    assert err == "nonvanishing: 1 of 1024 spin structures\n"


# the approximate hf path, pinned the same way; hf takes no --jobs, so these
# rows carry their whole argv: (argv, stdout sha256, stderr)
_H7 = ("-0.23279003514829782,-0.9725270173808306;0.5163846981207826,-0.85635672680648;"
       "0.8570116481647228,-0.5152970356114864;-0.7089889801092396,-0.7052195587784419;"
       "0.32046085796194723,-0.9472617581821261;-0.26799273258530176,0.9634209335910565;"
       "-0.6901954679330538,-0.7236229792127065")
HF_APPROX_GOLDEN = {
    "pairs-json": (
        ["hf", "--n", "2", "--holonomy", "0.6,0.8;1.0,0.0"],
        "1fba33e64eaf79a0bfd739e9985b81a29b1e6bb34cb1bf926074fea7e8c84a37", ""),
    "pairs-csv": (
        ["hf", "--n", "2", "--holonomy", "0.6,0.8;1.0,0.0", "--format", "csv"],
        "a6b8e91f5e48fdc19589aa875be81cf33d6cb8de22c156b8b06b1d3e53d0479a", ""),
    "bare-run": (
        ["hf", "--n", "2", "--holonomy", "0.6,0.8,1.0,0.0"],
        "1fba33e64eaf79a0bfd739e9985b81a29b1e6bb34cb1bf926074fea7e8c84a37", ""),
    "mixed": (
        ["hf", "--n", "2", "--holonomy", "1/3;0.6,0.8"],
        "58937afcbcc521bdd3dc847d72757a874f2f38dc3719f37e8f7823ba90828a57",
        "warning: mixed holonomy formats; promoted to the approximate backend\n"),
    "backend-approx": (
        ["hf", "--n", "2", "--backend", "approx", "--holonomy", "1/3,1/3"],
        "4f97ab2de5b66ee09c6e787df15a2d551c7e8e901a7bc02f5211021006b9f017", ""),
    "n7-twisted": (
        ["hf", "--n", "7", "--spin", "1,2,3,4,5,6,7", "--holonomy=" + _H7],
        "f83e17863a089391374040d4a3d56b9c5201201039a5b457227e71854989a640", ""),
}


@pytest.mark.parametrize("case", list(HF_APPROX_GOLDEN))
def test_hf_approx_golden(capsys, case):
    argv, out_sha, want_err = HF_APPROX_GOLDEN[case]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert err == want_err


@pytest.mark.parametrize("argv", [
    ["hf", "--n", "2", "--holonomy", "0.6,0.8;1.0,0.0"],
    ["hf", "--n", "2", "--holonomy", "1/3;0.6,0.8"],
    ["hf", "--n", "7", "--spin", "1,2,3,4,5,6,7", "--holonomy=" + _H7],
    ["hf", "--n", "3", "--spin", "1,2,3", "--holonomy", "1/4,1/4,1/4"],
    ["spin-scan", "3"],
    ["brane-scan", "2"],
], ids=["approx-pairs", "mixed", "approx-n7", "exact-hf", "spin-scan", "brane-scan"])
def test_csv_rows_read_back_with_the_header_fields(capsys, argv):
    # approximate holonomies print as "re,im", so their field is quoted
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == list(cli.CSV_FIELDS)
    assert rows and all(len(row) == len(header) == 7 for row in rows)
    records = [json.loads(line) for line in run_cli(capsys, argv)[1].splitlines()]
    assert [row[2] for row in rows] == [" ".join(r["holonomy"]) for r in records]
    assert [row[6] for row in rows] == [r["backend"] for r in records]


# the exact hf path, pinned the same way: (argv, stdout sha256)
HF_EXACT_GOLDEN = {
    "n3-twisted": (
        ["hf", "--n", "3", "--spin", "{2}", "--holonomy", "1/3,1/3,1/3"],
        "a7a6e047a25306c1db7aee77c7c3b9b959cbacf1552d36c589981dd3c69346dd"),
    "n2-order-402": (
        ["hf", "--n", "2", "--holonomy", "1/201,1/2"],
        "6d03ac89426a8631d6fbad0927c3caf640cfc29f9963420c38c363caca4cf3f6"),
    "n3-all-twisted-csv": (
        ["hf", "--n", "3", "--spin", "1,2,3", "--holonomy", "1/4,1/4,1/4",
         "--format", "csv"],
        "5fe6ba8358b89ee3a39e9f0e077a1a1bb74d7f74b1fb840e0f0145597b649377"),
}


@pytest.mark.parametrize("case", list(HF_EXACT_GOLDEN))
def test_hf_exact_golden(capsys, case):
    argv, out_sha = HF_EXACT_GOLDEN[case]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert err == ""


# maslov-check reports, pinned the same way: seed -> stdout sha256 at --count 200
MASLOV_GOLDEN = {
    0: "23db338e9ba008f9fd89553d1530860b533f47a3c51414feaf48745159f138c1",
    1: "fd62f3c865992844f65a22773d76bc9c774bf473e794c21d926c26f2fbf35c29",
    2: "2d44a9700bceb824235e1ff07569fe72bee2774ade5b0de9229a54bc0b9458de",
}


@pytest.mark.parametrize("seed", list(MASLOV_GOLDEN))
def test_maslov_check_golden(capsys, seed):
    code, out, _ = run_cli(capsys, ["maslov-check", "--count", "200",
                                    "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MASLOV_GOLDEN[seed]


def test_scan_jobs_flag_keeps_output_order():
    # the same bytes through the console entry point, serial and pooled
    cmd = [sys.executable, "-m", "cftorus", "spin-scan", "3"]
    serial = subprocess.run(cmd, capture_output=True, check=True,
                           env=CHILD_ENV)
    parallel = subprocess.run(cmd + ["--jobs", "2"], capture_output=True,
                              check=True, env=CHILD_ENV)
    assert serial.stdout == parallel.stdout
    assert hashlib.sha256(serial.stdout).hexdigest() == SCAN_GOLDEN["spin-scan", 3][0]


@pytest.mark.parametrize("argv,digest", [
    (["hf", "--n", "3", "--spin", "{2}", "--holonomy", "1/3,1/3,1/3"],
     HF_EXACT_GOLDEN["n3-twisted"][1]),
    (["spin-scan", "4", "--jobs", "2"], SCAN_GOLDEN["spin-scan", 4][0]),
    (["brane-scan", "3", "--jobs", "2"], SCAN_GOLDEN["brane-scan", 3][0]),
], ids=["hf", "spin-scan-jobs2", "brane-scan-jobs2"])
def test_exact_commands_in_a_fresh_interpreter(argv, digest):
    # the exact stack is imported on demand, by the command and by the
    # workers of a pool; both must reach it from a fresh interpreter
    done = subprocess.run([sys.executable, "-m", "cftorus", *argv],
                          capture_output=True, check=True, env=CHILD_ENV)
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_a_closed_stdout_exits_141_without_a_traceback():
    # a reader that stops after one line, as `cftorus brane-scan 4 | head -1`
    # does: the scan's 111 kB of records overfill the pipe, so it is still
    # writing when the pipe closes
    proc = subprocess.Popen([sys.executable, "-m", "cftorus", "brane-scan", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=CHILD_ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert (proc.wait(timeout=60), err) == (141, "")
    assert json.loads(first)["holonomy"] == ["0/1"] * 4


def test_scan_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    # a recorder stands in for the pool, so no worker process starts
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, out, err = run_cli(capsys, ["spin-scan", "3", "--jobs", "64"])
    assert code == 0 and seen == [3]
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN["spin-scan", 3][0]
    assert err == SCAN_GOLDEN["spin-scan", 3][2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, out, _ = run_cli(capsys, ["spin-scan", "3", "--jobs", "64"])
    assert code == 0 and seen == [3]  # one CPU (or unknown) runs serially
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN["spin-scan", 3][0]


def count_brane_configs_drawn(monkeypatch):
    """Wrap floer.brane_configs; returns the list its configs are added to."""
    drawn, enumerate_configs = [], floer.brane_configs

    def counted(n):
        for config in enumerate_configs(n):
            drawn.append(config)
            yield config

    monkeypatch.setattr(floer, "brane_configs", counted)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    return drawn


def test_pooled_scan_streams_from_a_bounded_window(capsys, monkeypatch):
    # the pool draws cells in windows, so the first record is written after
    # two windows are built rather than after the whole enumeration
    drawn = count_brane_configs_drawn(monkeypatch)
    drawn_at_first_record, emit = [], cli._emit

    def first_noted(record, fmt):
        if not drawn_at_first_record:
            drawn_at_first_record.append(len(drawn))
        emit(record, fmt)

    monkeypatch.setattr(cli, "_emit", first_noted)
    code, out, err = run_cli(capsys, ["brane-scan", "4", "--jobs", "2"])
    assert (code, err) == (0, SCAN_GOLDEN["brane-scan", 4][2])
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN["brane-scan", 4][0]
    assert len(drawn) == 625
    assert drawn_at_first_record == [2 * cli.POOL_WINDOW] and 2 * cli.POOL_WINDOW < 625


def test_pooled_scan_stops_at_the_first_failing_cell(capsys, monkeypatch):
    # the first cell fails: the scan exits 1 naming it, having drawn no more
    # than the two windows in flight
    drawn = count_brane_configs_drawn(monkeypatch)
    monkeypatch.setattr(floer, "floer_ranks_closedform",
                        lambda w, tol: floer.RankTable((0,) * (w.n + 1)))
    code, out, err = run_cli(capsys, ["brane-scan", "4", "--jobs", "2"])
    assert (code, out) == (1, "")
    assert err == ("error: brute-force and closed-form rank tables disagree: "
                   "RankTable(by_lambda_degree=(1, 4, 6, 4, 1)) vs "
                   "RankTable(by_lambda_degree=(0, 0, 0, 0, 0)) "
                   "(spin 1,1,1,1,1, holonomy 0/1 0/1 0/1 0/1)\n")
    assert 0 < len(drawn) <= 2 * cli.POOL_WINDOW


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out


def test_selftest_fails_a_broken_check_under_python_O():
    # -O strips assert statements; the checks must fail without them
    script = ("import sys; from cftorus import cli, signs; "
              "signs.squarezero_chain = lambda n, mu: (1, 1); "
              "sys.exit(cli.main(['selftest']))")
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "ok   spin dichotomy ranks",
        "ok   brane count n=2",
        "ok   coboundary squares to zero",
        "FAIL square-zero sign chain: n=1, mu=2: coefficients (1, 1)",
        "ok   coboundary rescales to simplex",
        "ok   numeric vs combinatorial index",
        "ok   disc solver round-trip",
    ]


@pytest.mark.parametrize("argv,source", [
    # moduli 5 and 3 passed the unit-modulus check at --tol 100
    (["hf", "--n", "2", "--holonomy", "5,0;3,0", "--tol", "100"], "--tol"),
    (["hf", "--n", "2", "--tol", "1"], "--tol"),
    (["spin-scan", "2", "--tol", "1.5"], "--tol"),
    (["brane-scan", "2", "--tol", "1e300"], "--tol"),
    (["selftest", "--tol", "1"], "--tol"),
    (["spin-scan", "2"], "CF_TOL"),
])
def test_cell_commands_refuse_a_tolerance_of_one_or_more(capsys, monkeypatch,
                                                         argv, source):
    monkeypatch.setenv("CF_TOL", "100")
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s must be below 1, got " % source)


def test_tolerance_just_below_one_is_taken(capsys):
    code, out, _ = run_cli(capsys, ["hf", "--n", "2", "--tol", "0.999"])
    assert code == 0 and json.loads(out)["nonvanishing"] is True
    # maslov-check keeps its own refusal, by the disc check that names the disc
    code, _, err = run_cli(capsys, ["maslov-check", "--count", "1", "--tol", "1"])
    assert code == 2 and "--tol 1): curve sample within 1 of zero" in err


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CF_TOL", "0.5")
    # with an absurdly loose tolerance the nonunit entry is accepted
    code, out, _ = run_cli(capsys, ["hf", "--n", "1", "--holonomy", "0.8,0.0"])
    assert code == 0
    monkeypatch.delenv("CF_TOL")
    code, _, err = run_cli(capsys, ["hf", "--n", "1", "--holonomy", "0.8,0.0"])
    assert code == 2


# -- parser units -------------------------------------------------------------

def test_parse_spin_forms():
    assert parse_spin("0", 3).eps == (1, 1, 1, 1)
    assert parse_spin("{1,3}", 3).eps == (1, -1, 1, -1)
    assert parse_spin("1,3", 3).eps == (1, -1, 1, -1)
    assert parse_spin("1,-1,-1", 2).eps == (1, -1, -1)
    # n+1 entries of +-1 are a sign vector, even where they repeat
    assert parse_spin("1,1,1,1", 3).eps == (1, 1, 1, 1)


def test_parse_spin_rejects_bad_vector():
    with pytest.raises(ValueError):
        parse_spin("1,1,-1", 2)  # product is -1


def test_parse_holonomy_integer_units_stay_exact():
    hol = parse_holonomy("1,-1", 2, 1e-9)
    assert hol.exact
    assert hol.entry_strings() == ["0/1", "1/2"]


def test_parse_holonomy_entry_count_checked():
    with pytest.raises(ValueError):
        parse_holonomy("1/3", 2, 1e-9)


@pytest.mark.parametrize("text,n,named", [
    ("nan,0", 1, "nan"),
    ("nan", 1, "nan"),
    ("inf,0", 1, "inf"),
    ("1/3;inf,0", 2, "inf"),
    ("1/0", 1, "1/0"),
    ("0/1,2/0", 2, "2/0"),
])
def test_parse_holonomy_rejects_nonfinite_and_zero_denominator(text, n, named):
    with pytest.raises(ValueError, match=named):
        parse_holonomy(text, n, 1e-9)
