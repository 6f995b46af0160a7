import hashlib
import json
import subprocess
import sys

import pytest

from cftorus import cli
from cftorus.cli import main, parse_holonomy, parse_spin


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
])
def test_bad_inputs_exit_2_naming_them(capsys, argv, named):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert named in err


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
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


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
        "1c2651a65bff643afdd1ab9c045375f21e93063f59ee1fcda2d4c8835bfd6bc3", ""),
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


def test_scan_jobs_flag_keeps_output_order():
    # the same bytes through the console entry point, serial and pooled
    cmd = [sys.executable, "-m", "cftorus", "spin-scan", "3"]
    serial = subprocess.run(cmd, capture_output=True, check=True)
    parallel = subprocess.run(cmd + ["--jobs", "2"], capture_output=True,
                              check=True)
    assert serial.stdout == parallel.stdout
    assert hashlib.sha256(serial.stdout).hexdigest() == SCAN_GOLDEN["spin-scan", 3][0]


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, out, err = run_cli(capsys, ["spin-scan", "3", "--jobs", "64"])
    assert code == 0 and seen == [3]
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN["spin-scan", 3][0]
    assert err == SCAN_GOLDEN["spin-scan", 3][2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, out, _ = run_cli(capsys, ["spin-scan", "3", "--jobs", "64"])
    assert code == 0 and seen == [3]  # one CPU (or unknown) runs serially
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN["spin-scan", 3][0]


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out


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
