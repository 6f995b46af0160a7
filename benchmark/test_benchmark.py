"""Self-tests of the benchmark: statistics, tracing and the output oracle.

    python3 -m pytest benchmark -q
"""

import hashlib
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import expect  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- tail percentile ----------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    value, pct, beyond = stats.tail(values)
    assert value == 90
    assert pct == 90.0
    assert beyond == 10 == sum(v > value for v in values)


def test_tail_takes_the_highest_qualifying_percentile():
    values = list(range(11))
    value, pct, beyond = stats.tail(values)
    assert (value, beyond) == (0, 10)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_of_too_few_samples_is_the_maximum_with_none_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([]) == (0.0, 0.0, 0)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["floer.cell", 1.0, 4.0, 0, 0],
        ["exterior.rank_exact", 2.0, 3.0, 1, 0],
        ["cli.emit", 5.0, 6.0, 0, 0],
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 5.0, 0, 0], ["c", 3.0, 12.0, 0, 0]]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_outer_totals_skip_spans_nested_in_their_own_name():
    spans = [["x", 0.0, 4.0, -1, 0], ["y", 1.0, 3.0, 0, 0], ["x", 1.5, 2.5, 1, 0],
             ["x", 5.0, 6.0, -1, 1]]
    assert stats.outer_totals(spans) == pytest.approx({"x": 5.0, "y": 2.0})


def test_merge_rebases_parents_of_later_commands():
    first = {"spans": [["cli.main", 0, 1, -1, 0], ["floer.cell", 0, 1, 0, 0]], "counts": {"k": 1}}
    second = {"spans": [["cli.main", 2, 3, -1, 1], ["floer.cell", 2, 3, 0, 1]], "counts": {"k": 2}}
    spans, counts = tracing.merge([first, second])
    assert [s[3] for s in spans] == [-1, 0, -1, 2]
    assert counts["k"] == 3


def test_first_try_ratio_counts_discs_with_one_loop():
    spans = [["maslov.disc", 0, 1, -1, 0], ["maslov.loop", 0, 1, 0, 0],
             ["maslov.disc", 1, 3, -1, 0], ["maslov.loop", 1, 2, 2, 0],
             ["maslov.loop", 2, 3, 2, 0]]
    metrics = tracing.layer_metrics(spans, {"maslov.final_samples": 768}, 0.0, 0.0)
    assert metrics["maslov.discs"] == 2
    assert metrics["maslov.first_try_ratio"] == 0.5
    assert metrics["maslov.samples_per_disc"] == 384
    assert set(metrics) == set(tracing.LAYER_UNITS)


# -- line gaps and child processes ---------------------------------------------

def test_line_gaps():
    assert stats.line_gaps([1.0, 1.5, 3.0, 3.0]) == [0.5, 1.5, 0.0]
    assert stats.line_gaps([2.0]) == []


def test_run_child_timestamps_lines_as_printed():
    code = "import time; print('a', flush=True); time.sleep(0.3); print('b', flush=True)"
    child = run.run_child([sys.executable, "-c", code], run.child_env())
    assert child.complete and child.returncode == 0
    assert child.lines == ["a", "b"]
    assert stats.line_gaps(child.stamps)[0] >= 0.25


def test_run_child_kills_at_deadline_and_keeps_complete_lines():
    code = ("import sys, time; print('done', flush=True); "
            "sys.stdout.write('partial'); sys.stdout.flush(); time.sleep(30)")
    start = run.time.monotonic()
    child = run.run_child([sys.executable, "-c", code], run.child_env(),
                          deadline=start + 1.0)
    assert not child.complete
    assert child.lines == ["done"]
    assert child.exit - start < 10


# -- oracle ---------------------------------------------------------------------

def _stdout(lines):
    return "".join(line + "\n" for line in lines).encode()


def test_oracle_reproduces_the_captured_scan_digests():
    for lines, key in ((expect.brane_scan_lines(4), ("brane-scan", "4")),
                       (expect.spin_scan_lines(8), ("spin-scan", "8"))):
        assert hashlib.sha256(_stdout(lines)).hexdigest() == expect.SCAN_DIGESTS[key]


def test_oracle_totals():
    assert sum(json.loads(line)["nonvanishing"] for line in expect.brane_scan_lines(4)) == 5
    assert sum(json.loads(line)["nonvanishing"] for line in expect.spin_scan_lines(8)) == 1
    assert sum(json.loads(line)["nonvanishing"] for line in expect.spin_scan_lines(7)) == 2


def test_oracle_decides_vanishing_on_angles():
    third = Fraction(1, 3)
    assert expect.weights_vanish([1, 1, 1], [third, third])
    assert not expect.weights_vanish([1, 1, 1], [third, 2 * third])
    # eps = (1, -1, -1) with h = (-1, -1): every c_j is 1
    assert expect.weights_vanish([1, -1, -1], [Fraction(1, 2), Fraction(1, 2)])


def _corrupt(line):
    record = json.loads(line)
    record["ranks_by_lambda_degree"][0] += 1
    return expect._dumps(record)


def test_oracle_counts_a_wrong_scan_record_as_failed():
    job = next(expect.jobs("brane-scan-4", 0))
    lines = list(job.expected)
    lines[7] = _corrupt(lines[7])
    assert expect.check(job, lines[:100], False, -9, "", b"") == (100, 1)
    out = _stdout(lines)
    assert expect.check(job, lines, True, 0, job.expected_stderr, out) == (625, 1)
    good = _stdout(job.expected)
    assert expect.check(job, list(job.expected), True, 0, job.expected_stderr, good) == (625, 0)


def test_oracle_counts_missing_lines_and_bad_exits():
    job = next(expect.jobs("spin-scan-8", 0))
    lines = list(job.expected[:250])
    assert expect.check(job, lines, True, 0, job.expected_stderr, _stdout(lines)) == (256, 6)
    full = list(job.expected)
    assert expect.check(job, full, True, 1, job.expected_stderr, _stdout(full)) == (256, 256)


def test_oracle_counts_a_wrong_hf_record_as_failed():
    job = next(expect.jobs("hf-approx-7", 3))
    assert expect.check(job, list(job.expected), True, 0, "", b"") == (1, 0)
    assert expect.check(job, [_corrupt(job.expected[0])], True, 0, "", b"") == (1, 1)


def test_oracle_counts_maslov_mismatches():
    job = next(expect.jobs("maslov-check", 3))
    assert expect.check(job, list(job.expected), True, 0, "", b"") == (25, 0)
    report = json.loads(job.expected[0])
    report["mismatches"] = [{"combinatorial": 4, "numeric": 2}] * 2
    assert expect.check(job, [expect._dumps(report)], True, 1, "", b"") == (25, 2)
    assert expect.check(job, [], False, -9, "", b"") == (0, 0)


def test_jobs_are_determined_by_the_seed():
    def argvs(seed):
        jobs = expect.jobs("hf-approx-7", seed)
        return [next(jobs).argv for _ in range(3)]
    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)


# -- the benchmark's declared metrics ---------------------------------------------

def test_benchmark_json_matches_the_metrics_reported():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_traced_command_records_every_layer():
    run.RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS))
    try:
        job = expect.Job(("hf", "--n", "2", "--holonomy", "1/3,1/3"), "query", 1, ())
        child = run.run_child(run.traced_cmd(job, scratch / "spans.json", 0), run.child_env())
        assert child.returncode == 0, child.stderr
        assert json.loads(child.lines[0])["nonvanishing"] is True
        with open(scratch / "spans.json") as fh:
            data = json.load(fh)
    finally:
        shutil.rmtree(scratch)
    names = {span[0] for span in data["spans"]}
    assert {"cli.main", "floer.cell", "floer.weights", "floer.holonomy_build",
            "exterior.wedge", "exterior.validate", "exterior.rank_exact",
            "floer.closedform", "cli.emit"} <= names
    assert data["counts"]["scalars.cyclotomic_new"] > 0
