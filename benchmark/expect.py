"""Workload commands and the output oracle that checks them.

Every expected output is computed from the command's inputs alone, never
by importing cftorus:

* a scan cell's weights vanish exactly when every c_j = eps_j * h_j has
  the same angle, i.e. a_j + [eps_j = -1]/2 agree mod 1 for j = 0..n with
  a_0 = -(a_1 + .. + a_n); such a cell has the binomial table C(n, k),
  every other cell the zero table;
* a random-holonomy `hf` query vanishes in every degree on the
  approximate backend;
* `maslov-check` reports no mismatches.

The full stdout of each scan is also pinned by a digest captured from the
CLI when the benchmark was written.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

#: sha256 of the complete stdout of each scan command
SCAN_DIGESTS = {
    ("brane-scan", "4"): "88529ddb7fd579da040fa69291569bb3b6870060f0acad0cd7f62865d233e3ff",
    ("spin-scan", "8"): "28a51066fe4b6f0e7b0c3fc3732e84df14e1eea5cc3ab37d458113eb02bf821c",
}

MASLOV_COUNT = 25   # discs per maslov-check invocation
HF_N = 7


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the output it must produce.

    `kind` is "stream" (one result line per item, timestamped as printed),
    "query" (one line, one item) or "batch" (one report for all items).
    """

    argv: Tuple[str, ...]
    kind: str
    items: int
    expected: Tuple[str, ...]
    expected_stderr: str = ""
    digest: Optional[str] = None


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _table_record(n: int, eps: Sequence[int], holonomy: List[str],
                  nonvanishing: bool, backend: str) -> dict:
    ranks = [comb(n, k) for k in range(n + 1)] if nonvanishing else [0] * (n + 1)
    return {
        "backend": backend,
        "holonomy": holonomy,
        "n": n,
        "nonvanishing": nonvanishing,
        "ranks_by_cochain_degree": ranks[::-1],
        "ranks_by_lambda_degree": ranks,
        "spin": list(eps),
    }


def spin_from_subset(subset: Sequence[int], n: int) -> List[int]:
    body = [-1 if i in subset else 1 for i in range(1, n + 1)]
    return [math.prod(body)] + body


def weights_vanish(eps: Sequence[int], angles: Sequence[Fraction]) -> bool:
    """v = 0 decided on angles: every eps_j * h_j lands on one angle."""
    all_angles = [-sum(angles, Fraction(0)), *angles]
    turns = {(a + (Fraction(1, 2) if e == -1 else 0)) % 1
             for a, e in zip(all_angles, eps)}
    return len(turns) == 1


def scan_cell_line(n: int, eps: Sequence[int], angles: Sequence[Fraction]) -> str:
    holonomy = ["%d/%d" % (a.numerator, a.denominator) for a in (x % 1 for x in angles)]
    return _dumps(_table_record(n, eps, holonomy, weights_vanish(eps, angles), "exact"))


@lru_cache(maxsize=None)
def brane_scan_lines(n: int) -> Tuple[str, ...]:
    eps = spin_from_subset((), n)
    return tuple(scan_cell_line(n, eps, [Fraction(k, n + 1) for k in ks])
                 for ks in product(range(n + 1), repeat=n))


@lru_cache(maxsize=None)
def spin_scan_lines(n: int) -> Tuple[str, ...]:
    zero = [Fraction(0)] * n
    return tuple(
        scan_cell_line(n, spin_from_subset([i + 1 for i in range(n) if bits >> i & 1], n), zero)
        for bits in range(1 << n))


def _scan_job(command: str, n: int, lines: Tuple[str, ...], what: str) -> Job:
    hits = sum('"nonvanishing":true' in line for line in lines)
    return Job((command, str(n)), "stream", len(lines), lines,
               "nonvanishing: %d of %d %s\n" % (hits, len(lines), what),
               SCAN_DIGESTS.get((command, str(n))))


def maslov_job(seed: int) -> Job:
    report = {"checked": MASLOV_COUNT, "max_degree": 4, "max_n": 4,
              "mismatches": [], "seed": seed}
    return Job(("maslov-check", "--count", str(MASLOV_COUNT), "--seed", str(seed)),
               "batch", MASLOV_COUNT, (_dumps(report),))


def hf_job(rng: random.Random) -> Job:
    """A random twisted subset and random unit holonomies, written as
    float reprs so the CLI echoes them back unchanged."""
    n = HF_N
    subset = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
    entries = []
    for _ in range(n):
        turn = 2.0 * math.pi * rng.random()
        entries.append("%r,%r" % (math.cos(turn), math.sin(turn)))
    spin_arg = ",".join(map(str, subset)) if subset else "0"
    record = _table_record(n, spin_from_subset(subset, n), entries, False, "approx")
    # the "=" form keeps a leading minus sign from reading as an option
    return Job(("hf", "--n", str(n), "--spin", spin_arg, "--holonomy=" + ";".join(entries)),
               "query", 1, (_dumps(record),))


def jobs(workload: str, seed: int) -> Iterator[Job]:
    """The endless, seed-determined command sequence of a workload."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "brane-scan-4":
        job = _scan_job("brane-scan", 4, brane_scan_lines(4), "holonomy assignments")
        return (job for _ in count())
    if workload == "spin-scan-8":
        job = _scan_job("spin-scan", 8, spin_scan_lines(8), "spin structures")
        return (job for _ in count())
    if workload == "maslov-check":
        return (maslov_job(rng.randrange(1 << 31)) for _ in count())
    if workload == "hf-approx-7":
        return (hf_job(rng) for _ in count())
    raise ValueError("unknown workload %r" % (workload,))


def check(job: Job, lines: Sequence[str], complete: bool,
          returncode: Optional[int], stderr: str, stdout: bytes) -> Tuple[int, int]:
    """(attempted, failed) items of one invocation.

    A child cut off at the deadline is judged on the complete lines it
    printed; a "batch" child cut off has attempted nothing.  Each wrong,
    missing or extra line is one failure.  A finished child must also
    exit 0 and print the expected stderr, or all its items fail; a scan's
    stdout must match the captured digest, or at least one item fails.
    """
    if job.kind == "batch":
        if not complete:
            return 0, 0
        if returncode == 0 and tuple(lines) == job.expected and stderr == job.expected_stderr:
            return job.items, 0
        return job.items, min(job.items, _reported_mismatches(lines) or job.items)
    wrong = sum(got != want for got, want in zip(lines, job.expected))
    extra = max(0, len(lines) - len(job.expected))
    if not complete:
        return len(lines), wrong + extra
    attempted = max(job.items, len(lines))
    failed = wrong + extra + max(0, len(job.expected) - len(lines))
    if returncode != 0 or stderr != job.expected_stderr:
        return attempted, attempted
    if job.digest is not None and hashlib.sha256(stdout).hexdigest() != job.digest:
        failed = max(failed, 1)
    return attempted, failed


def _reported_mismatches(lines: Sequence[str]) -> int:
    """Mismatch count of a well-formed maslov-check report, else 0."""
    try:
        report = json.loads(lines[-1])
        return len(report["mismatches"])
    except (IndexError, ValueError, KeyError, TypeError):
        return 0
