"""Command-line front end.

Commands: hf (one configuration), spin-scan, brane-scan, maslov-check,
selftest.  Scans stream one result line per cell as soon as it is
computed, so partial runs stay usable; summaries go to stderr.  Exit
codes: 0 success, 1 check failure, 2 usage error.  The env var CF_TOL
overrides the default tolerance; --tol overrides both.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from math import comb, inf, nan
from typing import Optional

from . import discs, maslov, oracle, signs
from .floer import (
    HolonomyAssignment,
    SpinStructure,
    brane_configs,
    evaluate_cell,
    spin_configs,
    standard_spin,
)
from .scalars import DEFAULT_TOL

SPIN_SCAN_MAX_N = 12
BRANE_SCAN_MAX_N = 6

#: command -> (largest n, cell count formula, config generator, summary noun)
SCANS = {
    "spin-scan": (SPIN_SCAN_MAX_N, "2^n", spin_configs, "spin structures"),
    "brane-scan": (BRANE_SCAN_MAX_N, "(n+1)^n", brane_configs,
                   "holonomy assignments"),
}

CSV_FIELDS = ("n", "spin", "holonomy", "ranks_by_lambda_degree",
              "ranks_by_cochain_degree", "nonvanishing", "backend")


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_spin(text: str, n: int) -> SpinStructure:
    """Twisted subset ("0", "{1,3}", "1,3") or a full sign vector ("1,-1,-1")."""
    text = (text or "0").strip().strip("{}")
    if text in ("", "0"):
        return standard_spin(n)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if len(tokens) == n + 1 and all(t in ("1", "+1", "-1") for t in tokens):
        return SpinStructure(tuple(int(t) for t in tokens))
    return SpinStructure.from_subset([int(t) for t in tokens], n)


def parse_holonomy(text: Optional[str], n: int, tol: float,
                   backend: Optional[str] = None):
    """Entries "p/q" (exact fraction of a turn) or "re,im" (approximate).

    Approximate entries need ";" separators since "," splits re from im.
    Mixed entries promote everything to the approximate backend with a
    warning; --backend approx forces promotion, --backend exact rejects
    approximate entries.
    """
    if text is None:
        entries = ["0/1"] * n
    elif ";" in text:
        entries = [e.strip() for e in text.split(";") if e.strip()]
    else:
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        if len(tokens) == n:
            entries = tokens
        elif len(tokens) == 2 * n and all(_is_float(t) for t in tokens):
            # an unseparated run of re,im pairs
            entries = ["%s,%s" % (tokens[2 * i], tokens[2 * i + 1])
                       for i in range(n)]
        else:
            entries = tokens
    if len(entries) != n:
        raise ValueError("expected %d holonomy entries, got %d" % (n, len(entries)))
    angles, values = [], []
    for entry in entries:
        if "," in entry:
            try:
                re_part, im_part = map(float, entry.split(","))
            except ValueError:
                raise ValueError("holonomy entry %r is not a re,im pair"
                                 % entry) from None
            values.append(complex(re_part, im_part))
            angles.append(None)
        elif "/" in entry:
            try:
                angles.append(Fraction(entry))
            except ZeroDivisionError:
                raise ValueError("holonomy entry %r has a zero denominator"
                                 % entry) from None
            values.append(None)
        else:
            as_float = float(entry)
            if as_float in (1.0, -1.0):
                angles.append(Fraction(0) if as_float == 1.0 else Fraction(1, 2))
                values.append(None)
            else:
                values.append(complex(as_float, 0.0))
                angles.append(None)
    has_exact = any(a is not None for a in angles)
    has_approx = any(v is not None for v in values)
    if backend == "exact" and has_approx:
        raise ValueError("--backend exact cannot take decimal holonomy entries")
    if backend == "approx" or has_approx:
        if has_exact and has_approx:
            print("warning: mixed holonomy formats; promoted to the "
                  "approximate backend", file=sys.stderr)
        promoted = [v if v is not None else cmath.exp(2j * cmath.pi * float(a))
                    for a, v in zip(angles, values)]
        return HolonomyAssignment.from_values(promoted, tol)
    return HolonomyAssignment.from_angles([a for a in angles])


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _emit_csv_header() -> None:
    print(",".join(CSV_FIELDS))


def _emit_csv(record: dict) -> None:
    row = [
        str(record["n"]),
        " ".join("%+d" % e for e in record["spin"]),
        " ".join(record["holonomy"]),
        " ".join(map(str, record["ranks_by_lambda_degree"])),
        " ".join(map(str, record["ranks_by_cochain_degree"])),
        str(record["nonvanishing"]).lower(),
        record["backend"],
    ]
    print(",".join(row))


def _emit(record: dict, fmt: str) -> None:
    if fmt == "csv":
        _emit_csv(record)
    else:
        _emit_json(record)


def _cell_record(config, tol: float) -> dict:
    """One scan cell's result record (top level, so process pools can pickle it)."""
    spin, holonomy = config
    return evaluate_cell(spin, holonomy, tol).to_json_dict()


# -- commands -----------------------------------------------------------------

def cmd_hf(spin: SpinStructure, holonomy: HolonomyAssignment, tol: float,
           fmt: str) -> int:
    cell = evaluate_cell(spin, holonomy, tol)
    if fmt == "csv":
        _emit_csv_header()
    _emit(cell.to_json_dict(), fmt)
    return 0


def cmd_scan(command: str, n: int, tol: float, fmt: str, jobs: int) -> int:
    max_n, cell_count, configs, noun = SCANS[command]
    if n < 1 or n > max_n:
        print("%s supports 1 <= n <= %d (%s cells); got n=%d"
              % (command, max_n, cell_count, n), file=sys.stderr)
        return 2
    if fmt == "csv":
        _emit_csv_header()
    worker = partial(_cell_record, tol=tol)
    jobs = min(jobs, os.cpu_count() or 1)
    hits = cells = 0
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        records = (pool.map(worker, configs(n), chunksize=8) if pool
                   else map(worker, configs(n)))
        for record in records:
            cells += 1
            hits += bool(record["nonvanishing"])
            _emit(record, fmt)
    print("nonvanishing: %d of %d %s" % (hits, cells, noun), file=sys.stderr)
    return 0


def cmd_maslov_check(count: int, seed: int, tol: float) -> int:
    rng = random.Random(seed)
    mismatches = []
    for _ in range(count):
        n = rng.randint(1, 4)
        d = discs.random_disc(rng, n, max_degree=4, chart0=True, tol=tol)
        combinatorial = discs.maslov_index(d)
        numeric = maslov.disc_boundary_maslov(d, tol)
        if numeric != combinatorial:
            mismatches.append({
                "disc": discs.disc_to_json_dict(d),
                "combinatorial": combinatorial,
                "numeric": numeric,
            })
    report = {
        "checked": count,
        "seed": seed,
        "max_n": 4,
        "max_degree": 4,
        "mismatches": mismatches,
    }
    _emit_json(report)
    return 1 if mismatches else 0


def _selftest_checks(tol: float):
    from .floer import WeightVector, floer_ranks_bruteforce, spin_scan

    def spin_dichotomy():
        for n in range(1, 5):
            cells = spin_scan(n, tol)
            hits = [c for c in cells if c.table.nonvanishing]
            assert len(hits) == (2 if n % 2 else 1)
            for c in hits:
                assert c.table.by_lambda_degree == tuple(
                    comb(n, k) for k in range(n + 1))

    def brane_count():
        from .floer import brane_scan

        assert len(brane_scan(2, tol)) == 3

    def coboundary_squares_to_zero():
        rng = random.Random(7)
        for n in range(1, 5):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            w = WeightVector.from_vector(v)
            floer_ranks_bruteforce(n, w, tol)  # validates the composite

    def sign_chain():
        for n in range(1, 7):
            for mu in range(2, 11, 2):
                assert signs.squarezero_chain(n, mu) == (-1, -1)

    def oracle_rescale():
        w = [Fraction(1), Fraction(2), Fraction(3)]
        assert oracle.koszul_rescale_check(3, w, tol)

    def maslov_numeric():
        rng = random.Random(11)
        for _ in range(10):
            d = discs.random_disc(rng, rng.randint(1, 3), max_degree=3, chart0=True)
            assert maslov.disc_boundary_maslov(d, tol) == discs.maslov_index(d)

    def disc_solver_roundtrip():
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 3)
            target = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
            for i in range(n + 1):
                d = discs.solve_disc_through_point(i, target)
                got = discs.disc_eval(d, 1.0)
                assert all(abs(g / got[0] - t) < 1e-9
                           for g, t in zip(got[1:], target))

    return [
        ("spin dichotomy ranks", spin_dichotomy),
        ("brane count n=2", brane_count),
        ("coboundary squares to zero", coboundary_squares_to_zero),
        ("square-zero sign chain", sign_chain),
        ("coboundary rescales to simplex", oracle_rescale),
        ("numeric vs combinatorial index", maslov_numeric),
        ("disc solver round-trip", disc_solver_roundtrip),
    ]


def cmd_selftest(tol: float) -> int:
    failures = 0
    for name, check in _selftest_checks(tol):
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print("FAIL %s: %s" % (name, exc))
        else:
            print("ok   %s" % name)
    return 1 if failures else 0


# -- argument plumbing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cftorus",
        description="Floer cohomology of the Clifford torus: rank tables, "
                    "spin/brane scans and Maslov index cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default: CF_TOL env or %g)" % DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel scan workers (deterministic order)")

    hf = sub.add_parser("hf", help="rank table for one (spin, holonomy) cell")
    hf.add_argument("--n", type=int, required=True)
    hf.add_argument("--spin", default="0",
                    help='twisted subset like "{1,3}" or sign vector "1,-1,-1"; '
                         '"0" is the standard structure')
    hf.add_argument("--holonomy", default=None,
                    help='entries "p/q" comma-separated, or "re,im" entries '
                         'separated by ";"')
    hf.add_argument("--backend", choices=("exact", "approx"), default=None)
    add_common(hf)

    ss = sub.add_parser("spin-scan", help="all 2^n spin structures, trivial holonomy")
    ss.add_argument("n", type=int)
    add_common(ss, jobs=True)

    bs = sub.add_parser("brane-scan",
                        help="all (n+1)^n root-of-unity holonomies, standard spin")
    bs.add_argument("n", type=int)
    add_common(bs, jobs=True)

    mc = sub.add_parser("maslov-check",
                        help="random discs: numeric vs combinatorial index")
    mc.add_argument("--count", type=int, default=200)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--tol", type=float, default=None)

    st = sub.add_parser("selftest", help="fast invariant sweep")
    st.add_argument("--tol", type=float, default=None)

    return parser


def resolve_tol(cli_value: Optional[float]) -> float:
    """--tol, else CF_TOL, else DEFAULT_TOL; refused unless finite and positive."""
    if cli_value is not None:
        source, text = "--tol", cli_value
    else:
        source, text = "CF_TOL", os.environ.get("CF_TOL") or DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = nan  # refused just below, naming the source
    if not 0 < tol < inf:
        raise ValueError("%s must be a finite positive number, got %r"
                         % (source, text))
    return tol


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        tol = resolve_tol(getattr(args, "tol", None))
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("--jobs must be at least 1, got %d" % args.jobs)
        if args.command == "hf":
            if not 1 <= args.n <= SPIN_SCAN_MAX_N:
                # one spin-scan cell is one hf query, so it shares that limit
                print("hf supports 1 <= --n <= %d; got --n=%d"
                      % (SPIN_SCAN_MAX_N, args.n), file=sys.stderr)
                return 2
            spin = parse_spin(args.spin, args.n)
            holonomy = parse_holonomy(args.holonomy, args.n, tol, args.backend)
            return cmd_hf(spin, holonomy, tol, args.format)
        if args.command in SCANS:
            return cmd_scan(args.command, args.n, tol, args.format, args.jobs)
        if args.command == "maslov-check":
            if args.count < 0:
                raise ValueError("--count must be at least 0, got %d" % args.count)
            return cmd_maslov_check(args.count, args.seed, tol)
        if args.command == "selftest":
            return cmd_selftest(tol)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
