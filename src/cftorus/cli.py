"""Command-line front end.

Commands: hf (one configuration), spin-scan, brane-scan, maslov-check,
selftest.  Scans stream one result line per cell as soon as it is
computed, under --jobs too, so partial runs stay usable; summaries go
to stderr.  Exit codes: 0 success, 1 check failure, 2 usage error.  The
env var CF_TOL overrides the default tolerance; --tol overrides both.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
import sys
from contextlib import nullcontext
from functools import partial
from itertools import islice
from math import comb, inf, lcm, nan
from typing import TYPE_CHECKING, Optional

from . import DEFAULT_TOL

if TYPE_CHECKING:  # the exact stack is imported by the commands that run it
    from .floer import HolonomyAssignment, SpinStructure

SPIN_SCAN_MAX_N = 12
BRANE_SCAN_MAX_N = 6
#: largest lcm of exact --holonomy denominators; exact products in Q(zeta_m)
#: cost up to m^2 rational operations (README gives the timing)
HOLONOMY_LCM_MAX = 720
#: tolerances of the cell commands lie below this: at 1 or more the
#: unit-modulus check |abs(h) - 1| <= tol accepts any holonomy, 0 included
CELL_TOL_LIMIT = 1.0

#: command -> (largest n, cell count formula, config generator in floer,
#: summary noun)
SCANS = {
    "spin-scan": (SPIN_SCAN_MAX_N, "2^n", "spin_configs", "spin structures"),
    "brane-scan": (BRANE_SCAN_MAX_N, "(n+1)^n", "brane_configs",
                   "holonomy assignments"),
}

#: configs per window of --jobs; at most two are drawn ahead of the output
POOL_WINDOW = 128

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
    from .floer import SpinStructure, standard_spin

    text = (text or "0").strip().strip("{}")
    if text in ("", "0"):
        return standard_spin(n)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if len(tokens) == n + 1 and all(t in ("1", "+1", "-1") for t in tokens):
        try:
            return SpinStructure(tuple(int(t) for t in tokens))
        except ValueError as exc:
            raise ValueError("--spin %r: %s" % (text, exc)) from None

    def index(token: str) -> int:
        try:
            i = int(token)
        except ValueError:
            i = 0  # refused just below, naming the token
        if not 1 <= i <= n:
            raise ValueError("--spin entry %r is not an index in 1..%d" % (token, n))
        return i

    indices = [index(t) for t in tokens]
    for k, i in enumerate(indices):
        if i in indices[:k]:
            raise ValueError("--spin entry %r repeats index %d of the twisted subset"
                             % (tokens[k], i))
    return SpinStructure.from_subset(indices, n)


_NOT_AN_ENTRY = "holonomy entry %r is not p/q, re,im or a real number"


def parse_holonomy(text: Optional[str], n: int, tol: float,
                   backend: Optional[str] = None):
    """Entries "p/q" (exact fraction of a turn) or "re,im" (approximate).

    Approximate entries need ";" separators since "," splits re from im.
    Mixed entries promote everything to the approximate backend with a
    warning; --backend approx forces promotion, --backend exact rejects
    approximate entries.  Exact entries whose denominators have an lcm
    above HOLONOMY_LCM_MAX are refused.
    """
    from fractions import Fraction

    from .floer import HolonomyAssignment

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
            except ValueError:
                raise ValueError(_NOT_AN_ENTRY % entry) from None
            values.append(None)
        else:
            try:
                as_float = float(entry)
            except ValueError:
                raise ValueError(_NOT_AN_ENTRY % entry) from None
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
    order = lcm(*(a.denominator for a in angles))
    if order > HOLONOMY_LCM_MAX:
        raise ValueError("--holonomy denominators have lcm %d; the exact backend "
                         "takes at most %d" % (order, HOLONOMY_LCM_MAX))
    return HolonomyAssignment.from_angles(angles)


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _emit_csv_row(fields) -> None:
    """Quotes only a field that holds a comma, as "re,im" holonomies do."""
    import csv  # only --format csv loads it

    csv.writer(sys.stdout, lineterminator="\n").writerow(fields)


def _emit_csv(record: dict) -> None:
    _emit_csv_row([
        record["n"],
        " ".join("%+d" % e for e in record["spin"]),
        " ".join(record["holonomy"]),
        " ".join(map(str, record["ranks_by_lambda_degree"])),
        " ".join(map(str, record["ranks_by_cochain_degree"])),
        str(record["nonvanishing"]).lower(),
        record["backend"],
    ])


def _emit(record: dict, fmt: str) -> None:
    if fmt == "csv":
        _emit_csv(record)
    else:
        _emit_json(record)


def evaluate_cell(spin: SpinStructure, holonomy: HolonomyAssignment, tol: float):
    """`floer.evaluate_cell`, looked up here by every cell that hf and the
    scans compute, so the exact stack is imported only when one runs."""
    from . import floer

    return floer.evaluate_cell(spin, holonomy, tol)


def _cell_record(config, tol: float) -> dict:
    """One scan cell's result record (top level, so process pools can pickle it)."""
    spin, holonomy = config
    return evaluate_cell(spin, holonomy, tol).to_json_dict()


def _pooled(pool, worker, configs):
    """Records in order from `pool.map` over windows of POOL_WINDOW configs,
    each window queued while the one before it is read."""
    windows = iter(lambda: list(islice(configs, POOL_WINDOW)), [])
    reading = ()
    for window in windows:
        queued = pool.map(worker, window, chunksize=8)
        yield from reading
        reading = queued
    yield from reading


# -- commands -----------------------------------------------------------------

def cmd_hf(spin: SpinStructure, holonomy: HolonomyAssignment, tol: float,
           fmt: str) -> int:
    cell = evaluate_cell(spin, holonomy, tol)
    if fmt == "csv":
        _emit_csv_row(CSV_FIELDS)
    _emit(cell.to_json_dict(), fmt)
    return 0


def cmd_scan(command: str, n: int, tol: float, fmt: str, jobs: int) -> int:
    max_n, cell_count, generator, noun = SCANS[command]
    if n < 1 or n > max_n:
        print("%s supports 1 <= n <= %d (%s cells); got n=%d"
              % (command, max_n, cell_count, n), file=sys.stderr)
        return 2
    from . import floer

    configs = getattr(floer, generator)
    if fmt == "csv":
        _emit_csv_row(CSV_FIELDS)
    worker = partial(_cell_record, tol=tol)
    jobs = min(jobs, os.cpu_count() or 1)
    hits = cells = 0
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip it
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        records = (_pooled(pool, worker, configs(n)) if pool
                   else map(worker, configs(n)))
        try:
            for record in records:
                cells += 1
                hits += bool(record["nonvanishing"])
                _emit(record, fmt)
        except BaseException:
            if pool:  # report now: drop the chunks no worker has started
                pool.shutdown(cancel_futures=True)
            raise
    print("nonvanishing: %d of %d %s" % (hits, cells, noun), file=sys.stderr)
    return 0


def cmd_maslov_check(count: int, seed: int, tol: float) -> int:
    from . import discs, maslov

    rng = random.Random(seed)
    mismatches = []
    for position in range(1, count + 1):
        n = rng.randint(1, 4)
        d = discs.random_disc(rng, n, max_degree=4, chart0=True, tol=tol)
        combinatorial = discs.maslov_index(d)
        try:
            numeric = maslov.disc_boundary_maslov(d, tol)
        except ValueError as exc:
            raise ValueError("disc %d of %d (n=%d, --seed %d, --tol %g): %s"
                             % (position, count, n, seed, tol, exc)) from exc
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


def _require(ok: bool, message: str, *args) -> None:
    """Fail a selftest check naming its input; unlike `assert`, also under -O."""
    if not ok:
        raise AssertionError(message % args)


def _selftest_checks(tol: float):
    from fractions import Fraction

    from . import discs, maslov, oracle, signs
    from .floer import WeightVector, brane_configs, floer_ranks_bruteforce, spin_configs

    def spin_dichotomy():
        for n in range(1, 5):
            cells = [evaluate_cell(spin, hol, tol) for spin, hol in spin_configs(n)]
            hits = [c for c in cells if c.table.nonvanishing]
            _require(len(hits) == (2 if n % 2 else 1),
                     "n=%d: %d nonvanishing spin structures", n, len(hits))
            binomial = tuple(comb(n, k) for k in range(n + 1))
            for c in hits:
                _require(c.table.by_lambda_degree == binomial, "spin %r: ranks %r",
                         c.spin.eps, c.table.by_lambda_degree)

    def brane_count():
        hits = sum(evaluate_cell(spin, hol, tol).table.nonvanishing
                   for spin, hol in brane_configs(2))
        _require(hits == 3, "n=2: %d nonvanishing holonomy assignments", hits)

    def coboundary_squares_to_zero():
        rng = random.Random(7)
        for n in range(1, 5):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            w = WeightVector.from_vector(v)
            floer_ranks_bruteforce(w, tol)  # validates the composite

    def sign_chain():
        for n in range(1, 7):
            for mu in range(2, 11, 2):
                got = signs.squarezero_chain(n, mu)
                _require(got == (-1, -1), "n=%d, mu=%d: coefficients %r", n, mu, got)

    def oracle_rescale():
        w = [Fraction(1), Fraction(2), Fraction(3)]
        _require(oracle.koszul_rescale_check(w, tol), "weights 1, 2, 3 do not rescale")

    def maslov_numeric():
        rng = random.Random(11)
        for position in range(1, 11):
            d = discs.random_disc(rng, rng.randint(1, 3), max_degree=3, chart0=True)
            got = maslov.disc_boundary_maslov(d, tol), discs.maslov_index(d)
            _require(got[0] == got[1], "disc %d of 10: numeric and "
                     "combinatorial index %r", position, got)

    def disc_solver_roundtrip():
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 3)
            target = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
            for i in range(n + 1):
                d = discs.solve_disc_through_point(i, target)
                got = discs.disc_eval(d, 1.0)
                _require(all(abs(g / got[0] - t) < 1e-9
                             for g, t in zip(got[1:], target)),
                         "class %d through %r reaches %r", i, target, got)

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


def resolve_tol(cli_value: Optional[float], limit: float) -> float:
    """--tol, else CF_TOL, else DEFAULT_TOL; refused unless finite, positive
    and below `limit`."""
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
    if tol >= limit:
        raise ValueError("%s must be below %g, got %r" % (source, limit, text))
    return tol


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        tol = resolve_tol(getattr(args, "tol", None),
                          inf if args.command == "maslov-check" else CELL_TOL_LIMIT)
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
    except AssertionError as exc:  # a cell whose two rank routes disagree
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
