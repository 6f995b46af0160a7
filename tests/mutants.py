"""Pinned mutants that the tests must kill.

Usage: python tests/mutants.py [NAME ...]

Each mutant replaces one exact source snippet in one file.  For each, the
script copies src/, tests/, benchmark/ and pyproject.toml into a fresh
temporary directory, applies the replacement there, and runs
``python -m pytest -q -x -p no:cacheprovider <selection>`` with that copy
as the working directory.  pyproject.toml puts the copy's src/ ahead of
PYTHONPATH, so the mutated tree is the one under test.  A failing
selection kills its mutant.  Each distinct selection first runs once on
the unmutated copy and must pass there, so that every kill is the
mutant's doing.

The mutants in EQUIVALENT change no behaviour that a test can see; each
is listed with the reason, and is run and reported but never fails the
script.  Every other mutant must be killed: the script prints killed or
survived for each and exits 1 if any survives.  The harness shows that
the tests catch these faults; it never shows that a test can go.

tests/test_mutants.py checks in the tier-1 run that every snippet still
occurs exactly once, so a refactor that moves one has to update this list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmark", "pyproject.toml")

Mutant = namedtuple("Mutant", "name path snippet replacement selection")

MUTANTS = [
    Mutant("elimination-leaves-Fp", "src/cftorus/exterior.py",
           "return {c: x % modulus for c, x in row.items() if x % modulus}",
           "return {c: x for c, x in row.items() if x}",
           ("tests/test_elimination.py", "tests/test_exterior.py")),
    Mutant("elimination-keeps-integers", "src/cftorus/exterior.py",
           "return {c: x % modulus for c, x in row.items() if x % modulus}",
           "return {c: x for c, x in row.items() if x % modulus}",
           ("tests/test_elimination.py", "tests/test_exterior.py")),
    Mutant("pivot-under-first-column", "src/cftorus/exterior.py",
           "c = max(row)", "c = min(row)",
           ("tests/test_elimination.py", "tests/test_exterior.py")),
    Mutant("weights-ignore-spin", "src/cftorus/floer.py",
           "simplify_exact(h if e == 1 else -h)",
           "simplify_exact(h if e == 1 else h)",
           ("tests/test_floer.py",)),
    Mutant("wedge-stores-zero-weights", "src/cftorus/exterior.py",
           "            elif vj:\n", "            else:\n",
           ("tests/test_exterior.py",)),
    Mutant("wedge-sign-never-flips", "src/cftorus/exterior.py",
           "sign, below = -sign, below + 1", "sign, below = sign, below + 1",
           ("tests/test_exterior.py",)),
    Mutant("shape-check-off-by-one", "src/cftorus/exterior.py",
           "max(row) >= len(b)", "max(row) > len(b)",
           ("tests/test_exterior.py",)),
    Mutant("weights-always-exact", "src/cftorus/floer.py",
           'object.__setattr__(self, "exact", all(is_exact_scalar(x) for x in self.v))',
           'object.__setattr__(self, "exact", True)',
           ("tests/test_floer.py",)),
    Mutant("winding-floor-unscaled", "src/cftorus/maslov.py",
           "if low < tol * scale:", "if low < tol:",
           ("tests/test_maslov.py",)),
    Mutant("spin-refusal-names-nothing", "src/cftorus/cli.py",
           'raise ValueError("--spin entry %r is not an index in 1..%d" % (token, n))',
           'raise ValueError("--spin entry is not an index in 1..%d" % n)',
           ("tests/test_cli.py", "-k", "bad_inputs_exit_2_naming_them")),
    Mutant("square-zero-failure-is-usage-error", "src/cftorus/floer.py",
           'raise AssertionError("%s%s" % (exc, _cell_name(spin, holonomy))) from exc',
           "raise",
           ("tests/test_cli.py", "-k", "failed_square_zero")),
    Mutant("cyclotomic-left-unreduced", "src/cftorus/scalars.py",
           "_divide_monic(folded, cyclotomic_polynomial(order))", "pass",
           ("tests/test_scalars.py",)),
    Mutant("promotion-ignores-the-step", "src/cftorus/scalars.py",
           "lifted[k * step] = c", "lifted[k] = c",
           ("tests/test_scalars.py",)),
    Mutant("rescale-check-drops-the-row-scale", "src/cftorus/oracle.py",
           "want.get(c, 0) * scale[J]", "want.get(c, 0)",
           ("tests/test_oracle.py",)),
    Mutant("weights-ignore-eps0", "src/cftorus/floer.py",
           "zip(spin.eps, holonomy.with_h0())",
           "zip((1, *spin.eps[1:]), holonomy.with_h0())",
           ("tests/test_floer.py", "-k", "disc_derived")),
    Mutant("h0-not-inverted", "src/cftorus/floer.py",
           "angle0 = -sum(angles, Fraction(0))", "angle0 = sum(angles, Fraction(0))",
           ("tests/test_floer.py", "-k", "disc_derived")),
    Mutant("maslov-index-halved", "src/cftorus/discs.py",
           "return 2 * sum(d.mu)", "return sum(d.mu)",
           ("tests/test_discs.py",)),
    Mutant("disc-eval-admits-nan", "src/cftorus/discs.py",
           "if not abs(z) <= 1.0 + 1e-12:", "if abs(z) > 1.0 + 1e-12:",
           ("tests/test_discs.py",)),
    Mutant("closedform-total-exceeds-2^n", "src/cftorus/floer.py",
           "comb(n, k) for k in range(n + 1)", "comb(n, k) + 1 for k in range(n + 1)",
           ("tests/test_abstract_claims.py", "-k", "displacement")),
    Mutant("residue-limit-doubled", "src/cftorus/maslov.py",
           "RESIDUE_LIMIT = 0.1", "RESIDUE_LIMIT = 0.2",
           ("tests/test_maslov.py",)),
]

#: name -> why no test can tell the mutant from the original
EQUIVALENT = {
    "elimination-keeps-integers":
        "the entries stay in Z but are tested mod p after every step; the "
        "steps are ring operations, so each entry is zero mod p exactly when "
        "its F_p counterpart is, and the rank is unchanged",
    "pivot-under-first-column":
        "filing each pivot under its first nonzero column instead of its "
        "last is still a division-free row echelon elimination, with the "
        "same rank",
    "residue-limit-doubled":
        "on a closed list of samples the principal steps of consecutive "
        "ratios sum to a multiple of 2 pi up to rounding, about 1e-16 per "
        "step, so no residue comes near either limit",
}


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "results"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def run_pytest(workdir: Path, selection) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *selection], cwd=workdir, env=env, capture_output=True, text=True)


def first_failure(output: str) -> str:
    return next((line for line in output.splitlines()
                 if line.startswith(("FAILED ", "ERROR "))), "")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("error: no mutant named %s" % ", ".join(sorted(unknown)))
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for m in chosen:
        count = (ROOT / m.path).read_text().count(m.snippet)
        if count != 1:
            print("error: %s: snippet occurs %d times in %s" % (m.name, count, m.path))
            return 2
    start = time.perf_counter()
    wrong = []
    with tempfile.TemporaryDirectory(prefix="cftorus-mutants-") as tmp:
        clean = Path(tmp, "clean")
        copy_tree(clean)
        for selection in dict.fromkeys(m.selection for m in chosen):
            done = run_pytest(clean, selection)
            if done.returncode != 0:
                print("error: %s fails on the unmutated tree\n%s"
                      % (" ".join(selection), done.stdout[-3000:]))
                return 2
        for m in chosen:
            work = Path(tmp, m.name)
            copy_tree(work)
            target = work / m.path
            target.write_text(target.read_text().replace(m.snippet, m.replacement))
            begin = time.perf_counter()
            done = run_pytest(work, m.selection)
            shutil.rmtree(work)
            outcome = {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode)
            if outcome is None:
                print("error: %s: pytest exited %d\n%s"
                      % (m.name, done.returncode, done.stdout[-3000:]))
                return 2
            if m.name in EQUIVALENT:
                note = "equivalent: %s" % EQUIVALENT[m.name]
            elif outcome == "killed":
                note = first_failure(done.stdout)
            else:
                note = "NOT KILLED by %s" % " ".join(m.selection)
                wrong.append(m.name)
            print("%-8s %-36s %5.1f s  %s"
                  % (outcome, m.name, time.perf_counter() - begin, note), flush=True)
    print("%d mutants, %d survived that must be killed%s; %.1f s"
          % (len(chosen), len(wrong), ": " + ", ".join(wrong) if wrong else "",
             time.perf_counter() - start))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
