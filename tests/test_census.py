"""Caller census: the `def`s in `src/` that no command reaches.

`cli.main` runs a fixed argv corpus in process under `sys.setprofile`:
every `hf` input form, small serial scans and a pooled one,
`maslov-check`, `selftest`, and the failure paths (a `maslov-check`
mismatch, an exact-route disagreement, a near-band refusal).  Every
function, method and nested function defined in `src/cftorus` that none
of them calls is pinned in UNREACHED, so library-only code that grows, or
a command that stops running something, has to edit that set.
"""

import ast
import concurrent.futures
import contextlib
import io
import sys
import time
from pathlib import Path

import pytest

import cftorus
from cftorus import cli, discs, floer
from test_cli import equal_weight_holonomy

SRC = Path(cli.__file__).parent
BUDGET_S = 3.0


CORPUS = [
    # hf: exact with a twisted subset, approximate with a sign vector, csv
    # over an unseparated re,im run, mixed entries promoted, integer units
    ["hf", "--n", "3", "--spin", "{2}", "--holonomy", "1/3,1/3,1/3"],
    ["hf", "--n", "2", "--spin", "1,-1,-1", "--holonomy", "0.6,0.8;1,0"],
    ["hf", "--n", "2", "--holonomy", "0.6,0.8,-1,0", "--format", "csv"],
    ["hf", "--n", "2", "--holonomy", "1/2;0,1", "--backend", "approx"],
    ["hf", "--n", "2", "--holonomy", "1,-1", "--backend", "exact"],
    ["spin-scan", "3"],
    ["brane-scan", "2", "--format", "csv"],
    ["maslov-check", "--count", "3"],
    ["selftest"],
    # refused: the cell lies inside the vanishing band
    ["hf", "--n", "2", "--tol", "1e-6",
     "--holonomy", equal_weight_holonomy(2, 0.8e-6)],
]

#: (argv, [(module, name, stand-in)]) run with the stand-ins in place
PATCHED_CORPUS = [
    # a pooled scan, on threads so that the profiler sees the parent's side
    (["brane-scan", "2", "--jobs", "2"],
     [(concurrent.futures, "ProcessPoolExecutor",
       concurrent.futures.ThreadPoolExecutor), (cli.os, "cpu_count", lambda: 2)]),
    # a maslov-check mismatch writes the disc out
    (["maslov-check", "--count", "1"], [(discs, "maslov_index", lambda d: -1)]),
    # an exact cell whose two rank routes disagree
    (["brane-scan", "2"],
     [(floer, "floer_ranks_closedform",
       lambda w, tol: floer.RankTable((0,) * (w.n + 1)))]),
]

#: 'module:qualname' of each def that no run of the corpus calls
UNREACHED = {
    # the package's PEP 562 listing, for interactive use
    "__init__:__dir__",
    # value semantics of the disc types (equality, hash, repr, refused
    # assignment): the commands build discs but never compare or edit them
    "discs:_Frozen._key", "discs:_Frozen.__eq__", "discs:_Frozen.__hash__",
    "discs:_Frozen.__repr__", "discs:_Frozen.__setattr__", "discs:_Frozen.__delattr__",
    # disc library API: reparametrization, disc classes, reading JSON back
    "discs:MoebiusMap.__init__", "discs:MoebiusMap.__call__", "discs:MoebiusMap.inverse",
    "discs:psl2_act", "discs:BlaschkeFactor.from_rational",
    "discs:BlaschkeComponent.zeros", "discs:BlaschkeDisc.n", "discs:disc_make",
    "discs:homotopy_class", "discs:disc_from_json_dict",
    # disc classes as values: discs.homotopy_class builds them, and only
    # library callers read their counts, index and boundary
    "floer:HomotopyClass.__post_init__", "floer:HomotopyClass.n",
    "floer:HomotopyClass.boundary", "floer:HomotopyClass.maslov_index",
    # floer value helpers for library callers
    "floer:SpinStructure.is_standard", "floer:SpinStructure.label_bits",
    "floer:SpinStructure.twisted_subset", "floer:HolonomyAssignment.__repr__",
    "floer:WeightVector.__repr__", "floer:RankTable.n",
    # the numpy frame stack: the per-frame Maslov route, which the disc path
    # replaced and the benchmark tracer still patches
    "maslov:LagrangianFrame.__init__", "maslov:LagrangianFrame.__post_init__",
    "maslov:LagrangianFrame.n", "maslov:FrameLoop.__init__", "maslov:b_map",
    "maslov:diag_phase_frame", "maslov:loop_maslov", "maslov:_stack_maslov",
    "maslov:_check_unitary", "maslov:_plane_invariants",
    # the simplex ranks that the oracle tests compare against
    "oracle:simplex_rank_profile",
    # Cyclotomic's string and complex forms, for the approximate routes and
    # refusal messages: the commands add, subtract, multiply and reduce mod
    # p only
    "scalars:Cyclotomic.to_complex", "scalars:Cyclotomic.__complex__",
    "scalars:Cyclotomic.__repr__", "scalars:Cyclotomic.__str__",
}


def defined_functions():
    """{(module, first line of its code object): 'module:qualname'} of
    every def in src/; a decorated def's code starts at its first decorator."""
    defs = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[module, first] = "%s:%s%s" % (module, prefix, child.name)
                walk(child, module, "%s%s.<locals>." % (prefix, child.name))
            elif isinstance(child, ast.ClassDef):
                walk(child, module, "%s%s." % (prefix, child.name))

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return defs


def reached_functions(monkeypatch):
    """(module, first line) of every src/ code object the corpus calls."""
    # start from what a fresh process has: no cached results, which would
    # skip their functions, and no submodule bound on the package, so that
    # `from . import floer` goes through the package's __getattr__
    for name, module in list(sys.modules.items()):
        if name.startswith("cftorus."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    for name, target in cftorus._LAZY.items():
        if name == target:
            monkeypatch.delattr(cftorus, name, raising=False)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    def run(argv):
        sys.setprofile(profile)
        try:
            cli.main(argv)
        finally:
            sys.setprofile(None)

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in CORPUS:
            run(argv)
        for argv, patches in PATCHED_CORPUS:
            with pytest.MonkeyPatch.context() as patch:
                for module, name, stand_in in patches:
                    patch.setattr(module, name, stand_in)
                run(argv)
    return {(Path(c.co_filename).stem, c.co_firstlineno)
            for c in codes if Path(c.co_filename).parent == SRC}


def test_unreached_functions_are_pinned(monkeypatch):
    start = time.perf_counter()
    reached = reached_functions(monkeypatch)
    elapsed = time.perf_counter() - start
    unreached = {name for key, name in defined_functions().items()
                 if key not in reached}
    assert (sorted(unreached - UNREACHED), sorted(UNREACHED - unreached)) == ([], []), \
        "(newly unreached, now reached or gone)"
    assert elapsed < BUDGET_S, "census took %.2f s" % elapsed
