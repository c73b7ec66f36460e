"""Census of src/propcalc: the function definitions the golden corpus never calls.

A child interpreter replays every case of tests/golden/cases.json in-process
through cli.run under sys.setprofile, and reports each code object it
entered.  A fresh interpreter keeps the census independent of what earlier
tests left in the memo tables.  The definitions are the code objects of
every def, found by walking the compiled module code.  A call and a
definition match on (file, co_firstlineno, co_name), and a definition is
named by the defs and classes around it, as in "bimodules.box_v" or
"bimodules.tensor_over_sigma.act".  The names are built by the walk, since
co_qualname exists from Python 3.11 only.

NEVER_CALLED lists every definition the corpus does not reach, each with
the reason it stays in src.  The list may only shrink: a definition that
the corpus stops reaching fails the test, and so does one it starts to
reach, until it leaves the list.
"""

import glob
import inspect
import json
import os
import subprocess
import sys
import types

import propcalc

PACKAGE = os.path.realpath(os.path.dirname(propcalc.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))

_REPLAY = """
import json, sys
from golden.record import CASES, run_case
with open(CASES, encoding="utf-8") as handle:
    cases = json.load(handle)
called = set()
def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(record)
for case in cases:
    run_case(case["argv"])
sys.setprofile(None)
json.dump(sorted(called), sys.stdout)
"""

CRITERION_9 = "change of colours: acceptance criterion 9"
ENDO_PROP = "endomorphism PROP and its operad: the operads benchmark and tests"
STANDARD_OPERAD = "standard operads: tests/golden/record.py writes op.json and ass.json with them"
WRITER = "library JSON writer: the CLI prints no object of this kind; record.py writes inputs with it"
TESTS_ONLY = "library function that only tests call"
REPR = "__repr__, for reading objects in a debugger or a failing test"

NEVER_CALLED = {
    "algebras.evaluate": "evaluation of one expression: the tests' oracle for eq and for interchange",
    "bimodules.ColoredBimodule.component": "read by the change of colours (acceptance criterion 9) and component_at",
    "bimodules._induced_component": CRITERION_9,
    "bimodules._induced_component.act": CRITERION_9,
    "bimodules._induced_component.act_blocks": CRITERION_9,
    "bimodules._profiles_with_image": CRITERION_9,
    "bimodules._restricted_component": CRITERION_9,
    "bimodules._restricted_component.act": CRITERION_9,
    "bimodules.component_at": "a component at a non-canonical object, by transport: tests only",
    "bimodules.component_at.structure": "a component at a non-canonical object, by transport: tests only",
    "bimodules.component_at.zero_structure": "a component at a non-canonical object, by transport: tests only",
    "bimodules.induce_colors": CRITERION_9,
    "bimodules.restrict_colors": CRITERION_9,
    "chains.ChainComplex.__repr__": REPR,
    "chains.ChainComplex.top_degree": "read by endo_component and ChainComplex.__repr__ only",
    "chains.ChainComplex.total_dim": "read by tests and by the benchmark's counters",
    "chains.ChainMap.__repr__": REPR,
    "chains.TensorSpace.basis": "read by EndoPropData.rho and the standard operads only",
    "chains.TensorSpace.flat_index": "read by EndoPropData.rho and the standard operads only",
    "chains.base_field_complex": "fixture builder for tests and record.py",
    "chains.disc_complex": "fixture builder for tests and record.py",
    "cli.main": "console-script entry point; the replay calls cli.run, which it wraps",
    "endo.EndoElement.__repr__": REPR,
    "endo.EndoElement.identity": TESTS_ONLY,
    "endo.EndoElement.unit": "used by tautological_endo_algebra and tests only",
    "endo.FamilyMap.identity": "fixture builder for tests and record.py (ident.json)",
    "endo.endo_component": ENDO_PROP,
    "exprs.LeftActExpr.__str__": "an expression's text: no command prints a parsed expression with an action",
    "exprs.RightActExpr.__str__": "an expression's text: no command prints a parsed expression with an action",
    "formats.chain_map_to_json": WRITER,
    "formats.family_map_to_json": WRITER,
    "formats.operad_algebra_to_json": WRITER,
    "formats.operad_to_json": WRITER,
    "formats.to_json": WRITER,
    "graphs.Generator.__repr__": REPR,
    "graphs.PropGraph._validate": "invariant check behind check=True; every src construction passes check=False",
    "operads.EndoPropData.__init__": ENDO_PROP,
    "operads.EndoPropData._build_component": ENDO_PROP,
    "operads.EndoPropData._build_component.act": ENDO_PROP,
    "operads.EndoPropData.component": ENDO_PROP,
    "operads.EndoPropData.rho": ENDO_PROP,
    "operads.OperadElement.__repr__": REPR,
    "operads._linearized_set_operad": STANDARD_OPERAD,
    "operads._linearized_set_operad.action": STANDARD_OPERAD,
    "operads.associative_operad": STANDARD_OPERAD,
    "operads.check_unit_identity": "acceptance criterion 8",
    "operads.endomorphism_operad": ENDO_PROP,
    "operads.forget_to_operad": ENDO_PROP,
    "operads.tautological_endo_algebra": ENDO_PROP,
    "operads.trivial_operad": STANDARD_OPERAD,
    "profiles.Palette.__hash__": "keeps Palette hashable; Profile hashes the colours directly",
    "profiles.Palette.__repr__": REPR,
    "profiles.Permutation.__repr__": REPR,
    "profiles.Permutation.block_sum": "acceptance criterion 4's coset oracle",
    "profiles.Profile.__repr__": REPR,
}


def definitions():
    """{(file, first line, name): dotted name} of every def in src/propcalc."""
    found = {}

    def walk(code, path):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = path + "." + const.co_name
                # a def has its own locals; a class body and a module do not,
                # and lambdas and comprehensions are named <...>
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name)

    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            code = compile(handle.read(), path, "exec")
        walk(code, os.path.basename(path)[: -len(".py")])
    return found


def replay_calls():
    """The (file, first line, name) keys of src/propcalc code the corpus enters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(PACKAGE), TESTS])
    child = subprocess.run([sys.executable, "-c", _REPLAY], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return {(os.path.realpath(f), line, name) for f, line, name in json.loads(child.stdout)}


def test_defs_are_named_uniquely():
    names = list(definitions().values())
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)


def test_never_called_definitions_are_the_listed_ones():
    defs = definitions()
    called = replay_calls()
    never = {name for key, name in defs.items() if key not in called}
    entered = sorted(never - set(NEVER_CALLED))
    left = sorted(set(NEVER_CALLED) - never)
    assert not entered and not left, (
        "never called by the golden corpus, not listed: %s; listed, but called or gone: %s"
        % (entered, left)
    )
