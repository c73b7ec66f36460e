"""Replay the golden CLI corpus in tests/golden (see tests/golden/record.py).

Each case is one CLI command over the committed input files, in text or JSON
report, with the exit code and stdout recorded before the canonical JSON
emitter replaced json.dumps; only the exit-2 cases for a directory, a
non-UTF-8 file and a malformed round-trip algebra were recorded after, as
those commands ended in a traceback before, and the exit-2 case for a
bimodule whose out and in actions do not commute, which `check` accepted
before it compared the actions on generators, and the two exit-2 cases for
boundary rows written as JSON objects or as strings, which `homology` read
by their keys or characters before, and the four exit-2 cases for a
boundary whose second row is shorter or longer than its first, which
`homology` read zero-padded or ended in a traceback on, and `check`
accepted.  The three exit-2 cases for fields of the wrong JSON type
(dim-free-generators-string, homology-dims-float, check-operad-arity-string)
were recorded after the loaders checked the type of every field: dim-free
ended in a traceback on a signature whose generators are a string, homology
read a dimension of 2.5 as 2, and check read an arity bound of "2" as 2.
The transfer and factor cases whose maps carry 1/2 entries
(transfer-fibration-halved, factor-fractions) were recorded before integral
entries became ints, so they show the mixed int/Fraction path prints the
same bytes.  The dim-free cases over repeated
generators (dim-free-equal-generators, dim-free-mixed-generators) were
recorded before enumerate_graphs canonicalized one labelled copy per class.
Three cases were recorded after the commands they run were mended:
check-family-stray-color, for a family with a complex at a color outside its
palette, which `check` accepted before; path-object-high-degree, for a
complex in degree 10^8 alone, on which `path-object` looped through every
degree below it; and check-bimodule-extra-action, for a bimodule with an
out-action on the identity, which is not a stabilizer generator, and which
`check` accepted before.  The wide-matrix cases (box-h-wide, box-v-wide)
were recorded before dumps wrote matrices from their sparse rows, and the
three check-zero-space cases after an all-zero matrix on a zero space was
shape-checked: `check` accepted each of them before.  operad-to-prop-5 was
recorded before orbit keys were kept one per orbit and operad tensor spaces
one per value of their factors.  The four duplicate-entry cases
(check-bimodule-duplicate-component, check-operad-duplicate-component,
check-operad-duplicate-gamma, round-trip-duplicate-value) were recorded after
the loaders rejected an entry listed twice: before, the later entry silently
replaced the earlier one, and `check` printed ok and `round-trip` round trip
exact on each of them.  The two repeated-key cases (homology-repeated-key,
check-operad-repeated-key) were recorded after a JSON object that gives a key
twice was rejected: before, the last value was read, and `homology` printed
H_0 = 2 for dims {"0": 1, "0": 2}.
"""

import json
import os

import pytest

from golden.record import CASES, COMMANDS, INPUTS, run_case
from propcalc.cli import build_parser
from propcalc.formats import (
    Workspace,
    dumps,
    load_json,
    operad_algebra_from_json,
    operad_algebra_to_json,
    to_json,
)

with open(CASES, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

# input files that are not canonical files, or do not load, on purpose; a
# file that repeats a key is neither, as json.loads keeps only its last value
NOT_CANONICAL = {"truncated.json", "not_utf8.json", "dims_repeated_key.json", "ass_repeated_key.json"}
NOT_LOADABLE = {
    "bad_bimodule.json",
    "noncommuting_bimodule.json",
    "rows_object.json",
    "rows_string.json",
    "short_row.json",
    "long_row.json",
    "generators_string.json",
    "dims_float.json",
    "arity_string.json",
    "fam_stray_color.json",
    "sign_extra_action.json",
    "perm_a_duplicate_action.json",
    "perm_a_duplicate_component.json",
    "op_duplicate_component.json",
    "ass_duplicate_gamma.json",
    "alg_duplicate_value.json",
    "zero_space_shape.json",
    "zero_space_degree.json",
    "zero_space_map.json",
}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_golden_case(case):
    assert run_case(case["argv"]) == (case["exit"], case["stdout"])


def test_corpus_covers_every_command_and_case():
    subcommands = set(build_parser()._subparsers._group_actions[0].choices)
    assert {next(a for a in argv if a in subcommands) for _, argv in COMMANDS} == subcommands
    assert len(GOLDEN) == 2 * len(COMMANDS)


def test_corpus_writes_wide_matrix_rows():
    # dumps writes a row in texts of at most 16 entries: these cases hold a
    # 34-column row nonzero on both sides of each boundary, and a zero row
    for case_id in ("box-h-wide-text", "box-h-wide-json", "box-v-wide-text", "box-v-wide-json"):
        case = next(c for c in GOLDEN if c["id"] == case_id)
        (component,) = json.loads(case["stdout"])["components"]
        rows = component["carrier"]["boundary"]["1"]
        assert [[j for j, x in enumerate(row) if x != "0/1"] for row in rows] == [[0, 15, 16, 31, 32, 33], []]
        assert {len(row) for row in rows} == {34}


def _canonical_inputs():
    for root, _, files in os.walk(INPUTS):
        for name in sorted(files):
            if name not in NOT_CANONICAL:
                yield os.path.relpath(os.path.join(root, name), INPUTS)


@pytest.mark.parametrize("name", sorted(_canonical_inputs()))
def test_load_then_dump_is_byte_identical(name):
    with open(os.path.join(INPUTS, name), encoding="utf-8") as handle:
        text = handle.read()
    data = json.loads(text)
    assert dumps(data) == text
    if name in ("alg.json", "alg_scaled.json"):
        operad = Workspace(INPUTS).resolve("ass")
        assert dumps(operad_algebra_to_json(operad_algebra_from_json(data, operad))) == text
    elif name not in NOT_LOADABLE:
        assert dumps(to_json(load_json(data))) == text
