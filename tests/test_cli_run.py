"""`cli.run` called repeatedly in one process.

The parser is built once and shared by every call, so each sequence below
checks that nothing of one call reaches the next: every stdout and exit code
is compared with the golden corpus (tests/golden) or with the same command
run alone.
"""

import json
import os
import subprocess
import sys

import pytest

from golden.record import CASES, INPUTS, run_case
from propcalc import cli

with open(CASES, encoding="utf-8") as _handle:
    GOLDEN = {case["id"]: case for case in json.load(_handle)}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def replay(case_id):
    case = GOLDEN[case_id]
    assert run_case(case["argv"]) == (case["exit"], case["stdout"])


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "bad_argv",
    [["no-such-command", "q.json"], ["--report", "xml", "check", "q.json"], [], ["--seed", "1", "check", "fam.json"]],
    ids=["unknown-command", "bad-report", "no-command", "retired-seed-flag"],
)
def test_usage_error_then_valid_call(bad_argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_case(bad_argv)
    assert exc.value.code == 2
    assert "usage: propcalc" in capsys.readouterr().err
    replay("eq-equal-text")
    replay("eq-equal-json")


def test_workspace_does_not_outlive_its_call():
    replay("workspace-name-text")
    # a bare name resolves only through --workspace
    assert run_case(["homology", "x"]) == (2, "error: no such file: 'x'\n")
    full = os.path.join(INPUTS, "subdir", "x.json")
    assert run_case(["homology", full]) == (0, GOLDEN["homology-text"]["stdout"])


def test_vertex_cap_default_comes_from_each_call():
    command = ["dim-free", "binary.json", "c", "c,c,c"]
    # the two vertices this component needs lie beyond a cap of 1
    assert run_case(command + ["1"]) == (0, "0\n")
    assert run_case(["--max-vertices", "1"] + command) == (0, "0\n")
    assert run_case(command) == (0, "12\n")
    replay("dim-free-default-cap-text")
    replay("dim-free-text")
    replay("dim-free-default-cap-json")


def test_report_mode_does_not_outlive_its_call():
    for name in ("box-h", "normalize", "transfer-fibration", "homology"):
        replay(name + "-json")
        replay(name + "-text")
        replay(name + "-json")


@pytest.mark.parametrize("report", ["text", "json"])
def test_document_reports_encode_once(report, monkeypatch):
    calls = []

    def counting_dumps(obj):
        calls.append(obj)
        return cli.formats.dumps(obj)

    monkeypatch.setattr(cli, "dumps", counting_dumps)
    replay("box-h-%s" % report)
    assert len(calls) == 1


def test_one_shot_process_matches_golden():
    case = GOLDEN["check-complex-json"]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "propcalc.cli"] + case["argv"],
        cwd=INPUTS, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("name, code, stdout", [("fam.json", 0, "ok\n"), ("bad_op.json", 2, None)])
def test_main_exits_with_the_run_code(name, code, stdout):
    """`python -m propcalc.cli` goes through cli.main, which exits with what
    run returns: 0 on a valid family, 2 on an operad whose gamma fails."""
    root = os.path.dirname(SRC)
    done = subprocess.run(
        [sys.executable, "-m", "propcalc.cli", "--workspace", os.path.join("tests", "golden", "inputs"), "check", name],
        cwd=root, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code and done.stderr == ""
    if stdout is not None:
        assert done.stdout == stdout


def test_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", "import propcalc.cli as c; print(c.build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "0\n")
