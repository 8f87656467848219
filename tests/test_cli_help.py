"""The CLI's help and usage-error bytes match a recording.

The recording (`cli_help.json`) holds the exit code, stdout and stderr of
each case below, with the terminal width fixed.  argparse wraps usage lines
differently across Python versions (3.13 keeps a subcommand list and its
`...` on one line), so it holds one variant per distinct set of outputs,
with the interpreters that printed it, and each case must match one of
them.  To add the running interpreter's outputs:

    PYTHONPATH=src python tests/test_cli_help.py

The module does not import pytest, so the recorder also runs on an
interpreter without it; the cases are parametrized by the
`pytest_generate_tests` hook below.
"""

import contextlib
import io
import json
import os
import platform
from pathlib import Path

from neron import cli
from neron.cli import main

RECORDING = Path(__file__).resolve().parent / "cli_help.json"
COLUMNS = "80"

COMMANDS = (
    "check-hopf", "check-flat", "check-morphism", "fibre", "reduce-mod",
    "blowup", "partial-blowup", "auto-trunc", "auto-member", "standard-seq",
    "strict-transform", "check-constancy", "rep-validate", "rep-faithful",
    "rep-blowup-identity", "rep-blowup-line", "rep-rescale", "rep-sum",
    "conormal", "image", "diptych", "triptych", "dgal-solve", "dgal-trivial",
    "dgal-diagnose")

# No case opens its file: argparse rejects each call before main reads it.
# The last case builds check-hopf and then prints the root usage, so it
# also pins the order of the subcommand list after a subcommand is built.
CASES = ([[], ["--help"], ["bogus"], ["-x"]]
         + [[name, "--help"] for name in COMMANDS]
         + [["reduce-mod", "golden/gm.grp"],
            ["check-hopf", "golden/gm.grp", "--format", "xml"],
            ["check-hopf", "golden/gm.grp", "--nope"]])


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list:
    if not RECORDING.is_file():
        return []
    return json.loads(RECORDING.read_text(encoding="utf-8"))["variants"]


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "-")


def test_help_and_usage_bytes(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = run(argv)
    assert got in [v["outputs"][" ".join(argv)] for v in load()]


def test_bytes_do_not_depend_on_what_was_built(monkeypatch):
    # main shares one parser: build every subcommand's parser in it first,
    # then replay the cases in reverse order against the recording
    monkeypatch.setenv("COLUMNS", COLUMNS)
    cli._parser.cache_clear()
    for name in COMMANDS:
        run([name, "--help"])
    variants = load()
    for argv in reversed(CASES):
        assert run(argv) in [v["outputs"][" ".join(argv)] for v in variants], argv


def record():
    os.environ["COLUMNS"] = COLUMNS
    variants = load()
    got = {" ".join(argv): run(argv) for argv in CASES}
    python = platform.python_version()
    for v in variants:
        if v["outputs"] == got:
            if python not in v["pythons"]:
                v["pythons"].append(python)
            break
    else:
        variants.append({"pythons": [python], "outputs": got})
    RECORDING.write_text(json.dumps({"variants": variants}, indent=1,
                                    sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
