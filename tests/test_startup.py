"""What a fresh `neron` process loads and runs before its first job.

Each check starts its own interpreter: pytest itself has imported most of
the standard library, so `sys.modules` here says nothing about a CLI call.
"""

import os
import subprocess
import sys
from pathlib import Path

from neron.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def python(*args):
    """Run the interpreter from the repository root with `src` importable."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)


class TestEntryPoint:
    def test_importing_main_runs_nothing(self):
        done = python("-c", "import neron.__main__")
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    def test_module_run_matches_main(self, capsys):
        done = python("-m", "neron", "check-hopf", "golden/gm.grp")
        code = main(["check-hopf", str(ROOT / "golden" / "gm.grp")])
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)


class TestImports:
    def test_cli_loads_neither_dataclasses_nor_inspect(self):
        # -S keeps site-packages, and whatever their .pth files import, out
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import neron.cli, neron.library; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        done = python("-S", "-c", probe, str(SRC))
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
