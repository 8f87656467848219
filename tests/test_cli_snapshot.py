"""Every recorded corpus command replays to the same exit code and stdout.

The recordings in `perfbench/expected/corpus.json` cover every subcommand
on `golden/`, in text and JSON; they are read in place.
"""

import json
import shlex
from pathlib import Path

import pytest

from neron.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "perfbench" / "expected" / "corpus.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_replays_recorded_output(capsys, golden_dir, key):
    argv = shlex.split(key)
    argv[1] = str(golden_dir / argv[1])
    code = main(argv)
    out = capsys.readouterr().out
    assert code == CORPUS[key]["exit"]
    assert out == CORPUS[key]["stdout"]
