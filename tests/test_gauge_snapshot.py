"""Every recorded gauge command replays to the same exit code and stdout.

The recordings in `perfbench/expected/gauge.json` cover every connection
any benchmark seed can draw, and `dgal-diagnose` of `exp` to level 10; they
are read in place.  The generated connections are written from
`perfbench/workloads.py`, the module that names and draws them.
"""

import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from neron.cli import main

ROOT = Path(__file__).resolve().parent.parent
GAUGE = json.loads((ROOT / "perfbench" / "expected" / "gauge.json")
                   .read_text(encoding="utf-8"))
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    """A directory holding gen/<connection>.grp for every generated job."""
    root = tmp_path_factory.mktemp("gauge")
    (root / "gen").mkdir()
    for slot, a, b in workloads.all_gauge_files():
        path = root / workloads.gauge_name(slot, a, b)
        path.write_text(workloads.gauge_text(slot, a, b), encoding="utf-8")
    return root


@pytest.mark.parametrize("key", sorted(GAUGE))
def test_replays_recorded_output(capsys, golden_dir, gen_dir, key):
    argv = shlex.split(key)
    base = gen_dir if argv[1].startswith("gen/") else golden_dir
    argv[1] = str(base / argv[1])
    code = main(argv)
    out = capsys.readouterr().out
    assert code == GAUGE[key]["exit"]
    assert out == GAUGE[key]["stdout"]
