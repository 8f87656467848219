"""The corpus in golden/ is what scripts/regenerate_goldens.py would write."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "regenerate_goldens", ROOT / "scripts" / "regenerate_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_matches_script():
    files = load_script().FILES
    on_disk = {p.name: p.read_text(encoding="utf-8")
               for p in (ROOT / "golden").glob("*.grp")}
    assert on_disk == files


def test_one_failure_writes_nothing(tmp_path, monkeypatch):
    script = load_script()
    broken = ("group G { vars: x; relations: ; comul: x -> x'; "
              "counit: x -> 0; antipode: x -> -x; }\n")
    monkeypatch.setattr(script, "GOLDEN", tmp_path)
    monkeypatch.setitem(script.FILES, "zz-broken.grp", broken)
    assert script.main() == 1
    assert list(tmp_path.iterdir()) == []
