"""The corpus in golden/ passes scripts/check_goldens.py."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "check_goldens", ROOT / "scripts" / "check_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_corpus_validates(capsys):
    assert load_script().main() == 0
    assert capsys.readouterr().out.endswith(" 0 failures\n")


@pytest.mark.parametrize("fname, text", [
    ("zz-broken.grp", "group G { vars: x; relations: ; comul: x -> x'; "
                      "counit: x -> 0; antipode: x -> -x; }\n"),
    ("gm.grp", None),
], ids=["fails-verification", "stock-file-missing"])
def test_a_broken_corpus_is_named(tmp_path, monkeypatch, capsys, fname, text):
    script = load_script()
    for path in (ROOT / "golden").glob("*.grp"):
        shutil.copy(path, tmp_path)
    if text is None:
        (tmp_path / fname).unlink()
    else:
        (tmp_path / fname).write_text(text, encoding="utf-8")
    monkeypatch.setattr(script, "GOLDEN", tmp_path)
    assert script.main() == 1
    named = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert named and set(named) == {fname}
