"""What a fresh process loads: the lazy package exports and the modules of each CLI command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symdet

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the symdet modules loaded by `import symdet.cli`, those the command in argv adds,
# and every standard-library module loaded by the end
_PROBE = """
import contextlib, io, json, sys
from symdet.cli import main

def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "symdet"}

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
stdlib = sorted(m for m in sys.modules if m.split(".")[0] in sys.stdlib_module_names)
print(json.dumps({"import": sorted(before), "added": sorted(loaded() - before), "stdlib": stdlib, "code": code}))
"""


def _probe(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout)


class TestCommandImports:
    def test_import_cli_loads_the_table_path_only(self):
        loaded = _probe()["import"]
        assert loaded == ["symdet", "symdet.cli", "symdet.combinat", "symdet.exact", "symdet.gram"]

    @pytest.mark.parametrize(
        "argv, added",
        [
            (("table", "--n", "3"), []),
            (("sym", "2,1"), ["symdet.symmetrizer"]),
        ],
    )
    def test_command_adds(self, argv, added):
        result = _probe(*argv)
        assert result["code"] == 0
        assert result["added"] == added

    def test_golden_loads_no_cli(self):
        # the reference tables take their weight limits from the engine modules
        probe = "import sys, symdet.golden; print(sorted({'symdet.cli', 'argparse'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert proc.stdout == "[]\n"

    def test_refined_limit_is_checked_before_the_refined_layer_loads(self):
        # _probe reports after main returns; a usage error leaves main by SystemExit instead
        probe = (
            "import sys\nfrom symdet.cli import main\n"
            "try:\n    main(['refined', '9'])\n"
            "except SystemExit as exc:\n    print(exc.code, 'symdet.refined' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert proc.stdout == "2 False\n"
        assert "refined decomposition unsupported for n > 8" in proc.stderr

    def test_refined_loads_no_golden(self):
        result = _probe("refined", "2,1")
        assert result["code"] == 0
        assert "symdet.refined" in result["added"]
        assert "symdet.golden" not in result["added"]

    @pytest.mark.parametrize(
        "argv",
        [(), ("table", "--n", "3"), ("sym", "2,1"), ("refined", "2,1"), ("verify", "--scope", "refined")],
        ids=["import", "table", "sym", "refined", "verify"],
    )
    def test_no_dataclasses_or_inspect(self, argv):
        # both cost milliseconds of every cold start; the value classes are plain slotted classes
        result = _probe(*argv)
        assert result["code"] == 0
        assert not {"dataclasses", "inspect"} & set(result["stdlib"])


class TestLazyExports:
    def test_every_export_resolves(self):
        for name in symdet.__all__:
            assert getattr(symdet, name).__name__ == name
        assert set(symdet.__all__) <= set(dir(symdet))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            symdet.no_such_name
