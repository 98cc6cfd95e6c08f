"""The package's import surface: what ``import zdrlab`` loads, and the names
it exports whether loaded eagerly or on first read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdrlab

ROOT = Path(__file__).resolve().parent.parent

# a fresh interpreter imports the package and the CLI, runs CLI calls that
# never need the claim registry, then one that does, and prints which of
# the watched modules were loaded after each step, and the exported names
# that dir() missed before any of them was read
PROBE = """
import json, sys
WATCHED = ("numpy", "zdrlab.rings", "zdrlab.graphs", "zdrlab.solver",
           "zdrlab.families", "zdrlab.verify")
def loaded():
    return sorted(m for m in WATCHED if m in sys.modules)
steps = {}
import zdrlab, zdrlab.cli
steps["import"] = loaded()
not_in_dir = sorted(set(zdrlab.__all__) - set(dir(zdrlab)))
for args in (["--help"], ["ring", "describe", "Zn:6"], ["graph", "build", "Zn:6"],
             ["dims", "solve", "Zn:6"], ["table", "emit", "table2"]):
    zdrlab.cli.main(args, standalone_mode=False)
    steps[" ".join(args)] = loaded()
print(json.dumps([steps, not_in_dir]))
"""


def test_import_loads_only_what_solving_needs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, env=env,
                            timeout=300, text=True)
    assert result.returncode == 0, result.stderr
    steps, not_in_dir = json.loads(result.stdout.splitlines()[-1])
    assert not_in_dir == []
    solving = ["numpy", "zdrlab.graphs", "zdrlab.rings", "zdrlab.solver"]
    assert steps.pop("table emit table2") == sorted(solving + ["zdrlab.families",
                                                                "zdrlab.verify"])
    assert steps == dict.fromkeys(["import", "--help", "ring describe Zn:6",
                                   "graph build Zn:6", "dims solve Zn:6"], solving)


# the exported values that carry no __module__ of their own
CONSTANT_HOMES = {"INF": "zdrlab.graphs", "ERRATA": "zdrlab.verify"}


@pytest.mark.parametrize("name", zdrlab.__all__)
def test_every_exported_name_is_its_defining_modules_object(name):
    value = getattr(zdrlab, name)
    home = CONSTANT_HOMES.get(name) or value.__module__
    assert value is getattr(sys.modules[home], name)
    if name in zdrlab._LAZY:
        assert home == f"zdrlab.{zdrlab._LAZY[name]}"
    assert name in dir(zdrlab)


def test_lazy_names_and_submodules_import_as_before():
    from zdrlab import families, run_suite, path, verify

    assert run_suite is verify.run_suite and path is families.path
    assert zdrlab.verify is verify and zdrlab.families is families


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'run_suit'"):
        zdrlab.run_suit
    with pytest.raises(ImportError, match="run_suit"):
        from zdrlab import run_suit  # noqa: F401
