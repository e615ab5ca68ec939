"""The ``condiid`` namespace: its family modules load on first use and then
behave as eagerly imported ones.  Each check runs in a fresh interpreter, where
no family module is loaded yet."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PRELUDE = """\
import sys
import condiid
family = {f"condiid.{m}" for m in condiid._SUBMODULES}
assert not family & set(sys.modules), sorted(family & set(sys.modules))
"""

CHECKS = {
    "all_resolves": "for name in condiid.__all__:\n    getattr(condiid, name)\n",
    "family_all_resolves": (
        "missing = [f'{m}.{name}' for m in condiid._SUBMODULES\n"
        "           for name in getattr(condiid, m).__all__\n"
        "           if not hasattr(getattr(condiid, m), name)]\n"
        "assert not missing, missing\n"
    ),
    "star_import_binds_all": (
        "namespace = {}\n"
        "exec('from condiid import *', namespace)\n"
        "assert set(condiid.__all__) <= set(namespace), set(condiid.__all__) - set(namespace)\n"
        "assert namespace['moments'] is sys.modules['condiid.moments']\n"
    ),
    "dir_lists_submodules": (
        "assert {'diagnostics', 'extreme_value', 'lack_of_memory', 'mixing', 'mixtures',\n"
        "        'moments', 'shock_models'} <= set(dir(condiid))\n"
    ),
    "attribute_is_the_module": (
        "assert condiid.moments is sys.modules['condiid.moments']\n"
        "assert condiid.moments.MonotoneSequence((1.0, 0.5)).d == 1\n"
    ),
    "unknown_attribute": (
        "try:\n"
        "    condiid.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('condiid.no_such_name resolved')\n"
        "assert not hasattr(condiid, 'no_such_name')\n"
    ),
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_package_namespace(check):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", PRELUDE + check], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
