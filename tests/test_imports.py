"""What importing the package costs: numpy is loaded only by the commands
that scan subsets, no scan loads a thread pool, and the lazily re-exported
niceness names still behave like ordinary package attributes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import sparsehg

# Runs in a fresh interpreter: each CLI call in turn, then whether numpy has
# been imported so far; after the last call, also whether the thread pool
# module concurrent.futures has.
_CHILD = """
import contextlib, io, json, os, sys
import sparsehg.cli as cli

f14 = os.path.join(sys.argv[1], "f14.json")
calls = [
    ["build", "f14", "-o", f14],
    ["ramsey", "qquad", "--p", "8"],
    ["search", "config", "--input", f14, "--v", "7", "--e", "3"],
    ["extract", "--ell", "1", "--t", "1"],
    ["verify", "nice", "--input", f14],
]
seen = [["import sparsehg.cli", None, "numpy" in sys.modules]]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([" ".join(a for a in argv[:2] if a[0] != "-"), code, "numpy" in sys.modules])
seen[-1].append("concurrent.futures" in sys.modules)
print(json.dumps(seen))
"""


def test_only_subset_scans_import_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import sparsehg.cli", None, False],
        ["build f14", 0, False],
        ["ramsey qquad", 0, False],
        ["search config", 0, False],
        ["extract", 0, False],
        ["verify nice", 0, True, False],
    ]


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(sparsehg)
    for name in sparsehg.__all__:
        assert getattr(sparsehg, name) is not None
        assert name in listed
    assert sparsehg.verify_nice is sparsehg.niceness.verify_nice


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from sparsehg import *", namespace)
    for name in sparsehg.__all__:
        assert namespace[name] is getattr(sparsehg, name)
