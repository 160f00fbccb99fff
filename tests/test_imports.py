"""What importing the package costs: each CLI command loads only the
package modules it runs, no command, sampled verification included, loads
numpy, dataclasses, inspect or OpenSSL's hashes, writing a file loads no
signal module, digests are the same where CPython's builtin sha256 is
missing, no scan loads a thread pool or starts a thread, and the lazily
resolved package names still behave like ordinary package attributes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import sparsehg
import sparsehg.cli as cli

# Runs in a fresh interpreter: each CLI call in turn, then which of the
# modules named in argv[2] (comma-separated) have been imported so far.
_CHILD = """
import contextlib, io, json, os, sys
watched = sys.argv[2].split(",")
import sparsehg.cli as cli

f14 = os.path.join(sys.argv[1], "f14.json")
g0 = os.path.join(sys.argv[1], "g0.json")
calls = [
    ["build", "f14", "-o", f14],
    ["build", "g-ell", "--ell", "0", "-o", g0],
    ["ramsey", "qquad", "--p", "8"],
    ["search", "config", "--input", f14, "--v", "7", "--e", "3"],
    ["extract", "--ell", "1", "--t", "1"],
    ["verify", "nice", "--input", f14],
    ["verify", "claim63"],
    ["verify", "gl-props", "--input", g0],
    ["verify", "nice", "--input", f14, "--samples", "100", "--seed", "1"],
    ["verify", "gl-props", "--input", g0, "--samples", "100", "--seed", "1"],
]
seen = [["import sparsehg.cli", None, [m for m in watched if m in sys.modules]]]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    label = " ".join(a for a in argv[:2] if a[0] != "-")
    seen.append([label, code, [m for m in watched if m in sys.modules]])
print(json.dumps(seen))
"""


def _child(script, *args, environ=os.environ, flags=()):
    """Run `script` in a fresh interpreter, started with `flags`, that
    imports this sparsehg, with `environ` as its environment apart from
    PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True, text=True, encoding="utf-8", env=dict(environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("flags, watched", [
    # with the site hooks, so that installed packages can be imported
    ((), "numpy,concurrent.futures"),
    # -S: no site hook may load hashlib, OpenSSL's _hashlib, dataclasses or
    # inspect first
    (("-S",), "hashlib,_hashlib,dataclasses,inspect"),
], ids=["site", "no-site"])
def test_no_command_imports_numpy_or_hashlib(tmp_path, flags, watched):
    # sampled checks draw from random.Random, and digests take CPython's
    # builtin sha256; the result types derive from core.Record
    seen = _child(_CHILD, str(tmp_path), watched, flags=list(flags))
    assert [code for _, code, _ in seen] == [None] + [0] * 10
    assert all(loaded == [] for _, _, loaded in seen), seen


def test_writing_a_file_does_not_load_signal(tmp_path):
    # -S: no site hook may load signal first. The SIGTERM trap around a
    # write takes the builtin _signal; `search config` is the first call
    # that loads signal, which it imports to kill its workers.
    seen = _child(_CHILD, str(tmp_path), "signal", flags=["-S"])
    assert [code for _, code, _ in seen] == [None] + [0] * 10
    assert [label for label, _, _ in seen][4] == "search config"
    assert [loaded for _, _, loaded in seen] == [[]] * 4 + [["signal"]] * 7, seen


# Runs in a fresh interpreter where CPython's builtin sha256 modules cannot
# be imported: `verify nice` on argv[1], then its report_sha256 and whether
# jsonio took sha256 from hashlib.
_NO_BUILTIN_SHA_CHILD = """
import contextlib, hashlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import sparsehg.cli as cli
import sparsehg.jsonio as jsonio

out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["verify", "nice", "--input", sys.argv[1]]) == 0
print(json.dumps([json.loads(out.getvalue())["report_sha256"], jsonio._sha256 is hashlib.sha256]))
"""


def test_digests_fall_back_to_hashlib(tmp_path, capsys):
    f14 = str(tmp_path / "f14.json")
    assert cli.main(["build", "f14", "-o", f14]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "nice", "--input", f14]) == 0
    want = json.loads(capsys.readouterr().out)["report_sha256"]
    assert _child(_NO_BUILTIN_SHA_CHILD, f14) == [want, True]


# Runs in a fresh interpreter: the CLI call in argv[1:], if any; then the
# sorted package modules loaded so far.
_MODULES_CHILD = """
import contextlib, io, json, sys
import sparsehg.cli as cli

if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "sparsehg")))
"""
_LOADED_BY_CLI = ["sparsehg", "sparsehg.cli", "sparsehg.core", "sparsehg.jsonio"]


@pytest.mark.parametrize("argv, adds", [
    ([], []),
    (["ramsey", "qquad", "--p", "8"], ["ramsey"]),
    (["build", "f-k", "--k", "5"], ["families"]),
    (["search", "config", "--input", "{dir}/f14.json", "--v", "7", "--e", "3"], ["search"]),
    (["extract", "--ell", "1", "--t", "1"], ["extraction", "families"]),
    (["verify", "claim63"], ["families", "kernels", "niceness"]),
    (["verify", "nice", "--input", "{dir}/f14.json"], ["families", "kernels", "niceness"]),
], ids=["import sparsehg.cli", "ramsey qquad", "build f-k", "search config", "extract",
        "verify claim63", "verify nice"])
def test_each_command_loads_only_its_modules(tmp_path, argv, adds):
    assert cli.main(["build", "f14", "-o", str(tmp_path / "f14.json")]) == 0
    loaded = _child(_MODULES_CHILD, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert loaded == sorted(_LOADED_BY_CLI + [f"sparsehg.{m}" for m in adds])


# Runs in a fresh interpreter: a sampled CLI call, then its exit code, this
# process's thread count and whether the call changed the environment.
_THREADS_CHILD = """
import contextlib, io, json, os, sys
import sparsehg.cli as cli

before = dict(os.environ)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "nice", "--input", sys.argv[1], "--samples", "100", "--seed", "1"])
print(json.dumps([code, len(os.listdir("/proc/self/task")), dict(os.environ) == before]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_sampled_call_starts_no_thread_and_sets_no_environment(tmp_path):
    f14 = str(tmp_path / "f14.json")
    assert cli.main(["build", "f14", "-o", f14]) == 0
    assert _child(_THREADS_CHILD, f14) == [0, 1, True]


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
