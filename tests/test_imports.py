"""What importing the package costs: each CLI command loads only the
package modules it runs, numpy is loaded only by the sampled subset scans,
no command loads dataclasses, inspect or OpenSSL's hashes, writing a file
loads no signal module, digests are the same where CPython's builtin sha256
is missing, exhaustive verification runs where numpy cannot be imported at
all and a sampled one fails there with one error line, no scan loads a
thread pool or starts OpenBLAS worker threads, and the lazily resolved
package names still behave like ordinary package attributes."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import sparsehg
import sparsehg.cli as cli

# Runs in a fresh interpreter: each CLI call in turn, then which of the
# modules named in argv[2] (comma-separated) have been imported so far. With
# argv[3] == "no-numpy", importing numpy raises ImportError.
_CHILD = """
import contextlib, io, json, os, sys
watched = sys.argv[2].split(",")
if sys.argv[3:] == ["no-numpy"]:
    sys.modules["numpy"] = None
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
        capture_output=True, text=True, env=dict(environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_subset_scans_import_numpy(tmp_path):
    assert _child(_CHILD, str(tmp_path), "numpy,concurrent.futures") == [
        ["import sparsehg.cli", None, []],
        ["build f14", 0, []],
        ["build g-ell", 0, []],
        ["ramsey qquad", 0, []],
        ["search config", 0, []],
        ["extract", 0, []],
        ["verify nice", 0, []],
        ["verify claim63", 0, []],
        ["verify gl-props", 0, []],
        ["verify nice", 0, ["numpy"]],
    ]


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    # -S: no site hook may load either module first. numpy imports inspect
    # itself, so it is blocked, and the sampled call fails after loading
    # the package's own modules.
    seen = _child(_CHILD, str(tmp_path), "dataclasses,inspect", "no-numpy", flags=["-S"])
    assert [code for _, code, _ in seen] == [None] + [0] * 8 + [1]
    assert all(loaded == [] for _, _, loaded in seen), seen


def test_writing_a_file_does_not_load_signal(tmp_path):
    # -S: no site hook may load signal first. The SIGTERM trap around a
    # write takes the builtin _signal; `search config` is the first call
    # that loads signal, which it imports to kill its workers.
    seen = _child(_CHILD, str(tmp_path), "signal", "no-numpy", flags=["-S"])
    assert [code for _, code, _ in seen] == [None] + [0] * 8 + [1]
    assert [label for label, _, _ in seen][4] == "search config"
    assert [loaded for _, _, loaded in seen] == [[]] * 4 + [["signal"]] * 6, seen


# Runs in a fresh interpreter: import numpy, then print which of the modules
# named in argv[1] (comma-separated) have been imported.
_WATCHED_BY_NUMPY = """
import json, sys
import numpy
print(json.dumps([m for m in sys.argv[1].split(",") if m in sys.modules]))
"""


def test_no_command_loads_openssl(tmp_path):
    # -S: no site hook may load hashlib first, so only numpy's directory is
    # put on the path. numpy 1.x loads _hashlib itself (numpy.random imports
    # secrets), so the sampled call may load what numpy alone loads.
    numpy_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    environ = dict(os.environ, PYTHONPATH=numpy_dir)
    by_numpy = _child(_WATCHED_BY_NUMPY, "hashlib,_hashlib", environ=environ, flags=["-S"])
    seen = _child(_CHILD, str(tmp_path), "hashlib,_hashlib", environ=environ, flags=["-S"])
    assert [code for _, code, _ in seen] == [None] + [0] * 9
    assert all(loaded == [] for _, _, loaded in seen[:-1]), seen
    assert seen[-1][2] == by_numpy


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


# Runs in a fresh interpreter where `import numpy` raises ImportError: each
# CLI call in turn, printing its exit code, stdout and stderr.
_NO_NUMPY_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import sparsehg.cli as cli

try:
    import numpy
except ImportError:
    pass
else:
    raise SystemExit("numpy is importable")
seen = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seen.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(seen))
"""


def test_exhaustive_verification_runs_without_numpy(tmp_path, capsys):
    f14, g0 = str(tmp_path / "f14.json"), str(tmp_path / "g0.json")
    assert cli.main(["build", "f14", "-o", f14]) == 0
    assert cli.main(["build", "g-ell", "--ell", "0", "-o", g0]) == 0
    calls = [
        ["verify", "nice", "--input", f14],
        ["verify", "claim63"],
        ["verify", "gl-props", "--input", g0],
    ]
    capsys.readouterr()
    expected = []
    for argv in calls:
        code = cli.main(argv)
        expected.append([code, json.loads(capsys.readouterr().out)])
    blocked = _child(_NO_NUMPY_CHILD, json.dumps(calls))
    for (code, out, err), (want_code, want) in zip(blocked, expected, strict=True):
        assert code == want_code == 0
        assert err == ""
        report = json.loads(out)
        assert report.pop("timings").keys() == want.pop("timings").keys()
        assert report == want


def test_sampled_verification_without_numpy_is_one_error_line(tmp_path):
    f14 = str(tmp_path / "f14.json")
    assert cli.main(["build", "f14", "-o", f14]) == 0
    calls = [["verify", "nice", "--input", f14, "--samples", "10", "--seed", "1"]]
    [[code, out, err]] = _child(_NO_NUMPY_CHILD, json.dumps(calls))
    assert (code, out) == (1, "")
    assert err.startswith("sparsehg: error: sampled checks need numpy")
    assert len(err.splitlines()) == 1


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


# Runs in a fresh interpreter: a sampled CLI call, which imports numpy, then
# its exit code, this process's thread count and OPENBLAS_NUM_THREADS.
_THREADS_CHILD = """
import contextlib, io, json, os, sys
import sparsehg.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "nice", "--input", sys.argv[1], "--samples", "100", "--seed", "1"])
print(json.dumps([code, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_starts_no_openblas_threads_unless_asked(tmp_path):
    f14 = str(tmp_path / "f14.json")
    assert cli.main(["build", "f14", "-o", f14]) == 0
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _child(_THREADS_CHILD, f14, environ=unset) == [0, 1, "1"]
    code, _, preset = _child(_THREADS_CHILD, f14, environ=dict(unset, OPENBLAS_NUM_THREADS="2"))
    assert (code, preset) == (0, "2")


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
