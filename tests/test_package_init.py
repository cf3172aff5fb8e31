"""The lazy package init: every import order works, serving stays lean.

``repro/__init__`` imports ``core`` and ``network`` eagerly (their
import cycles with ``obs``, ``runtime`` and ``ir`` resolve only in that
order) and every other subpackage on first attribute access.  Each
check runs in a fresh interpreter, because an import order can only be
observed once per process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
SUBPACKAGES = sorted(
    path.parent.name
    for path in (SRC / "repro").glob("*/__init__.py")
)
#: What a serving process never needs.
NOT_SERVING = ("repro.testing", "repro.analysis", "repro.racelogic", "repro.apps")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_subpackage_is_found():
    assert {"core", "network", "ir", "obs", "runtime", "serve"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    done = run_python("-c", f"import repro.{name}")
    assert done.returncode == 0, done.stderr


def test_runtime_registry_imports_first():
    done = run_python("-c", "import repro.runtime.registry")
    assert done.returncode == 0, done.stderr


def test_serving_leaves_unused_subpackages_unloaded():
    done = run_python(
        "-c",
        "import sys, repro.serve.server; "
        f"print([m for m in {NOT_SERVING!r} if m in sys.modules])",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_attribute_access_loads_subpackages():
    names = [name for name in repro.__all__ if not name.startswith("__")]
    done = run_python(
        "-c",
        "import repro; "
        f"print([getattr(repro, n).__name__ for n in {names!r}])",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr([f"repro.{n}" for n in names])


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
    assert set(repro.__all__) <= set(dir(repro))


def test_info_command_lists_every_package():
    done = run_python("-m", "repro", "info")
    assert done.returncode == 0, done.stderr
    for name in repro.__all__:
        if not name.startswith("__"):
            assert f"repro.{name} " in done.stdout
