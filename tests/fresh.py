"""Fresh interpreters, for what a test process cannot show: which modules a
request loads at start, the output under another string hash seed, and the
package and the test scripts run where numpy (or pytest) cannot be imported.

``without`` blocks a module by setting ``sys.modules[name] = None`` before
anything else runs: ``import numpy`` then raises ``ImportError`` and
``importlib.util.find_spec("numpy")`` returns None, as on an interpreter
that lacks it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import weylreps

SRC = str(Path(weylreps.__file__).parent.parent)


def start_fresh(*args, cwd=None, **environ) -> subprocess.Popen:
    """Start ``python *args`` in a fresh interpreter that imports this package,
    with the variables ``environ`` set beside the test's own and
    ``WEYLREPS_SEED`` unset unless ``environ`` sets it."""
    env = {name: value for name, value in os.environ.items() if name != "WEYLREPS_SEED"}
    env.update(PYTHONPATH=SRC, **environ)
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=cwd)


def finish(proc: subprocess.Popen) -> subprocess.CompletedProcess:
    """Wait for ``proc`` and collect its output."""
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def run_fresh(*args, cwd=None, **environ) -> subprocess.CompletedProcess:
    return finish(start_fresh(*args, cwd=cwd, **environ))


def without(modules, code: str) -> list[str]:
    """The arguments that run the source ``code`` where none of ``modules`` can be imported."""
    return ["-c", f"import sys; sys.modules.update(dict.fromkeys({list(modules)!r}))\n{code}"]


def imported_modules(stderr: str) -> list[str]:
    """Module names from the ``-X importtime`` report in ``stderr``."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    ]


def package_modules(modules) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "weylreps"}


#: ``cli.main`` on each argv of the JSON list in ``sys.argv[1]``; prints the
#: exit code, stdout and stderr of each as a JSON list
_MAIN_EACH = """
import contextlib, io, json
from weylreps.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the usage
            code = exc.code
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""


class MainRuns:
    """``cli.main`` on each request in turn, in one fresh interpreter that
    starts at once, so that several run side by side."""

    def __init__(self, requests, blocked=(), cwd=None, **environ):
        self._proc = start_fresh(*without(blocked, _MAIN_EACH), json.dumps(requests),
                                 cwd=cwd, **environ)

    def results(self) -> list[tuple[int, str, str]]:
        """(exit code, stdout, stderr) of each request, in order."""
        proc = finish(self._proc)
        assert proc.returncode == 0, proc.stderr
        return [tuple(result) for result in json.loads(proc.stdout)]
