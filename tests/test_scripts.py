"""The label and draw contracts hold on an interpreter without numpy or pytest.

``tests/test_labels.py`` and ``tests/test_draws.py`` run as scripts as well
as under pytest; here each runs as a script where neither can be imported,
so a package path they reach that imports numpy fails it.  Without numpy,
``test_labels.py`` leaves out its Gram matrix test and says so.
"""

from pathlib import Path

import pytest

from fresh import finish, start_fresh, without

TESTS = Path(__file__).parent
#: each script and the last line it prints when every check passed
SCRIPTS = {"test_labels.py": "label checks passed", "test_draws.py": "draw checks passed"}


@pytest.fixture(scope="module")
def script_runs() -> dict:
    """The run of each script, the two side by side."""
    run = without(["numpy", "pytest"],
                  "import runpy; runpy.run_path(sys.argv[1], run_name='__main__')")
    procs = {script: start_fresh(*run, str(TESTS / script)) for script in SCRIPTS}
    return {script: finish(proc) for script, proc in procs.items()}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_passes_without_numpy_or_pytest(script_runs, script):
    proc = script_runs[script]
    assert proc.returncode == 0, proc.stderr
    assert SCRIPTS[script] in proc.stdout.splitlines()[-1]
