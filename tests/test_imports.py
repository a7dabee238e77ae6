"""The import graph: a command loads only the modules it runs.

Each check runs in a fresh interpreter, so modules loaded by other tests
do not hide an eager import.
"""

import json
import os
import subprocess
import sys

import pytest

import greedylab

# What ``import greedylab.cli`` loads, and all that an ``errors`` run adds to it.
CLI_MODULES = {"cli", "greedy", "alloc", "errorseq", "exact", "errors", "schedule", "spaces",
               "vectors"}
LOADED = "sorted(m[len('greedylab.'):] for m in sys.modules if m.startswith('greedylab.'))"


def _fresh(script: str):
    """The JSON a script prints last, run in a new interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(greedylab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_only_the_shared_modules():
    assert set(_fresh(f"import greedylab.cli\nprint(json.dumps({LOADED}))")) == CLI_MODULES


def test_an_errors_run_loads_no_oracle_suite_or_other_route(tmp_path):
    space = tmp_path / "sched.json"
    space.write_text(json.dumps({"a": [4, 5, 6, 7], "K": 3}))
    vector = tmp_path / "vec.json"
    vector.write_text(json.dumps({"groups": [[0, "2", "20"], [1, "1", "20"]]}))
    argv = ["errors", "--space", str(space), "--vector", str(vector),
            "--out", str(tmp_path / "errors.csv")]
    loaded = _fresh(
        f"from greedylab.cli import main\nrc = main({argv!r})\nprint(json.dumps([rc, {LOADED}]))"
    )
    assert loaded == [0, sorted(CLI_MODULES)]
    assert (tmp_path / "errors.csv").read_text().startswith("k,sigma_sq,gamma_sq,")


def test_cghm_and_check71_runs_load_cghm_and_not_democracy(tmp_path):
    hl = tmp_path / "hl.json"
    hl.write_text(json.dumps({"kind": "one_plus_log2"}))
    hr = tmp_path / "hr.json"
    hr.write_text(json.dumps({"kind": "sqrt"}))
    report = str(tmp_path / "cghm.json")
    runs = [["--out", report, "cghm", "--hl", str(hl), "--hr", str(hr), "--alpha", "0.25"],
            ["--out", str(tmp_path / "check71.json"), "check71", "--hl", str(hl), "--hr", str(hr),
             "--pairs", report, "--alpha", "0.25"]]
    for argv in runs:
        loaded = _fresh(
            f"from greedylab.cli import main\nrc = main({argv!r})\nprint(json.dumps([rc, {LOADED}]))"
        )
        assert loaded == [0, sorted(CLI_MODULES | {"cghm"})]


def test_every_exported_name_resolves_and_is_listed():
    missing = _fresh(
        "import greedylab\n"
        "listed = dir(greedylab)\n"
        "try:\n"
        "    greedylab.no_such_name\n"
        "    refused = False\n"
        "except AttributeError:\n"
        "    refused = True\n"
        "print(json.dumps([refused, [n for n in greedylab.__all__\n"
        "                            if getattr(greedylab, n, None) is None or n not in listed]]))"
    )
    assert missing == [True, []]
    assert "gamma" in greedylab.__all__ and "build_xs" in greedylab.__all__


def test_submodules_still_import_by_name():
    names = _fresh("from greedylab import alloc, explicit\n"
                   "print(json.dumps([alloc.__name__, explicit.__name__]))")
    assert names == ["greedylab.alloc", "greedylab.explicit"]


def test_greedy_serves_the_oracle_table_by_name_only():
    # bench/run.py reads greedy.sigma_power_table at set-up; the module
    # hands out the oracle's table on that read and refuses other names.
    from greedylab import explicit, greedy

    assert greedy.sigma_power_table is explicit.sigma_power_table
    with pytest.raises(AttributeError, match="no_such_name"):
        greedy.no_such_name
