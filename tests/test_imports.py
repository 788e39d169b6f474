"""Importing the package stays cheap: every run pays for the import before
any record exists, so it must pull in no third-party module beyond numpy."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import necurve

SRC = Path(necurve.__file__).resolve().parent.parent

PROBE = """
import json, sys
before = set(sys.modules)
import necurve
added = sorted(set(sys.modules) - before)
print(json.dumps({"added": added, "all": sorted(sys.modules)}))
"""


def test_import_loads_only_stdlib_and_numpy():
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{PROBE}"],
        capture_output=True, text=True, check=True,
    )
    modules = json.loads(done.stdout.strip().splitlines()[-1])
    assert not [m for m in modules["all"] if m.split(".")[0] == "scipy"]
    foreign = {
        m.split(".")[0] for m in modules["added"]
    } - set(sys.stdlib_module_names) - {"necurve", "numpy"}
    assert not foreign, f"import necurve loads {sorted(foreign)}"
