import os
import sys
from pathlib import Path

import pytest

# Tests reference the golden corpus as scenarios/<name>.scn and import the
# shared generators as a plain module.
ROOT = Path(__file__).resolve().parent.parent
os.chdir(ROOT)
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bgpsteer.cli  # noqa: E402

# The package's modules as the test modules imported them.  The bench
# self-test re-imports the package (bench/run.py `fresh_import`); run in the
# same session, that would leave pickle, dotted-path monkeypatches and
# exception classes resolving to copies these tests never imported.
PACKAGE_MODULES = {
    name: module for name, module in sys.modules.items() if name == "bgpsteer" or name.startswith("bgpsteer.")
}


@pytest.fixture(autouse=True)
def package_modules(monkeypatch):
    for name, module in PACKAGE_MODULES.items():
        monkeypatch.setitem(sys.modules, name, module)
