"""The example scripts run end to end.

Each script's ``main()`` runs in-process with its output captured, so a
name the library stops exporting breaks this test before it breaks a
reader's first run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "name",
    [
        "classify_query_families",
        "machine_characterizations",
        "quickstart",
        "social_network_analysis",
    ],
)
def test_example_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
