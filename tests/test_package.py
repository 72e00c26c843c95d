import re
from pathlib import Path

import esdsim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_pinned():
    assert sorted(esdsim.__all__) == [
        "EsdInterval",
        "ModelParams",
        "SectorFrequencies",
        "SectorTable",
        "StateSeries",
        "ThermalField",
        "build_thermal",
        "dwell_fraction",
        "esd_intervals",
        "observable_columns",
        "sector_frequencies",
        "two_qubit_states",
    ]
    assert all(hasattr(esdsim, name) for name in esdsim.__all__)


def test_readme_library_block_runs():
    # the first python fence after "## Library": the documented API must exist
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})
