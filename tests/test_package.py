import esdsim


def test_public_names_pinned():
    assert sorted(esdsim.__all__) == [
        "EsdInterval",
        "ModelParams",
        "SectorFrequencies",
        "StateSeries",
        "ThermalField",
        "build_thermal",
        "concurrence_wootters",
        "dwell_fraction",
        "inversion_closed",
        "observable_columns",
        "scan_esd",
        "sector_frequencies",
        "two_qubit_states",
    ]
    assert all(hasattr(esdsim, name) for name in esdsim.__all__)
