import pytest


@pytest.fixture
def plant_coefficients(monkeypatch):
    """plant(change): every build hands out change(t, coefficients of p_t)
    for each set t it yields, which is where verify_set (through
    _peak_coefficients) and the sweep both read the coefficients; the sets
    built from t still use its real entry."""
    import peakpoly.engine as engine
    import peakpoly.verify as verify
    build = engine._build

    def plant(change):
        def planting(sets, *start):
            for t, raw in build(sets, *start):
                yield t, change(t, raw)

        for module in (engine, verify):
            monkeypatch.setattr(module, "_build", planting)

    return plant
