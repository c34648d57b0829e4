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


@pytest.fixture
def plant_negative_limb(monkeypatch):
    """plant(target, j): the packed entry of the set target is handed on
    with c_j = -1, as a wrong build step would make it, to the test of its
    sign that every entry passes before it is unpacked."""
    import peakpoly.engine as engine
    packed = engine._packed

    def plant(target, j):
        def planting(sets, width):
            for t, entry in packed(sets, width):
                if t == target:
                    entry -= ((entry >> j * width) % (1 << width) + 1) << j * width
                yield t, entry

        monkeypatch.setattr(engine, "_packed", planting)

    return plant
