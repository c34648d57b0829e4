import pytest


@pytest.fixture
def plant_coefficients(monkeypatch):
    """plant(change): every build hands out change(t, coefficients of p_t)
    for each set t it hands out, which is where verify_set (through
    _peak_coefficients) and the sweep both read the coefficients; the sets
    built from t still use its real entry."""
    import peakpoly.engine as engine
    import peakpoly.verify as verify
    build = engine._build

    def plant(change):
        def planting(path, top, visit):
            build(path, top, lambda t, raw, tripped: visit(t, change(t, raw), tripped))

        for module in (engine, verify):
            monkeypatch.setattr(module, "_build", planting)

    return plant


@pytest.fixture
def plant_negative_limb(monkeypatch):
    """plant(target, j, *more): the packed entry of the set target is
    handed on with c_j = -1, as a wrong build step would make it, to the
    test of its sign that every entry passes before it is unpacked; more
    holds further (target, j) pairs.  Each call replaces the last one's."""
    import peakpoly.engine as engine
    walk = engine._walk

    def plant(target, j, *more):
        targets = dict([(target, j), *more])

        def planting(path, top, width, visit):
            def planted(t, entry):
                if t in targets:
                    j = targets[t]
                    entry -= ((entry >> j * width) % (1 << width) + 1) << j * width
                return visit(t, entry)

            walk(path, top, width, planted)

        monkeypatch.setattr(engine, "_walk", planting)

    return plant
