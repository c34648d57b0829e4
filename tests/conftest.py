import pytest


@pytest.fixture
def plant_coefficients(monkeypatch):
    """plant(change): the coefficients of p_t read as change(t, coefficients
    of p_t) for each nonempty admissible set t, where verify_set (through
    _peak_coefficients) and the sweep (where _rows turns a batch into rows)
    read them.  Each planted row reaches the sweep's quick test and _verify
    as planted, laid out with zeros after it to the length of the longest
    row (and trimmed of them, like every coefficient tuple, for _verify);
    the sets built from t still use its real entry."""
    import peakpoly.engine as engine
    import peakpoly.verify as verify
    coefficients, rows = engine._peak_coefficients, verify._rows

    def plant(change):
        def planted_coefficients(s):
            raw = coefficients(s)
            return change(s, raw) if s and raw else raw  # built, not () or inadmissible

        def planted_rows(batch, m, width):
            limbs, length = rows(batch, m, width)
            planted = [change(t, limbs[i * length:(i + 1) * length])
                       for i, (t, _) in enumerate(batch)]
            length = max(map(len, planted))
            return tuple(c for row in planted for c in (*row, *[0] * (length - len(row)))), length

        for module in (engine, verify):
            monkeypatch.setattr(module, "_peak_coefficients", planted_coefficients)
        monkeypatch.setattr(verify, "_rows", planted_rows)

    return plant


@pytest.fixture
def plant_negative_limb(monkeypatch):
    """plant(target, j, *more): the set target is handed on with c_j = -1,
    as a wrong build step would make it: in a sweep the walk yields it as a
    trip with those coefficients, after the walk's own sign test, so the
    sets built from it are still built; in a single set's build the chain
    yields its list so.  more holds further (target, j) pairs.  Each call
    replaces the last one's."""
    import peakpoly.engine as engine
    import peakpoly.verify as verify
    from peakpoly.intpoly import _trimmed
    walk, chain = verify._walk, engine._chain

    def plant(target, j, *more):
        targets = dict([(target, j), *more])

        def negated(t, coeffs):
            return [-1 if i == targets[t] else c for i, c in enumerate(coeffs)]

        def planting(top, roots, width):
            for t, entry, signed in walk(top, roots, width):
                if t in targets:
                    *_, (_, coeffs) = chain(t)
                    signed = _trimmed(negated(t, coeffs))
                yield t, entry, signed

        def planted_chain(s):
            for t, coeffs in chain(s):
                yield t, negated(t, coeffs) if t in targets else coeffs

        monkeypatch.setattr(verify, "_walk", planting)
        monkeypatch.setattr(engine, "_chain", planted_chain)

    return plant
