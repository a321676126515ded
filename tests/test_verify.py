"""Per-quiver work of the verify sweep: each invariant is computed once."""

import sys

import pytest

import cthh
from cthh.fields import GF2, QQ
from cthh.quiver import Quiver, dynkin_seed
from cthh.verify import check_quiver


def count_calls(monkeypatch, names):
    """Wrap each named cthh function under every cthh module name bound to it."""
    counts = dict.fromkeys(names, 0)

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in names:
        orig = getattr(cthh, name)
        wrapper = counting(name, orig)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cthh" or modname.startswith("cthh.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


@pytest.mark.parametrize("family, q", [
    ("D", Quiver.make(6, [(i, i % 6 + 1) for i in range(1, 7)])),
    ("E", dynkin_seed("E", 6)),
])
def test_check_quiver_computes_each_invariant_once(monkeypatch, family, q):
    counts = count_calls(monkeypatch, ["build_algebra", "cartan", "hh1_dim"])
    record = check_quiver(q, family, 6, [GF2, QQ], max_i=4)
    assert record.passed, record.messages
    # one build per field; hh1_dim once for the closed forms and once per
    # field as the oracle's Der/Inn cross-check
    assert counts == {"build_algebra": 2, "cartan": 1, "hh1_dim": 3}
