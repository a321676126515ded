"""Per-quiver work of the verify sweep: each invariant is computed once."""

import json
import multiprocessing
import pathlib
import re
import sys
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

import cthh
from conftest import mutation_class, sample_by_canonical
from cthh.cli import main
from cthh.errors import InvariantError
from cthh.fields import GF2, GF5, QQ
from cthh.oracle import BimoduleResolution
from cthh.quiver import Quiver, canonical_form, dynkin_seed
from cthh.series import HSeries
from cthh.verify import QuiverRecord, check_quiver, verify_suite


def count_calls(monkeypatch, names):
    """Wrap each named function, looked up in cthh or, for a dotted name, in
    that cthh module, under every cthh module name bound to it."""
    counts = dict.fromkeys(names, 0)

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in names:
        owner, _, attr = name.rpartition(".")
        orig = getattr(getattr(cthh, owner) if owner else cthh, attr)
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
    names = ["build_algebra", "cartan", "hh1_dim", "center_dim", "classify_D",
             "series.series_from_invariants", "linalg.pencil_det"]
    counts = count_calls(monkeypatch, names)
    eliminations = Counter()
    real = BimoduleResolution._hom_rank

    def hom_rank(self, i, field, thread=None):
        eliminations[field.characteristic] += 1
        return real(self, i, field, thread)

    monkeypatch.setattr(BimoduleResolution, "_hom_rank", hom_rank)
    seen = []  # (function, algebra) for each algebra that reaches it

    def recording(name, orig, pos=0):
        def wrapper(*args):
            seen.append((name, args[pos]))
            return orig(*args)
        return wrapper

    monkeypatch.setattr(cthh.verify, "cartan", recording("cartan", cthh.verify.cartan))
    for name in ("center_dim", "derivation_space_dim"):
        monkeypatch.setattr(cthh.oracle, name, recording(name, getattr(cthh.oracle, name)))
    monkeypatch.setattr(BimoduleResolution, "__init__",
                        recording("BimoduleResolution", BimoduleResolution.__init__, pos=1))
    fields = [GF2, GF5, QQ]
    record = check_quiver(q, family, 6, fields, max_i=4)
    assert record.passed, record.messages
    # one table per record: the algebra over QQ that cartan reads, and its
    # views over GF(2) and GF(5), share it
    base = next(a for name, a in seen if name == "cartan")
    assert {(name, a.field.characteristic) for name, a in seen} == {
        ("cartan", 0), ("BimoduleResolution", 0),
        *((name, c) for name in ("center_dim", "derivation_space_dim") for c in (2, 5, 0))}
    assert all(a.mult is base.mult for _, a in seen)
    # one build over QQ, moved to each other field; hh1_dim once, for the
    # closed forms; the center once inside it and once per field as the
    # oracle's HH^0 cross-check, whose value the HH^1 cross-check reuses;
    # the type-D pattern match gives both the closed form and the record's
    # subtype; the universal series is computed once, inside hh_closed_form;
    # the associated polynomial once, for the record (and type E's table)
    assert counts == {"build_algebra": 1, "cartan": 1, "hh1_dim": 1,
                      "center_dim": 1 + len(fields), "classify_D": int(family == "D"),
                      "series.series_from_invariants": 1, "linalg.pencil_det": 1}
    # one Hom-differential elimination over QQ per distinct level 1..5 (per
    # thread from level 2 on) whose Hom space is not 0, and one mod p per
    # (p, level) whose pivot minor p divides: the oriented 6-cycle repeats no
    # level by 5, Hom(P_2, A) and Hom(P_5, A) are 0 there, and its level-4 minor
    # is -5; E6 is hereditary, so Hom(P_i, A) is 0 from level 2 on
    assert eliminations == ({0: 3, 5: 1} if family == "D" else {0: 1})


@pytest.mark.parametrize("family, rank, sample", [("A", 5, 7), ("D", 7, 40), ("E", 7, 50), ("D", 6, 80)])
def test_verify_sample_is_the_canonical_digest_prefix(monkeypatch, family, rank, sample):
    # the sample ordered by the members' own encodings is the one ordered by
    # canonical_form; check_quiver is stubbed, only the choice is compared
    monkeypatch.setattr(cthh.verify, "check_quiver",
                        lambda q, family, rank, *_: QuiverRecord(canonical_form(q).decode("ascii"), family, rank))
    report = verify_suite(family, rank, [GF2], max_i=2, sample=sample, jobs=1)
    want = sample_by_canonical(mutation_class(family, rank), sample)
    assert len(want) == min(sample, len(mutation_class(family, rank)))
    assert [r.canonical for r in report.records] == sorted(canonical_form(q).decode("ascii") for q in want)


def test_typed_error_in_one_quiver_gives_one_fail_record(monkeypatch, capsys):
    bad = mutation_class("A", 4)[2]
    real = cthh.verify.hh_dims

    def hh_dims(a, fieldspecs, max_i):
        if a.quiver == bad:
            raise InvariantError("planted failure")
        return real(a, fieldspecs, max_i)

    monkeypatch.setattr(cthh.verify, "hh_dims", hh_dims)
    report = verify_suite("A", 4, [GF2], max_i=2, jobs=1)
    assert len(report.records) == 6
    failed = [r for r in report.records if not r.passed]
    assert len(failed) == 1
    assert failed[0].canonical == canonical_form(bad).decode("ascii")
    assert failed[0].messages == ("InvariantError: planted failure",)
    assert main(["verify", "--seed", "A4", "--chars", "2", "--max-i", "2", "--jobs", "1"]) == 1
    assert "FAIL: A4, 5/6 quivers ok" in capsys.readouterr().out


TRIANGLE = Quiver.make(3, [(1, 2), (2, 3), (3, 1)])  # h = f_3


def test_closed_form_disagreeing_with_universal_fails_the_record(monkeypatch):
    monkeypatch.setattr(cthh.classify, "hh_type_A", lambda q: HSeries.of(4))
    report = verify_suite("A", 3, [GF2, QQ], max_i=4, jobs=1)
    assert len(report.records) == 4 and not report.passed
    for r in report.records:
        assert not r.passed and len(r.messages) == 1
        assert r.messages[0].startswith("ClosedFormMismatchError: type-A series f_4 but "), r


def test_oracle_disagreeing_with_both_routes_fails_the_record(monkeypatch):
    real = cthh.verify.hh_dims

    def hh_dims(a, fieldspecs, max_i):
        return [d[:2] + (1,) + d[3:] for d in real(a, fieldspecs, max_i)]

    monkeypatch.setattr(cthh.verify, "hh_dims", hh_dims)
    record = check_quiver(TRIANGLE, "A", 3, [GF2, QQ], max_i=4)
    assert not record.passed
    assert record.oracle_dims == (("GF(2)", (1, 1, 1, 1, 1)), ("QQ", (1, 1, 1, 0, 0)))
    assert record.messages == (
        "GF(2): oracle (1, 1, 1, 1, 1) != closed form (1, 1, 0, 1, 1)",
        "GF(2): HH^2 = 1 is nonzero",
        "QQ: oracle (1, 1, 1, 0, 0) != closed form (1, 1, 0, 0, 0)",
        "QQ: HH^2 = 1 is nonzero",
    )


def test_pool_fallback_warns_and_keeps_report(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError(38, "Function not implemented")

    serial = verify_suite("A", 4, [GF2, QQ], max_i=3, jobs=1)
    monkeypatch.setattr(cthh.verify, "ProcessPoolExecutor", no_pool)
    with pytest.warns(RuntimeWarning, match="OSError: .*Function not implemented"):
        report = verify_suite("A", 4, [GF2, QQ], max_i=3, jobs=2)
    assert report.to_dict() == serial.to_dict()


def test_pool_map_failure_shuts_the_pool_down_and_keeps_report(monkeypatch):
    # the pool is built, then submitting the tasks fails: the pool is shut
    # down, one warning says so, and the serial sweep gives the same bytes
    pools = []

    class FailingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.shutdowns = []
            pools.append(self)

        def map(self, *args, **kwargs):
            raise OSError(24, "Too many open files")

        def shutdown(self, *args, **kwargs):
            self.shutdowns.append((args, kwargs))
            super().shutdown(*args, **kwargs)

    serial = json.dumps(verify_suite("A", 4, [GF2, QQ], max_i=3, jobs=1).to_dict())
    monkeypatch.setattr(cthh.verify, "ProcessPoolExecutor", FailingPool)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_suite("A", 4, [GF2, QQ], max_i=3, jobs=2)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "process pool unavailable (OSError: [Errno 24] Too many open files); verifying serially")]
    assert len(pools) == 1 and pools[0].shutdowns == [((), {"cancel_futures": True})]
    assert json.dumps(report.to_dict()) == serial


def test_worker_oserror_propagates_without_serial_rerun(monkeypatch):
    bad = mutation_class("A", 4)[2]
    real = cthh.verify.hh_dims
    parent_calls = []  # forked workers append to their own copies

    def hh_dims(a, fieldspecs, max_i):
        parent_calls.append(a.quiver)
        if a.quiver == bad:
            raise OSError(5, "Input/output error")
        return real(a, fieldspecs, max_i)

    def fork_pool(max_workers):
        # forked workers see the patched oracle whatever the default start method
        return ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("fork"))

    monkeypatch.setattr(cthh.verify, "hh_dims", hh_dims)
    monkeypatch.setattr(cthh.verify, "ProcessPoolExecutor", fork_pool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OSError) as exc:
            verify_suite("A", 4, [GF2], max_i=2, jobs=2)
    assert exc.value.errno == 5
    assert parent_calls == []


def test_long_tier_pins_one_report_sha_per_workflow_seed():
    root = pathlib.Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "long-tier.yml").read_text(encoding="utf-8")
    seeds = re.search(r"seed: \[(.*)\]", workflow).group(1).split(", ")
    pinned = dict(line.split() for line in (root / "tests" / "long_tier_sha256.txt")
                  .read_text(encoding="utf-8").splitlines() if not line.startswith("#"))
    assert list(pinned) == seeds == ["A8", "D8", "E7", "A9", "D9", "E8", "A10", "D10", "A11", "D11"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha in pinned.values())
    # tier1.yml runs the A8, E7 and D8 legs on every push, against the same pins
    tier1 = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert re.search(r"seed: \[(.*)\]", tier1).group(1).split(", ") == ["A8", "E7", "D8"]
    assert tier1.count("tests/long_tier_sha256.txt") == 1
