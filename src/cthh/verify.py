"""Batch verification: the closed form vs the oracle.

For every quiver in a mutation class (or a deterministic sample of it),
the suite generates relations, builds the algebra once over QQ, takes the
closed-form series from `hh_closed_form` (the typed series, already checked
against the universal (HH^1, det C) route), runs the brute-force oracle once
for all requested fields (hh_dims: one resolution over QQ, its Hom complex
reduced mod p), and demands exact agreement coefficient by coefficient, plus
vanishing HH^2.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field, replace

from .algebra import build_algebra, cartan
from .classify import hh_closed_form
from .errors import CthhError
from .fields import QQ
from .oracle import hh1_dim, hh_dims
from .quiver import Quiver, _encode, canonical_form, dynkin_seed, enumerate_class
from .relations import generate_relations
from .series import hh_dim


@dataclass(frozen=True)
class QuiverRecord:
    """One quiver's reconciliation; the defaults are those of a FAIL record
    for a quiver whose check raised."""

    canonical: str
    family: str
    rank: int
    zero_relations: int = 0
    commutativity_relations: int = 0
    cartan_det: int = 0
    assoc_poly: tuple = ()
    closed_form: str = ""
    subtype: str = ""
    oracle_dims: tuple = ()  # tuple of (field name, dims tuple)
    passed: bool = False
    messages: tuple = ()

    def to_dict(self):
        return {**asdict(self), "oracle_dims": {name: list(d) for name, d in self.oracle_dims}}


@dataclass
class VerifyReport:
    family: str
    rank: int
    fields: tuple
    max_i: int
    sample: int | None
    records: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def summary(self):
        npass = sum(1 for r in self.records if r.passed)
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: {self.family}{self.rank}, {npass}/{len(self.records)} quivers ok, "
            f"fields {', '.join(self.fields)}, i <= {self.max_i}"
        )

    def to_dict(self):
        head = asdict(replace(self, records=[]))
        del head["records"]
        return {**head, "passed": self.passed, "records": [r.to_dict() for r in self.records]}


def check_quiver(q: Quiver, family: str, rank: int, fieldspecs, max_i: int) -> QuiverRecord:
    """Full closed-form/oracle reconciliation for one quiver."""
    messages = []
    rels = generate_relations(q)
    nzero = sum(1 for _, r in rels if r.is_zero_relation)
    ncomm = len(rels) - nzero
    base = build_algebra(q, rels, QQ)
    cd = cartan(base)
    hh1 = hh1_dim(base)
    closed, subtype = hh_closed_form(q, family, hh1, cd)

    oracle_dims = []
    for fs, dims in zip(fieldspecs, hh_dims(base, fieldspecs, max_i)):
        oracle_dims.append((str(fs), dims))
        expected = tuple(hh_dim(closed, i, fs) for i in range(max_i + 1))
        if dims != expected:
            messages.append(f"{fs}: oracle {dims} != closed form {expected}")
        if max_i >= 2 and dims[2] != 0:
            messages.append(f"{fs}: HH^2 = {dims[2]} is nonzero")

    return QuiverRecord(
        canonical=canonical_form(q).decode("ascii"),
        family=family,
        rank=rank,
        zero_relations=nzero,
        commutativity_relations=ncomm,
        cartan_det=cd.det,
        assoc_poly=cd.assoc_poly,
        closed_form=str(closed),
        subtype=subtype,
        oracle_dims=tuple(oracle_dims),
        passed=not messages,
        messages=tuple(messages),
    )


def _worker(args):
    q, family, rank = args[:3]
    try:
        return check_quiver(*args)
    except CthhError as e:
        # one bad quiver fails its own record, not the sweep
        return QuiverRecord(canonical_form(q).decode("ascii"), family, rank,
                            messages=(f"{type(e).__name__}: {e}",))


def verify_suite(family: str, rank: int, fieldspecs, max_i: int,
                 sample: int | None = None, jobs: int | None = None) -> VerifyReport:
    seed = dynkin_seed(family, rank)
    quivers = enumerate_class(seed)
    if sample is not None:
        # deterministic pseudo-random sample: a prefix in the order of the
        # SHA-256 digests of the canonical forms, which for the members of
        # enumerate_class are their own encodings
        quivers = sorted(quivers, key=lambda q: hashlib.sha256(_encode(q)).digest())[:sample]
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 8)
    fieldspecs = tuple(fieldspecs)
    tasks = [(q, family, rank, fieldspecs, max_i) for q in quivers]
    records = None
    if jobs > 1 and len(tasks) > 1:
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
            results = pool.map(_worker, tasks, chunksize=4)  # submitting starts the workers
        except OSError as e:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            warnings.warn(f"process pool unavailable ({type(e).__name__}: {e}); "
                          "verifying serially", RuntimeWarning, stacklevel=2)
        else:
            # an error raised while checking a quiver propagates from here
            with pool:
                records = list(results)
    if records is None:
        records = [_worker(t) for t in tasks]
    records.sort(key=lambda r: r.canonical)
    report = VerifyReport(
        family=family,
        rank=rank,
        fields=tuple(str(fs) for fs in fieldspecs),
        max_i=max_i,
        sample=sample,
        records=records,
    )
    return report
