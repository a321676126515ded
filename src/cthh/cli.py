"""Command-line interface: quiver I/O, per-quiver reports, verification sweeps.

Quiver files are JSON documents {"vertices": n, "arrows": [[s, t], ...]}
with 1-based indices and order-insensitive arrows.  Every command accepts
--json for machine-readable output; the default is aligned text.  Exit
codes: 0 pass, 1 verification failure, 2 input error (a bad command line,
file or quiver).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import build_algebra, cartan
from .classify import hh_closed_form, hh_type_A
from .errors import CthhError, InputSyntaxError
from .fields import QQ, FieldSpec
from .linalg import format_poly
from .oracle import hh1_dim, hh_dims
from .quiver import (DEFAULT_CLASS_CAP, Quiver, detect_dynkin, dynkin_seed, enumerate_class,
                     mutate, validate)
from .relations import generate_relations
from .series import hh_dim
from .verify import verify_suite


# ---------------------------------------------------------------------------
# Quiver documents
# ---------------------------------------------------------------------------

def parse_quiver(text: str) -> Quiver:
    """Parse a quiver document; raises InputSyntaxError with position info."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputSyntaxError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise InputSyntaxError("document is nested too deeply") from None
    if not isinstance(doc, dict) or set(doc) != {"vertices", "arrows"}:
        raise InputSyntaxError('document must have exactly the keys "vertices" and "arrows"')
    vertices = doc["vertices"]
    arrows = doc["arrows"]
    # type(x) is int: JSON true and false load as bool, a subclass of int
    if type(vertices) is not int or vertices < 1:
        raise InputSyntaxError('"vertices" must be a positive integer')
    if not isinstance(arrows, list) or any(
        not isinstance(a, list) or len(a) != 2 or not all(type(x) is int for x in a)
        for a in arrows
    ):
        raise InputSyntaxError('"arrows" must be a list of [source, target] integer pairs')
    q = Quiver(vertices, tuple(sorted((s, t) for s, t in arrows)))
    validate(q)
    return q


def serialize_quiver(q: Quiver) -> str:
    doc = {"vertices": q.vertex_count, "arrows": [list(a) for a in sorted(q.arrows)]}
    return json.dumps(doc)


def _read_quiver(path: str) -> Quiver:
    with open(path, encoding="utf-8") as fh:
        return parse_quiver(fh.read())


def _parse_seed(text: str):
    m = re.fullmatch(r"([ADEade])(\d+)", text.strip())
    if not m:
        raise InputSyntaxError(f"seed must look like A5, D4 or E6, got {text!r}")
    family, rank = m.group(1).upper(), int(m.group(2))
    if rank < {"A": 2, "D": 4, "E": 6}[family] or family == "E" and rank > 8:
        raise InputSyntaxError(f"seed rank must be at least 2 for A, at least 4 for D "
                               f"and 6 to 8 for E, got {text!r}")
    return family, rank


def _parse_chars(text: str):
    fields = [FieldSpec(int(c)) for c in text.split(",") if c.strip() != ""]
    if not fields:
        raise InputSyntaxError(f"--chars names no characteristic: {text!r}")
    for i, f in enumerate(fields):
        if f in fields[:i]:
            raise InputSyntaxError(f"--chars names characteristic {f.characteristic} twice: {text!r}")
    return fields


def _check_max_i(max_i: int):
    if max_i < 0:
        raise InputSyntaxError(f"--max-i must be at least 0, got {max_i}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    q = _read_quiver(args.file)
    if args.json:
        print(json.dumps({"ok": True, "vertices": q.vertex_count, "arrows": len(q.arrows)}))
    else:
        print(f"ok: {q.vertex_count} vertices, {len(q.arrows)} arrows")
    return 0


def _cmd_mutate(args):
    q = _read_quiver(args.file)
    out = mutate(q, args.at)
    print(serialize_quiver(out))
    return 0


def _cmd_class(args):
    family, rank = _parse_seed(args.seed)
    if args.cap < 1:
        raise InputSyntaxError(f"--cap must be at least 1, got {args.cap}")
    members = enumerate_class(dynkin_seed(family, rank), cap=args.cap)
    if args.json:
        print(json.dumps({
            "seed": f"{family}{rank}",
            "count": len(members),
            "quivers": [json.loads(serialize_quiver(q)) for q in members],
        }))
    else:
        print(f"{family}{rank}: {len(members)} isomorphism classes")
        for q in members:
            print(" ", serialize_quiver(q))
    return 0


def _cmd_relations(args):
    q = _read_quiver(args.file)
    rels = generate_relations(q)
    if args.json:
        print(json.dumps({
            "relations": [
                {
                    "arrow": list(arrow),
                    "kind": "zero" if rel.is_zero_relation else "commutativity",
                    "terms": [{"coefficient": c, "path": list(p.vertices)} for c, p in rel.terms],
                }
                for arrow, rel in rels
            ]
        }))
    else:
        if not rels:
            print("no relations (hereditary)")
        for arrow, rel in rels:
            kind = "zero" if rel.is_zero_relation else "comm"
            print(f"  arrow {arrow[0]}->{arrow[1]}  [{kind}]  {rel}")
    return 0


def _cmd_cartan(args):
    q = _read_quiver(args.file)
    a = build_algebra(q, generate_relations(q), QQ)
    cd = cartan(a)
    if args.json:
        print(json.dumps({
            "matrix": [list(r) for r in cd.matrix],
            "det": cd.det,
            "assoc_poly_ascending": list(cd.assoc_poly),
            "assoc_poly": format_poly(cd.assoc_poly),
        }))
    else:
        print("Cartan matrix:")
        width = max(len(str(x)) for row in cd.matrix for x in row)
        for row in cd.matrix:
            print("  " + " ".join(f"{x:>{width}}" for x in row))
        print(f"det C = {cd.det}")
        print(f"associated polynomial: {format_poly(cd.assoc_poly)}")
    return 0


def _cmd_hh(args):
    _check_max_i(args.max_i)
    fs = FieldSpec(args.char)
    q = _read_quiver(args.file)
    family, rank = detect_dynkin(q)
    if family == "A":
        h = hh_type_A(q)
    else:
        a = build_algebra(q, generate_relations(q), QQ)
        h, _ = hh_closed_form(q, family, hh1_dim(a), cartan(a))
    dims = [hh_dim(h, i, fs) for i in range(args.max_i + 1)]
    if args.json:
        print(json.dumps({
            "family": f"{family}{rank}",
            "h": str(h),
            "characteristic": args.char,
            "dims": dims,
        }))
    else:
        print(f"type {family}{rank}, h = {h}")
        print(f"dim HH^i over {fs} for i = 0..{args.max_i}:")
        print("  " + " ".join(str(d) for d in dims))
    return 0


def _cmd_hh_oracle(args):
    _check_max_i(args.max_i)
    fs = FieldSpec(args.char)
    q = _read_quiver(args.file)
    a = build_algebra(q, generate_relations(q), fs)
    dims = hh_dims(a, [fs], args.max_i)[0]
    if args.json:
        print(json.dumps({"characteristic": args.char, "dims": list(dims)}))
    else:
        print(f"oracle dim HH^i over {fs} for i = 0..{args.max_i}:")
        print("  " + " ".join(str(d) for d in dims))
    return 0


def _cmd_verify(args):
    family, rank = _parse_seed(args.seed)
    fieldspecs = _parse_chars(args.chars)
    _check_max_i(args.max_i)
    if args.sample is None and family == "E" and rank >= 7:
        sample = 50  # full E7/E8 classes are large; --sample all forces exhaustion
    elif args.sample in (None, "all"):
        sample = None
    else:
        try:
            sample = int(args.sample)
        except ValueError:
            sample = 0  # not a number: rejected with the counts below 1
        if sample < 1:
            raise InputSyntaxError(f"--sample must be at least 1 or 'all', got {args.sample!r}")
    if args.jobs is not None and args.jobs < 1:
        raise InputSyntaxError(f"--jobs must be at least 1, got {args.jobs}")
    report = verify_suite(family, rank, fieldspecs, args.max_i,
                          sample=sample, jobs=args.jobs)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        header = f"{'quiver':40s} {'h':12s} {'det':>4s} {'subtype':12s} {'status':6s}"
        print(header)
        for r in report.records:
            status = "ok" if r.passed else "FAIL"
            print(f"{r.canonical:40s} {r.closed_form:12s} {r.cartan_det:>4d} {r.subtype or '-':12s} {status:6s}")
            for msg in r.messages:
                print(f"    {msg}")
        print(report.summary())
    return 0 if report.passed else 1


# name -> (help, handler, [(flags, add_argument keywords), ...]); every
# command also takes --json
_COMMANDS = {
    "validate": ("check a quiver file", _cmd_validate, [
        (("file",), {}),
    ]),
    "mutate": ("mutate a quiver at a vertex", _cmd_mutate, [
        (("file",), {}),
        (("--at",), dict(type=int, required=True, metavar="K")),
    ]),
    "class": ("enumerate a mutation class", _cmd_class, [
        (("--seed",), dict(required=True, metavar="{A|D|E}N")),
        (("--cap",), dict(type=int, default=DEFAULT_CLASS_CAP)),
    ]),
    "relations": ("defining relations from the quiver", _cmd_relations, [
        (("file",), {}),
    ]),
    "cartan": ("Cartan matrix, determinant, associated polynomial", _cmd_cartan, [
        (("file",), {}),
    ]),
    "hh": ("closed-form Hochschild dimensions", _cmd_hh, [
        (("file",), {}),
        (("--char",), dict(type=int, default=0, metavar="P")),
        (("--max-i",), dict(type=int, default=8, dest="max_i")),
    ]),
    "hh-oracle": ("brute-force Hochschild dimensions", _cmd_hh_oracle, [
        (("file",), {}),
        (("--char",), dict(type=int, required=True, metavar="P")),
        (("--max-i",), dict(type=int, required=True, dest="max_i")),
    ]),
    "verify": ("reconcile closed forms against the oracle over a class", _cmd_verify, [
        (("--seed",), dict(required=True, metavar="{A|D|E}N")),
        (("--chars",), dict(required=True, help="comma-separated characteristics, 0 = rationals")),
        (("--max-i",), dict(type=int, default=8, dest="max_i")),
        (("--sample",), dict(default=None, help="sample size or 'all'")),
        (("--jobs",), dict(type=int, default=None)),
    ]),
}


def build_parser():
    """The full parser, with every subcommand."""
    ap = argparse.ArgumentParser(
        prog="cthh",
        description="Hochschild cohomology of cluster-tilted algebras of finite type",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
    return ap


def _parse_plain(argv):
    """The Namespace the full parser gives a plain command line, read off
    _COMMANDS without building a parser; None for any other argv.  A plain
    line is a known command, its positionals in order, each option of the
    table at most once as --name VALUE or --name=VALUE, and --json, with no
    value that starts with '-'."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, arguments = _COMMANDS[argv[0]]
    positionals, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag in given or flag == "--json" and eq:
            return None
        if token == "--json":
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value reads as dash-led
        if value.startswith("-"):
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0], json=given.pop("--json", False), fn=fn)
    positionals.reverse()
    for (flag, *_), kwargs in arguments:
        if flag.startswith("-"):
            dest = kwargs.get("dest", flag[2:].replace("-", "_"))
            if flag not in given:
                if kwargs.get("required"):
                    return None
                setattr(args, dest, kwargs.get("default"))
                continue
            value = given.pop(flag)
        elif positionals:
            dest, value = flag, positionals.pop()
        else:
            return None
        try:
            setattr(args, dest, kwargs.get("type", str)(value))
        except ValueError:
            return None
    return None if given or positionals else args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # argparse parses what the table does not, so it prints every help
        # text and usage error
        args = _parse_plain(argv) or build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputSyntaxError, OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CthhError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
