"""CLI surface: document parsing, command output, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import pytest

import cthh.algebra
import cthh.cli
import cthh.verify
from conftest import mutation_class
from cthh.cli import _COMMANDS, _parse_plain, build_parser, main, parse_quiver, serialize_quiver
from cthh.errors import InputSyntaxError
from cthh.fields import GF2, QQ
from cthh.quiver import Quiver
from cthh.series import HSeries, hh_dim


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


TRIANGLE = '{"vertices":3,"arrows":[[1,2],[2,3],[3,1]]}'
BOOLEAN_VERTICES = '{"vertices":true,"arrows":[]}'


def test_parse_quiver_triangle():
    q = parse_quiver(TRIANGLE)
    assert q.vertex_count == 3
    assert set(q.arrows) == {(1, 2), (2, 3), (3, 1)}


def test_parse_quiver_two_cycle_rejected():
    from cthh.errors import TwoCycleError
    with pytest.raises(TwoCycleError):
        parse_quiver('{"vertices":2,"arrows":[[1,2],[2,1]]}')


def test_parse_quiver_disconnected_rejected():
    from cthh.errors import DisconnectedError
    with pytest.raises(DisconnectedError):
        parse_quiver('{"vertices":3,"arrows":[[1,2]]}')


def test_parse_quiver_syntax_error_position():
    with pytest.raises(InputSyntaxError) as exc:
        parse_quiver('{"vertices":3,"arrows":[[1,2],')
    assert "line" in str(exc.value)


def test_parse_quiver_schema_errors():
    with pytest.raises(InputSyntaxError):
        parse_quiver('{"vertices":3}')
    with pytest.raises(InputSyntaxError):
        parse_quiver('{"vertices":0,"arrows":[]}')
    with pytest.raises(InputSyntaxError):
        parse_quiver('{"vertices":2,"arrows":[[1,"x"]]}')
    with pytest.raises(InputSyntaxError):
        parse_quiver(BOOLEAN_VERTICES)
    with pytest.raises(InputSyntaxError):
        parse_quiver('{"vertices":2,"arrows":[[true,2]]}')


def test_roundtrip_parse_serialize():
    for text in (
        TRIANGLE,
        '{"vertices":1,"arrows":[]}',
        '{"vertices":4,"arrows":[[4,1],[1,2],[2,3]]}',
    ):
        q = parse_quiver(text)
        again = parse_quiver(serialize_quiver(q))
        assert again == Quiver(q.vertex_count, tuple(sorted(q.arrows)))


def test_cli_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "ok: 3 vertices, 3 arrows\n"
    assert main(["validate", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "vertices": 3, "arrows": 3}


def test_cli_validate_bad_input_exit_2(tmp_path, capsys):
    path = write(tmp_path, "q.json", '{"vertices":2,"arrows":[[1,2],[2,1]]}')
    assert main(["validate", path]) == 2
    path = write(tmp_path, "b.json", BOOLEAN_VERTICES)
    assert main(["validate", path]) == 2
    path = write(tmp_path, "r.json", '{"vertices": 3, "arrows": [[1, 5]]}')
    assert main(["validate", path]) == 2
    assert "arrow (1,5) out of vertex range 1..3" in capsys.readouterr().err


def test_cli_validate_many_isolated_vertices_is_fast(tmp_path, capsys):
    # one search from vertex 1, not a scan of the unseen vertices per component
    path = write(tmp_path, "q.json", '{"vertices": 50000, "arrows": []}')
    start = time.perf_counter()
    assert main(["validate", path]) == 2
    assert time.perf_counter() - start < 2
    assert "DisconnectedError" in capsys.readouterr().err


def test_cli_validate_huge_vertex_count_is_fast(tmp_path, capsys):
    # the connectivity search starts from the arrows, not from one set per
    # declared vertex
    path = write(tmp_path, "q.json", '{"vertices": 1000000000000, "arrows": [[1, 2]]}')
    start = time.perf_counter()
    assert main(["validate", path]) == 2
    assert time.perf_counter() - start < 1
    assert "(2 of 1000000000000 vertices reachable)" in capsys.readouterr().err


def test_cli_missing_file_exit_2(capsys):
    assert main(["validate", "/nonexistent/q.json"]) == 2


def test_cli_mutate(tmp_path, capsys):
    path = write(tmp_path, "q.json", '{"vertices":3,"arrows":[[1,2],[2,3]]}')
    assert main(["mutate", path, "--at", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"vertices": 3, "arrows": [[1, 3], [2, 1], [3, 2]]}


def test_cli_mutate_multiple_arrow(tmp_path, capsys):
    path = write(tmp_path, "q.json", '{"vertices":3,"arrows":[[1,2],[1,3],[2,3]]}')
    assert main(["mutate", path, "--at", "2"]) == 2
    assert "MultipleArrowError" in capsys.readouterr().err


def test_cli_mutate_bad_vertex(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["mutate", path, "--at", "7"]) == 2


def test_cli_class_json(capsys):
    assert main(["class", "--seed", "A3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4
    assert len(doc["quivers"]) == 4


def test_cli_relations(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["relations", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["relations"]) == 3
    assert all(r["kind"] == "zero" for r in doc["relations"])


def test_cli_relations_on_a_long_oriented_cycle(tmp_path, capsys):
    # the chordless-cycle search keeps its induced paths on a stack, not on
    # the call stack, so a cycle longer than the recursion limit is fine
    n = 1200
    arrows = [[i, i % n + 1] for i in range(1, n + 1)]
    path = write(tmp_path, "q.json", json.dumps({"vertices": n, "arrows": arrows}))
    assert main(["relations", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["relations"]) == n
    assert all(r["kind"] == "zero" for r in doc["relations"])


def test_cli_cartan(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["cartan", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["det"] == 2
    assert doc["assoc_poly_ascending"] == [-2, 0, 0, 2]


def test_cli_hh_typed_and_universal(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["hh", path, "--char", "2", "--max-i", "8", "--json"]) == 0
    typed = json.loads(capsys.readouterr().out)
    assert typed["h"] == "f_3"
    assert typed["dims"] == [1, 1, 0, 1, 1, 0, 1, 1, 0]


# quivers of types D5 and E6 whose closed forms come from the type-D patterns
# and the type-E table: (document, characteristic, JSON output of `cthh hh`)
HH_TYPED_CASES = [
    pytest.param('{"vertices":5,"arrows":[[1,2],[2,4],[3,4],[4,5],[5,1],[5,3]]}', "3",
                 {"family": "D5", "h": "f_4", "characteristic": 3,
                  "dims": [1, 1, 0, 1, 1, 0, 1, 1, 1]}, id="D5"),
    pytest.param('{"vertices":6,"arrows":[[1,2],[2,4],[3,6],[4,6],[5,3],[5,4],[6,1],[6,5]]}',
                 "0", {"family": "E6", "h": "f_5", "characteristic": 0,
                       "dims": [1, 1, 0, 0, 0, 0, 1, 1, 1]}, id="E6"),
]


@pytest.mark.parametrize("doc, char, expected", HH_TYPED_CASES)
def test_cli_hh_typed_matches_universal_on_types_d_and_e(tmp_path, capsys, doc, char, expected):
    path = write(tmp_path, "q.json", doc)
    assert main(["hh", path, "--char", char, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("argv, doc, reads", [
    (["hh"], HH_TYPED_CASES[0].values[0], 0),  # type D reads det C alone
    (["hh"], HH_TYPED_CASES[1].values[0], 1),  # type E looks its polynomial up
    (["cartan", "--json"], TRIANGLE, 1),
], ids=["hh-D5", "hh-E6", "cartan"])
def test_cli_computes_the_associated_polynomial_only_where_read(monkeypatch, tmp_path, capsys,
                                                               argv, doc, reads):
    calls = []
    real = cthh.algebra.pencil_det
    monkeypatch.setattr(cthh.algebra, "pencil_det", lambda a, b: calls.append(a) or real(a, b))
    assert main([argv[0], write(tmp_path, "q.json", doc), *argv[1:]]) == 0
    assert len(calls) == reads


# a D8 quiver (h = f_8) whose resolution over QQ repeats with period (1, 16)
D8_PERIOD_16 = [[1, 8], [8, 4], [4, 5], [5, 3], [3, 6], [6, 2], [2, 7], [7, 1],
                [5, 8], [6, 5], [7, 6], [8, 7]]


def test_cli_hh_oracle_a_thousand_degrees_costs_one_period(tmp_path, capsys):
    # shared levels past the period are not charged to the resolution budget
    path = write(tmp_path, "q.json", json.dumps({"vertices": 8, "arrows": D8_PERIOD_16}))
    assert main(["hh-oracle", path, "--char", "0", "--max-i", "1000", "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims == [hh_dim(HSeries.of(8), i, QQ) for i in range(1001)]
    assert dims[1:985] == dims[17:]


def test_cli_hh_outside_finite_type_exit_2(tmp_path, capsys):
    # affine A~3: a chordless 4-cycle that is not oriented
    path = write(tmp_path, "q.json", '{"vertices":4,"arrows":[[1,2],[2,3],[3,4],[1,4]]}')
    assert main(["hh", path]) == 2
    assert "NotDynkinError" in capsys.readouterr().err


def test_cli_hh_oracle(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["hh-oracle", path, "--char", "3", "--max-i", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [1, 1, 0, 0, 0, 0, 1, 1]


# the default text output of each command: (arguments, standard output)
TEXT_OUTPUT_CASES = [
    pytest.param(["class", "--seed", "A3"],
                 "A3: 4 isomorphism classes\n"
                 '  {"vertices": 3, "arrows": [[1, 3], [2, 1], [3, 2]]}\n'
                 '  {"vertices": 3, "arrows": [[2, 1], [3, 1]]}\n'
                 '  {"vertices": 3, "arrows": [[2, 3], [3, 1]]}\n'
                 '  {"vertices": 3, "arrows": [[3, 1], [3, 2]]}\n', id="class"),
    pytest.param(["relations", "{q}"],
                 "  arrow 1->2  [zero]  2->3->1\n"
                 "  arrow 2->3  [zero]  3->1->2\n"
                 "  arrow 3->1  [zero]  1->2->3\n", id="relations"),
    pytest.param(["relations", "{a3}"], "no relations (hereditary)\n", id="relations-hereditary"),
    pytest.param(["cartan", "{q}"],
                 "Cartan matrix:\n  1 1 0\n  0 1 1\n  1 0 1\ndet C = 2\n"
                 "associated polynomial: 2x^3 - 2\n", id="cartan"),
    pytest.param(["hh", "{q}", "--max-i", "5"],
                 "type A3, h = f_3\ndim HH^i over QQ for i = 0..5:\n  1 1 0 0 0 0\n", id="hh"),
    pytest.param(["hh-oracle", "{q}", "--char", "2", "--max-i", "5"],
                 "oracle dim HH^i over GF(2) for i = 0..5:\n  1 1 0 1 1 0\n", id="hh-oracle"),
]


@pytest.mark.parametrize("argv, expected", TEXT_OUTPUT_CASES)
def test_cli_text_output(tmp_path, capsys, argv, expected):
    paths = {"q": write(tmp_path, "q.json", TRIANGLE),
             "a3": write(tmp_path, "a3.json", '{"vertices":3,"arrows":[[1,2],[2,3]]}')}
    assert main([a.format(**paths) for a in argv]) == 0
    assert capsys.readouterr().out == expected


def test_cli_verify_pass_and_exit_code(capsys):
    assert main(["verify", "--seed", "A3", "--chars", "2,0", "--max-i", "6", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_verify_json_deterministic(capsys):
    argv = ["verify", "--seed", "A3", "--chars", "2", "--max-i", "4", "--jobs", "1", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["passed"] is True
    assert len(doc["records"]) == 4


# sha256 of `cthh verify ARGS --jobs 1 --json`: A5, D5 and E6 over GF(2) and QQ,
# one seed per branch of hh_closed_form; D7 is the only pinned report over
# GF(3) and GF(5) and with --max-i 8.  A change here changes the reports.
VERIFY_REPORT_SHA256 = [
    pytest.param("--seed A5 --chars 2,0 --max-i 4",
                 "aa9cf322d8ebfd796961221b1ff87e70e41f9a02100a8ad3a367f8e999eeebeb", id="A5"),
    pytest.param("--seed D5 --chars 2,0 --max-i 4",
                 "60578332b0fe1cefbe74c853355d861dc60a01c1a20089c2945c0e29b3540e85", id="D5"),
    pytest.param("--seed E6 --chars 2,0 --max-i 4",
                 "2773145ad6e8a9b2bd9700ad40ad4c5d1559a3a91f044c80f67e309b70a02bdf", id="E6"),
    pytest.param("--seed D7 --chars 2,3,5,0 --max-i 8 --sample 40",
                 "360f69138099dd10cecc244625e48f8b18460cf6558768d0e03317a97761a347", id="D7"),
]


@pytest.mark.parametrize("args, sha", VERIFY_REPORT_SHA256)
def test_cli_verify_json_report_bytes(capsys, args, sha):
    assert main(["verify", *args.split(), "--jobs", "1", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


CLASS_SHA256 = [line.split() for line in (Path(__file__).parent / "class_sha256.txt").read_text().splitlines()
                if line and not line.startswith("#")]


@pytest.mark.parametrize("seed, sha", CLASS_SHA256, ids=[seed for seed, _ in CLASS_SHA256])
def test_cli_class_json_bytes(capsys, seed, sha):
    assert main(["class", "--seed", seed, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


CARTAN_SHA256 = [line.split() for line in (Path(__file__).parent / "cartan_sha256.txt").read_text().splitlines()
                 if line and not line.startswith("#")]


@pytest.mark.parametrize("seed, sha", CARTAN_SHA256, ids=[seed for seed, _ in CARTAN_SHA256])
def test_cli_cartan_json_bytes(tmp_path, capsys, seed, sha):
    path = tmp_path / "q.json"
    digest = hashlib.sha256()
    for q in mutation_class(seed[0], int(seed[1:])):
        path.write_text(serialize_quiver(q), encoding="utf-8")
        assert main(["cartan", str(path), "--json"]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == sha


@pytest.mark.parametrize("argv", [
    ["hh-oracle", "{q}", "--char", "2", "--max-i", "-1"],
    ["hh", "{q}", "--max-i", "-1"],
    ["verify", "--seed", "A3", "--chars", "2", "--max-i", "-1"],
    ["verify", "--seed", "A3", "--chars", "2", "--sample", "-2"],
    ["verify", "--seed", "A3", "--chars", "2", "--sample", "0"],
    ["verify", "--seed", "A3", "--chars", ","],
    ["verify", "--seed", "A3", "--chars", "2", "--jobs", "0"],
    ["verify", "--seed", "A3", "--chars", "2", "--jobs", "-3"],
    ["class", "--seed", "A3", "--cap", "0"],
    ["class", "--seed", "A3", "--cap", "-1"],
    ["hh", "{q}", "--char", "4"],
    ["hh-oracle", "{q}", "--char", "4", "--max-i", "2"],
    ["verify", "--seed", "D3", "--chars", "2"],
    ["verify", "--seed", "A1", "--chars", "2"],
    ["class", "--seed", "E9"],
    ["class", "--seed", "E5"],
    ["mutate", "{q}", "--at", "9"],
    ["mutate", "{q}", "--at", "0"],
    ["verify", "--seed", "A3", "--chars", "2,x"],
])
def test_cli_out_of_range_input_exit_2(tmp_path, capsys, argv):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main([a.format(q=path) for a in argv]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    None,
    b"[" * 100_000,
    b'{"vertices": 3, "arrows": [[1, 2], [2, 3]]}\xff',
    b'{"vertices": 3, "arrows": [[1, 2], [2, 9]]}',
], ids=["directory", "deep-nesting", "non-utf-8", "arrow-out-of-range"])
def test_cli_unreadable_quiver_file_exit_2(tmp_path, capsys, content):
    path = tmp_path / "q.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["hh", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line, no traceback
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["hh", "hh-oracle"])
def test_cli_char_is_checked_before_the_file_is_read(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.json")
    assert main([command, missing, "--char", "4", "--max-i", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: characteristic must be 0 or prime, got 4\n"


@pytest.mark.parametrize("argv,sample", [
    (["--seed", "E7"], 50),
    (["--seed", "E8"], 50),
    (["--seed", "E7", "--sample", "all"], None),
    (["--seed", "D7"], None),
])
def test_cli_verify_default_sample(monkeypatch, capsys, argv, sample):
    # E7 and E8 are sampled to 50 quivers unless --sample is given; every other
    # class is swept whole; the sweep itself is not run here
    seen = []

    def sweep(family, rank, fieldspecs, max_i, sample=None, jobs=None):
        seen.append(sample)
        return cthh.verify.VerifyReport(family, rank, tuple(map(str, fieldspecs)), max_i, sample)

    monkeypatch.setattr(cthh.cli, "verify_suite", sweep)
    assert main(["verify", *argv, "--chars", "2"]) == 0
    assert seen == [sample]
    assert capsys.readouterr().out.endswith("0/0 quivers ok, fields GF(2), i <= 8\n")


def test_cli_verify_non_numeric_sample_exit_2(capsys):
    assert main(["verify", "--seed", "E6", "--chars", "2", "--sample", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --sample must be at least 1 or 'all', got 'x'\n"


def test_cli_verify_repeated_characteristic_exit_2(capsys):
    assert main(["verify", "--seed", "A3", "--chars", "2,2", "--max-i", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--chars names characteristic 2 twice: '2,2'" in captured.err
    assert main(["verify", "--seed", "A3", "--chars", "0,3,00", "--max-i", "2"]) == 2
    assert "--chars names characteristic 0 twice" in capsys.readouterr().err


def test_cli_usage_error_exit_2(capsys):
    assert main(["verify", "--seed", "Z9", "--chars", "2"]) == 2
    assert main(["verify", "--seed", "A3", "--chars", "4"]) == 2


def test_cli_no_command_exit_2(capsys):
    assert main([]) == 2


# a usage error per subcommand: a missing or malformed argument, then an
# unknown option, which the top-level parser reports with its own usage line
COMMAND_USAGE_ERRORS = {
    "validate": [[], ["q.json", "--bogus"]],
    "mutate": [["q.json"], ["q.json", "--at", "1", "--bogus"]],
    "class": [[], ["--seed", "A3", "--bogus"]],
    "relations": [[], ["q.json", "--bogus"]],
    "cartan": [[], ["q.json", "--bogus"]],
    "hh": [["--char", "x"], ["q.json", "--bogus"]],
    "hh-oracle": [["q.json", "--char", "2"], ["q.json", "--char", "2", "--max-i", "4", "--bogus"]],
    "verify": [["--chars", "2"], ["--seed", "A3", "--chars", "2", "--bogus"]],
}


def full_parser_exit(argv):
    """What main would return if it parsed argv with the full parser."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    raise AssertionError(f"{argv} parsed without exiting")


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["--help"],
    *([cmd, "--help"] for cmd in COMMAND_USAGE_ERRORS),
    *([cmd, *rest] for cmd, cases in COMMAND_USAGE_ERRORS.items() for rest in cases),
], ids=lambda argv: " ".join(argv) or "no-command")
def test_cli_one_subcommand_parser_prints_like_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    rc = main(argv)
    got = capsys.readouterr()
    assert rc == full_parser_exit(argv)
    want = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert got.out or got.err


# values an option or a positional may be given, good and bad
INT_VALUES = ["2", "0", "16", "+3", " 4", "x", "2.5", "", "-1"]
STR_VALUES = ["A3", "2,3", "all", "", "hh", "-x", "a=b"]
JUNK = ["--json", "--json=1", "-h", "--help", "--", "-1", "-", "--bogus", "--at", "q.json", "extra", ""]


def random_argv(rng, command):
    """A command line for command: a plain one, perhaps mutated, or a random
    string of tokens of the command's kinds."""
    arguments = _COMMANDS[command][2]
    pool = list(JUNK)
    groups = []
    for (flag, *_), kwargs in arguments:
        values = INT_VALUES if kwargs.get("type") is int else STR_VALUES
        if not flag.startswith("-"):
            pool += ["q.json", "extra"]
            continue
        pool += [flag, *(flag[:k] for k in range(3, len(flag))), *values]
        pool += [f"{flag}={v}" for v in values]
        if kwargs.get("required") or rng.random() < 0.5:
            value = rng.choice(values[:4])
            groups.append([f"{flag}={value}"] if rng.random() < 0.3 else [flag, value])
    if rng.random() < 0.5:
        return [command, *(rng.choice(pool) for _ in range(rng.randrange(7)))]
    if rng.random() < 0.3:
        groups.append(["--json"])
    rng.shuffle(groups)
    if any(not flag.startswith("-") for (flag, *_), _ in arguments):
        groups.insert(rng.randrange(len(groups) + 1), ["q.json"])
    argv = [command, *(token for group in groups for token in group)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        mutation = rng.randrange(3)
        if mutation == 0:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(pool))
        elif mutation == 1 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif groups:
            argv += rng.choice(groups)
    return argv


def test_cli_plain_command_lines_parse_like_the_full_parser():
    rng = random.Random(30)
    full = build_parser()
    seen = {command: {True: 0, False: 0} for command in _COMMANDS}
    for _ in range(4000):
        command = rng.choice(list(_COMMANDS))
        argv = random_argv(rng, command)
        plain = _parse_plain(argv)
        seen[command][plain is not None] += 1
        if plain is None:
            continue
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                want = full.parse_args(argv)
            except SystemExit:
                raise AssertionError(f"{argv} read off the table, but the full parser rejects it")
        assert vars(plain) == vars(want), argv
    for command, counts in seen.items():
        assert counts[True] and counts[False], (command, counts)


@pytest.mark.parametrize("argv", [
    ["hh", "{q}", "--char", "2", "--json"],
    ["hh-oracle", "{q}", "--char=3", "--max-i", "6"],
    ["verify", "--seed", "A3", "--chars", "2", "--max-i", "2", "--jobs", "1"],
])
def test_cli_plain_command_lines_build_no_parser(monkeypatch, tmp_path, capsys, argv):
    argv = [a.format(q=write(tmp_path, "q.json", TRIANGLE)) for a in argv]
    assert main(argv) == 0
    want = capsys.readouterr().out

    def no_parser(*args, **kwargs):
        raise AssertionError("a plain command line built an argparse parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_cli_abbreviated_options_still_parse(tmp_path, capsys):
    path = write(tmp_path, "q.json", TRIANGLE)
    assert main(["hh", path, "--char", "2", "--max", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 1, 0, 1, 1]


# a mutant of A40 with t = 10 oriented triangles, so h = 10 f_3
A40_MUTANT_ARROWS = [
    (1, 5), (1, 6), (2, 3), (2, 4), (4, 5), (6, 7), (7, 1), (8, 7), (9, 6), (9, 10),
    (10, 24), (11, 10), (11, 20), (12, 14), (12, 15), (13, 12), (14, 13), (15, 17),
    (15, 20), (16, 17), (17, 12), (17, 18), (18, 16), (19, 18), (20, 22), (21, 22),
    (22, 15), (22, 23), (23, 21), (24, 11), (24, 25), (25, 26), (26, 31), (27, 28),
    (28, 26), (28, 29), (29, 27), (30, 29), (31, 28), (31, 35), (32, 33), (32, 34),
    (34, 31), (35, 34), (35, 36), (36, 37), (37, 38), (38, 39), (39, 40),
]


def test_cli_hh_and_oracle_on_an_a40_mutant(tmp_path, capsys):
    doc = {"vertices": 40, "arrows": [list(a) for a in A40_MUTANT_ARROWS]}
    path = write(tmp_path, "a40.json", json.dumps(doc))
    h = HSeries.of(*[3] * 10)
    assert main(["hh", path, "--json"]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert (closed["family"], closed["h"]) == ("A40", "10 f_3")
    assert closed["dims"] == [hh_dim(h, i, QQ) for i in range(9)]
    assert main(["hh-oracle", path, "--char", "2", "--max-i", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [hh_dim(h, i, GF2) for i in range(5)]
