"""Command-line behavior: output shapes, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rascent.cli as cli
import rascent.oracle as oracle
import rascent.patterns as patterns
import rascent.verify as verify
from rascent import SUITE_NAMES
from rascent.cli import main
from rascent.words import BlockLeaf, Family, enumerate_family, format_word

ETA_CHECKS = ("one-step-recursion", "max-counts-ascent-tops", "bijection-onto-next-length",
              "equals-relabel-of-padded-word", "inverse-round-trip", "counts-match-fishburn")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_smallest_families(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "rasc", "--n", "3")
    assert code == 0
    assert out == "111\n212\n"
    code, out, _ = run(capsys, "enumerate", "--family", "rasc", "--n", "2")
    assert (code, out) == (0, "11\n")


def test_enumerate_with_avoidance(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "rasc", "--n", "4",
                       "--avoid", "123")
    assert code == 0
    assert out.splitlines() == ["1111", "2121", "2122", "2212"]


def test_enumerate_jsonl_and_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"n": 3, "word": "111"}, {"n": 3, "word": "212"}]
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "csv")
    assert out.splitlines() == ["n,word", "3,111", "3,212"]


@pytest.mark.parametrize("extra", [(), ("--avoid", "123")])
def test_enumerate_streams_from_the_search(monkeypatch, extra):
    # the first line is written while the search is still running
    real, state = cli.search_family, {"done": False, "first_write_after_search": None}

    def search_family(*args, **kwargs):
        real(*args, **kwargs)
        state["done"] = True

    class Stdout:
        def write(self, text):
            if state["first_write_after_search"] is None:
                state["first_write_after_search"] = state["done"]
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(cli, "search_family", search_family)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["enumerate", "--n", "8", *extra]) == 0
    assert state["first_write_after_search"] is False


_PARSER = cli._build_parser()


def enumerate_with(monkeypatch, argv, wrap):
    """The output of enumerate when its search is handed wrap(leaf) in
    place of the command's own leaf."""
    real, out = cli.search_family, io.StringIO()

    def search_family(n, family, leaf, *args, **kwargs):
        real(n, family, wrap(leaf), *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cli, "search_family", search_family)
        assert cli._cmd_enumerate(_PARSER.parse_args(argv), out) == 0
    return out.getvalue()


def per_word(counter):
    """Wraps the leaf in a plain function, as the benchmark's tracer does,
    so the search calls it once per word; counter[0] counts the calls."""
    def wrap(leaf):
        def plain(entries):
            counter[0] += 1
            leaf(entries)
        return plain
    return wrap


def by_blocks(empty):
    """Keeps the block path; empty[0] counts the blocks with no completion."""
    def wrap(leaf):
        assert isinstance(leaf, BlockLeaf)

        def block(entries, tails):
            empty[0] += not tails
            leaf.block(entries, tails)
        return BlockLeaf(leaf.leaf, block)
    return wrap


# no pattern, the 17 patterns of length <= 3 and the table's 2121, 3132
# and 3231 (each a FrontierVeto), and 1234 (a plain accept)
_GRID_PATTERNS = (None, *(format_word(p) for k in (1, 2, 3) for p in enumerate_family(k, Family.CAYLEY)),
                  "2121", "3132", "3231", "1234")


def test_blocks_write_what_the_per_word_search_writes(monkeypatch):
    # each format is checked against the per-word search's words; a JSON
    # line is built from a template, which is what json.dumps writes for
    # a word of digits and commas
    assert len(_GRID_PATTERNS) == 22
    assert json.dumps({"n": 7, "word": "1,10"}) == '{"n": 7, "word": "1,10"}'
    empty = [0]
    for family in Family:
        for pattern in _GRID_PATTERNS:
            avoid = ("--avoid", pattern) if pattern else ()
            for n in range(1, 8):
                argv = ("enumerate", "--family", family.value, "--n", str(n), *avoid)
                words = enumerate_with(monkeypatch, argv, per_word([0])).splitlines()
                want = {"plain": "".join(f"{w}\n" for w in words),
                        "csv": "n,word\n" + "".join(f"{n},{w}\n" for w in words),
                        "jsonl": "".join(f'{{"n": {n}, "word": "{w}"}}\n' for w in words)}
                for fmt, text in want.items():
                    assert enumerate_with(monkeypatch, (*argv, "--format", fmt), by_blocks(empty)) == text, argv
    assert empty[0] > 0  # some node under a pattern had no completion


# SHA-256 of the output of enumerate --family asc --n 11 as the per-word
# search writes it; its words with an entry of 10 or more have commas
_ASC_11_DIGESTS = {
    "plain": "44bf09a1c94273309f1f16b49fcae409cd59d1a63e1e51d7b7096749217ddee8",
    "csv": "fe6c89bdd34bdd3dc4212c5ea9981f75ebe10fb2c0c5d0ae6ab917435f8c469c",
    "jsonl": "7b2056b3804fc3ecb1e22e92ff4050b27b1749aa13ed88a726572995970cb096",
}


@pytest.mark.parametrize("fmt", sorted(_ASC_11_DIGESTS))
def test_blocks_write_entries_of_ten_or_more_with_commas(monkeypatch, capsys, fmt):
    code, out, _ = run(capsys, "enumerate", "--family", "asc", "--n", "11", "--format", fmt)
    assert code == 0 and out.count("\n") == 1_422_074 + (fmt == "csv")
    assert out.endswith("1,2,3,4,5,6,7,8,9,10,11" + ('"}' if fmt == "jsonl" else "") + "\n")
    assert hashlib.sha256(out.encode()).hexdigest() == _ASC_11_DIGESTS[fmt]
    argv = ("enumerate", "--family", "rasc", "--n", "12", "--avoid", "111", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and ",10," in out
    assert out == enumerate_with(monkeypatch, argv, per_word([0]))


@pytest.mark.parametrize("family, shift", [
    (Family.ASCENT, 0), (Family.REVISED, 1), (Family.DESTOP, 1), (Family.MODIFIED, 0), (Family.DESBOT, 0),
])
def test_a_wrapped_leaf_is_called_once_per_word(monkeypatch, capsys, family, shift):
    # a plain function in place of the leaf takes the per-word path and
    # writes the same bytes
    argv = ("enumerate", "--family", family.value, "--n", "8")
    words = [0]
    assert enumerate_with(monkeypatch, argv, per_word(words)) == run(capsys, *argv)[1]
    assert words[0] == ((1,) + oracle.fishburn(8))[8 - shift]


@pytest.mark.parametrize("family, states", [
    (Family.ASCENT, 11), (Family.CAYLEY, 125), (Family.MODIFIED, 101),
    (Family.REVISED, 99), (Family.DESTOP, 71), (Family.DESBOT, 183),
])
def test_blocks_are_listed_once_per_state_the_family_reads(monkeypatch, family, states):
    # one list of tails for each distinct key at n = 8; keyed by the whole
    # state (maximum, seen, fresh, last), ASCENT would list 20 and CAYLEY
    # 724, as they never read seen and last respectively
    assert block_lists(monkeypatch, ("enumerate", "--family", family.value, "--n", "8")) == states


@pytest.mark.parametrize("pattern, states", [("2121", 612), ("3132", 166), ("1111", 581)])
def test_blocks_under_a_length_4_frontier_are_listed_once_per_future(monkeypatch, pattern, states):
    # REVISED at n = 10: a lane keeps only what its value would newly
    # forbid if it came again, so prefixes with the same future share a
    # list; lanes of the values seen since each value came would list
    # 1,180, 274 and 2,394
    argv = ("enumerate", "--family", "rasc", "--n", "10", "--avoid", pattern)
    assert block_lists(monkeypatch, argv) == states


def block_lists(monkeypatch, argv):
    """The number of distinct lists of tails enumerate's search hands out."""
    lists = {}

    def wrap(leaf):
        def block(entries, tails):
            lists[id(tails)] = tails
            leaf.block(entries, tails)
        return BlockLeaf(leaf.leaf, block)
    enumerate_with(monkeypatch, argv, wrap)
    return len(lists)


def test_block_memory_stays_bounded(monkeypatch):
    # the tails of the last three levels are kept per distinct state for
    # one search, and none of the output is
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(_NullSink()), encoding="utf-8"))
    tracemalloc.start()
    try:
        assert main(["enumerate", "--family", "cayley", "--n", "8"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class _NullSink(io.RawIOBase):
    def writable(self):
        return True

    def write(self, b):
        return len(b)


class FlushedStdout:
    """Stands in for stdout and keeps apart what was only written and
    what was flushed."""

    def __init__(self):
        self.pending, self.flushed = [], []

    def write(self, text):
        self.pending.append(text)
        return len(text)

    def flush(self):
        self.flushed += self.pending
        self.pending.clear()

    def text(self):
        return "".join(self.flushed)


def test_verify_streams_each_suite(monkeypatch):
    # the eta records have left before the next suite starts
    real, seen, stdout = verify._SUITES["addrom"], [], FlushedStdout()

    def addrom(n_max):
        seen.append(stdout.text().splitlines())
        return real(n_max)

    monkeypatch.setitem(verify._SUITES, "addrom", addrom)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify", "--suite", "all", "--n-max", "4"]) == 0
    assert seen == [[f"PASS  eta.{name}  [n<=4]" for name in ETA_CHECKS]]


def test_count_streams_each_length(monkeypatch):
    # the n = 1 row has left before n = 2 is counted
    real, seen, stdout = patterns.count_avoiders, {}, FlushedStdout()

    def count_avoiders(n, *args, **kwargs):
        seen[n] = stdout.text()
        return real(n, *args, **kwargs)

    monkeypatch.setattr(patterns, "count_avoiders", count_avoiders)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["count", "--avoid", "123", "--n-max", "3", "--method", "brute,oracle"]) == 0
    assert seen == {1: "", 2: "n=1  brute=1  oracle=1  ok\n",
                    3: "n=1  brute=1  oracle=1  ok\nn=2  brute=1  oracle=1  ok\n"}


@pytest.mark.parametrize("fmt", ["plain", "jsonl"])
def test_verify_all_prints_each_suite_in_turn(capsys, fmt):
    # streaming changes when the bytes leave, not which bytes they are
    suites = [run(capsys, "verify", "--suite", name, "--n-max", "4", "--format", fmt)
              for name in SUITE_NAMES]
    assert run(capsys, "verify", "--suite", "all", "--n-max", "4", "--format", fmt) == (
        max(code for code, _, _ in suites), "".join(out for _, out, _ in suites), "")


def test_oracle_column_expands_its_series_once(capsys, monkeypatch):
    calls = []

    def expand_gf(*args):
        calls.append(args)
        return real(*args)

    real = oracle.expand_gf
    monkeypatch.setattr(oracle, "expand_gf", expand_gf)
    code, out, _ = run(capsys, "count", "--avoid", "123", "--method", "oracle", "--n-max", "25")
    assert code == 0
    assert out.splitlines()[-1] == f"n=25  oracle={real('b123', 25)[-1]}"
    assert calls == [("b123", 25)]


def test_enumerate_cap_violation(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "15")
    assert code == 1
    assert "cap" in err


def test_a_length_past_the_search_depth_limit_is_refused_in_one_line():
    # the search recurses once per entry; --cap-override does not lift its
    # depth limit (900 at the default recursion limit), and a refused run
    # writes nothing, where it used to end in a RecursionError traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def spawn(*argv):
        return subprocess.run([sys.executable, "-m", "rascent.cli", *argv], capture_output=True,
                              env=env, timeout=60)

    for argv in (("enumerate", "--family", "asc", "--n", "1000", "--avoid", "12"),
                 ("count", "--family", "asc", "--avoid", "12", "--n-max", "1000")):
        done = spawn(*argv, "--cap-override", "1000")
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == f"rascent {argv[0]}: length 1000 exceeds the search's depth limit 900\n".encode()
    done = spawn("enumerate", "--family", "asc", "--n", "900", "--avoid", "12", "--cap-override", "1000")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"1" * 900 + b"\n", b"")


def test_enumerate_other_families(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "asc", "--n", "3")
    assert out.splitlines() == ["111", "112", "121", "122", "123"]
    code, out, _ = run(capsys, "enumerate", "--family", "desbot", "--n", "3")
    assert code == 0


def test_count_cross_checked(capsys):
    code, out, err = run(capsys, "count", "--avoid", "132", "--n-max", "8",
                       "--method", "brute,oracle")
    assert code == 0
    lines = out.splitlines()
    assert err == ""
    assert lines[0] == "n=1  brute=1  oracle=1  ok"
    assert lines[-1] == "n=8  brute=275  oracle=275  ok"


def test_count_tree_against_oracle(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "6", "--method", "tree,oracle")
    assert code == 0
    counts = [line.split("tree=")[1].split()[0] for line in out.splitlines()]
    assert counts == ["1", "1", "2", "5", "15", "53"]


def test_count_open_row(capsys):
    code, out, _ = run(capsys, "count", "--avoid", "111", "--n-max", "8",
                       "--method", "brute")
    assert code == 0
    counts = [line.split("brute=")[1] for line in out.splitlines()]
    assert counts == ["1", "1", "1", "2", "4", "10", "29", "97"]
    # no closed form: same rows and exit code, and a note on stderr says why
    assert run(capsys, "count", "--avoid", "111", "--n-max", "8",
               "--method", "brute,oracle") == (0, out, "rascent count: 111 has no closed form; "
                                               "the oracle column is omitted\n")


def test_count_oracle_alone_needs_a_closed_form(capsys):
    # with no other method there is nothing to print: a usage error
    for pattern in ("1111", "1221", "111"):
        assert run(capsys, "count", "--avoid", pattern, "--n-max", "3", "--method", "oracle") == (
            2, "", f"rascent count: {pattern} has no closed form, so --method oracle has nothing to count\n")
    code, out, err = run(capsys, "count", "--avoid", "1221", "--n-max", "3", "--method", "oracle,brute")
    assert (code, out) == (0, "n=1  brute=1\nn=2  brute=1\nn=3  brute=2\n")
    assert err == "rascent count: 1221 has no closed form; the oracle column is omitted\n"


def test_count_jsonl_has_agreement_rows(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "3", "--method", "brute,oracle",
                       "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {"n": 1, "method": "brute", "count": "1"} in rows
    assert {"n": 3, "pass": True} in rows


def test_count_csv_layout(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "3", "--method", "brute",
                       "--format", "csv")
    assert out.splitlines() == ["n,method,count", "1,brute,1", "2,brute,1", "3,brute,2"]


def test_count_dump_labels(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "4", "--method", "tree",
                       "--dump-labels")
    assert code == 0
    assert "level 1: 1,1:1" in out
    assert "level 3: 1,1:1 2,1:1 2,2:2 3,3:1" in out


_COUNT_123 = {
    "plain": "n=1  brute=1  oracle=1  ok\nn=2  brute=1  oracle=1  ok\n"
             "n=3  brute=2  oracle=2  ok\nn=4  brute=4  oracle=4  ok\n",
    "csv": "n,method,count\n1,brute,1\n1,oracle,1\n2,brute,1\n2,oracle,1\n"
           "3,brute,2\n3,oracle,2\n4,brute,4\n4,oracle,4\n",
    "jsonl": "".join(f'{{"n": {n}, "method": "{m}", "count": "{c}"}}\n'
                     for n, c in enumerate((1, 1, 2, 4), start=1) for m in ("brute", "oracle"))
             + "".join(f'{{"n": {n}, "pass": true}}\n' for n in range(1, 5)),
}


@pytest.mark.parametrize("fmt", sorted(_COUNT_123))
def test_count_keeps_its_bytes(capsys, fmt):
    assert run(capsys, "count", "--avoid", "123", "--n-max", "4", "--method", "brute,oracle",
               "--format", fmt) == (0, _COUNT_123[fmt], "")


def test_count_keeps_its_bytes_with_dumped_labels(capsys):
    assert run(capsys, "count", "--n-max", "4", "--method", "tree,oracle", "--dump-labels") == (
        0, "n=1  tree=1  oracle=1  ok\nn=2  tree=1  oracle=1  ok\nn=3  tree=2  oracle=2  ok\n"
           "n=4  tree=5  oracle=5  ok\nlevel 1: 1,1:1\nlevel 2: 1,1:1 2,2:1\n"
           "level 3: 1,1:1 2,1:1 2,2:2 3,3:1\n", "")


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--method", "sorcery")
    assert code == 2
    code, _, err = run(capsys, "count", "--method", "tree", "--avoid", "132")
    assert code == 2
    code, _, err = run(capsys, "count", "--method", "tree", "--family", "cayley")
    assert code == 2
    code, _, err = run(capsys, "count", "--n-max", "3", "--method", "tree",
                       "--dump-labels", "--format", "csv")
    assert code == 2
    assert run(capsys, "count", "--family", "asc", "--method", "oracle") == (
        2, "", "rascent count: closed forms only cover the revised family\n")
    for argv in (("count", "--avoid", "1234567"),
                 ("count", "--avoid", "13"),
                 ("count", "--avoid", "\u00b2"),
                 ("count", "--cap-override", "-1"),
                 ("enumerate", "--n", "0"),
                 ("enumerate", "--n", "3", "--avoid", "\u00b2"),
                 ("enumerate", "--n", "3", "--cap-override", "-1")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"rascent {argv[0]}: ") and "invalid literal" not in err


@pytest.mark.parametrize("argv", [("enumerate", "--n", "3"), ("enumerate", "--n", "3", "--format", "csv"),
                                  ("count", "--n-max", "3")])
def test_empty_avoid_is_a_usage_error(capsys, argv):
    # an empty pattern is refused like " ", never read as "no filter"
    code, out, err = run(capsys, *argv, "--avoid", "")
    assert (code, out) == (2, "")
    assert err == f"rascent {argv[0]}: --avoid: empty word\n"


def test_count_cap_violation(capsys):
    code, _, err = run(capsys, "count", "--n-max", "15", "--method", "brute")
    assert code == 1


@pytest.mark.parametrize("method", ["tree", "oracle"])
def test_count_caps_tree_and_oracle_at_the_gf_order(capsys, method):
    assert run(capsys, "count", "--method", method, "--n-max", "65") == (
        1, "", "rascent count: length 65 exceeds cap 64\n")
    code, out, _ = run(capsys, "count", "--method", method, "--n-max", "64")
    assert code == 0 and out.startswith("n=1  ") and f"n=64  {method}=" in out


def test_cap_override_raises_the_tree_and_oracle_cap(capsys):
    code, out, _ = run(capsys, "count", "--method", "tree,oracle", "--n-max", "66", "--cap-override", "66")
    assert code == 0
    assert out.splitlines()[-1].startswith("n=66  tree=") and out.endswith("  ok\n")


@pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
def test_verify_refuses_sizes_beyond_the_length_cap(monkeypatch, capsys, suite):
    # the suites enumerate up to n_max + 1, so 14 is refused before any suite runs
    def never(name, n_max):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(verify, "run_suite", never)
    assert run(capsys, "verify", "--suite", suite, "--n-max", "14") == (
        1, "", "rascent verify: length 15 exceeds cap 14\n")


@pytest.mark.parametrize("n_max", ["14", "100"])
def test_verify_refusal_is_immediate(n_max):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "rascent.cli", "verify", "--suite", "all", "--n-max", n_max],
                          capture_output=True, env=env, timeout=30)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == f"rascent verify: length {int(n_max) + 1} exceeds cap 14\n".encode()


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "series", "--n-max", "5")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "phi", "--n-max", "5",
                       "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(row["pass"] is True for row in rows)
    assert {row["suite"] for row in rows} == {"phi"}


def test_gf_outputs(capsys):
    code, out, _ = run(capsys, "gf", "--name", "fishburn", "--order", "7")
    assert (code, out) == (0, "1 2 5 15 53 217 1014\n")
    code, out, _ = run(capsys, "gf", "--name", "b132", "--order", "4")
    assert (code, out) == (0, "1 1 2 5\n")
    code, out, _ = run(capsys, "gf", "--name", "b123", "--order", "3")
    assert (code, out) == (0, "1 1 2\n")


def test_gf_formats_and_guard(capsys):
    code, out, _ = run(capsys, "gf", "--name", "b213", "--order", "4",
                       "--format", "csv")
    assert out.splitlines() == ["n,count", "1,1", "2,1", "3,2", "4,5"]
    code, out, _ = run(capsys, "gf", "--name", "b213", "--order", "3",
                       "--format", "jsonl")
    assert [json.loads(l) for l in out.splitlines()] == [
        {"n": 1, "count": "1"}, {"n": 2, "count": "1"}, {"n": 3, "count": "2"}]
    code, _, err = run(capsys, "gf", "--name", "b213", "--order", "65")
    assert code == 2


def test_wilf_report(capsys):
    code, out, _ = run(capsys, "wilf", "--pattern-length", "2", "--n-max", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "conjectural up to n_max"
    assert doc["pattern_length"] == 2
    assert [cls["patterns"] for cls in doc["classes"]] == [["11"], ["12", "21"]]
    assert doc["classes"][1]["counts"] == ["1"] * 6


def test_wilf_guards(capsys):
    code, _, _ = run(capsys, "wilf", "--pattern-length", "5", "--n-max", "4")
    assert code == 2
    code, _, _ = run(capsys, "wilf", "--pattern-length", "2", "--n-max", "15")
    assert code == 1


def test_closed_pipe_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen([sys.executable, "-m", "rascent.cli", "enumerate", "--n", "10"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() and proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["enumerate", "--family", "rasc", "--n", "6"],
                                  ["gf", "--name", "b213", "--order", "6"]], ids=" ".join)
def test_failed_write_exits_quietly(argv):
    # every write to /dev/full fails with ENOSPC
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "rascent.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"rascent {argv[0]}: ".encode())


def test_interrupt_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen([sys.executable, "-m", "rascent.cli", "enumerate", "--family", "cayley", "--n", "9"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err
        assert err == b"rascent enumerate: interrupted\n"


def test_interrupted_verify_keeps_the_suites_it_wrote():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    # unbuffered, so that readline takes one line and communicate the rest
    with subprocess.Popen([sys.executable, "-m", "rascent.cli", "verify", "--suite", "all", "--n-max", "9"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0) as proc:
        first = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        rest, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b"rascent verify: interrupted\n"
        lines = (first + rest).decode().splitlines()
        assert lines[:6] == [f"PASS  eta.{name}  [n<=9]" for name in ETA_CHECKS]


def test_closed_pipe_during_count_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen([sys.executable, "-m", "rascent.cli", "count", "--avoid", "112", "--n-max", "12",
                           "--method", "brute"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"n=1  brute=1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_argparse_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--family", "bogus", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_byte_determinism(capsys):
    a = run(capsys, "wilf", "--pattern-length", "3", "--n-max", "6")
    b = run(capsys, "wilf", "--pattern-length", "3", "--n-max", "6")
    assert a == b
    a = run(capsys, "verify", "--suite", "forms", "--n-max", "5")
    b = run(capsys, "verify", "--suite", "forms", "--n-max", "5")
    assert a == b


# A grammar for argv: every subcommand with its flags, sizes kept small
# (--n and --n-max at most 6, --order at most 16; --n-max is always
# given, as its default is 9).  One value in four, and now and then a
# whole token, is junk: a negative number, a non-ASCII digit, a stray
# flag or plain text.
_JUNK = st.sampled_from(["", " ", "x", "-", "--", "--bogus", "-h", "1.5", "1e2", "NaN", "☃",
                         "-1", "-7", "-0", "²", "٣", "５", "۱"])
_SIZE = st.integers(-2, 6).map(str)
_CAP = st.integers(-2, 16).map(str)
_FORMATS = st.sampled_from(["plain", "jsonl", "csv"])
_FAMILIES = st.sampled_from(["asc", "cayley", "mod", "rasc", "destop", "desbot"])
_PATTERNS = st.one_of(st.sampled_from(["1", "11", "123", "111", "212", "1234", "212121", "1234567", "13"]),
                      st.text(alphabet="0123,", max_size=7))
# subcommand: (flags it needs, other flags); None marks a flag without a value
_GRAMMAR = {
    "enumerate": ({"--n": _SIZE},
                  {"--family": _FAMILIES, "--avoid": _PATTERNS, "--format": _FORMATS, "--cap-override": _CAP}),
    "count": ({"--n-max": _SIZE},
              {"--family": _FAMILIES, "--avoid": _PATTERNS,
               "--method": st.sampled_from(["brute", "tree", "oracle", "brute,tree,oracle", "tree,oracle", ",", "dp"]),
               "--no-check": None, "--dump-labels": None, "--format": _FORMATS, "--cap-override": _CAP}),
    "verify": ({"--suite": st.sampled_from(["eta", "addrom", "gentree", "table1", "phi", "series", "forms",
                                            "wilf", "all"]), "--n-max": _SIZE},
               {"--format": _FORMATS}),
    "gf": ({"--name": st.sampled_from(["fishburn", "b123", "b132", "b213", "b999"])},
           {"--order": st.integers(-2, 16).map(str), "--format": _FORMATS}),
    "wilf": ({"--pattern-length": st.integers(-1, 5).map(str), "--n-max": _SIZE}, {"--cap-override": _CAP}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR) + ["bogus"]))
    needed, optional = _GRAMMAR.get(command, ({}, {}))
    flags = list(needed) + draw(st.lists(st.sampled_from(sorted(optional)), max_size=4)) if optional else []
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        values = needed.get(flag, optional.get(flag))
        if values is not None:
            argv.append(draw(_JUNK if draw(st.integers(0, 3)) == 0 else values))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_any_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
