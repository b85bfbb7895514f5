"""The import graph: each command loads only the modules it runs.

A CLI spawn pays for every module it imports, and with
PYTHONDONTWRITEBYTECODE=1 and no __pycache__ (a fresh checkout) it also
compiles each one.  These tests pin which modules a fresh interpreter
loads, that the lazy package facade resolves every public name, and
that code wrapping functions from outside (perfbench/layers.py traces
runs that way) leaves nothing behind once it restores the originals.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rascent
from rascent.cli import main
from rascent.gentree import LabelCounts, Rule, label_counts
from rascent.maps import ReviseTrace, revise
from rascent.oracle import GF_NAMES, Seq132State, system_132
from rascent.patterns import WilfClass, WilfReport, wilf_classes
from rascent.verify import _SUITES, SUITE_NAMES, Check
from rascent.words import StatSets, stat_sets

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str) -> list[str]:
    """Run code in a fresh interpreter; return the words of the last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def gained(statement: str) -> set[str]:
    """The modules a fresh interpreter loads to run one statement."""
    return set(fresh(f"""
import sys
before = set(sys.modules)
{statement}
print(*sorted(set(sys.modules) - before))
"""))


def gained_by_command(*argv: str) -> set[str]:
    return gained(f"""
import contextlib, io
from rascent.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({list(argv)!r}) == 0
""")


def test_importing_the_cli_loads_only_the_base():
    new = gained("import rascent.cli")
    assert {m for m in new if m.startswith("rascent")} == {"rascent", "rascent.cli", "rascent.words"}
    assert not new & {"dataclasses", "json", "fractions"}


def test_importing_the_package_loads_no_module_of_it():
    assert {m for m in gained("import rascent") if m.startswith("rascent")} == {"rascent"}


def test_count_loads_no_tree_series_or_suite():
    new = gained_by_command("count", "--avoid", "12", "--n-max", "3", "--method", "brute,oracle")
    assert {"rascent.patterns", "rascent.oracle"} <= new
    assert not new & {"rascent.verify", "rascent.maps", "rascent.gentree", "rascent.series"}


def test_gf_loads_no_suite_or_map():
    new = gained_by_command("gf", "--name", "b213", "--order", "4")
    assert "rascent.series" in new
    assert not new & {"rascent.verify", "rascent.maps"}


def test_wrappers_installed_early_are_all_removed():
    # Like a tracer: wrap each public function in every loaded module that
    # holds it, load the remaining modules with the wrappers in place, then
    # restore.  A module that bound a wrapper at import would keep it.
    leftovers = fresh("""
import sys
import rascent.cli, rascent.words, rascent.patterns, rascent.oracle

wrappers, undo = set(), []

def wrap(home):
    module = sys.modules["rascent." + home]
    for name, fn in list(vars(module).items()):
        if name.startswith("_") or isinstance(fn, type) or not callable(fn):
            continue
        if getattr(fn, "__module__", None) != module.__name__:
            continue
        wrapper = lambda *args, _fn=fn, **kwargs: _fn(*args, **kwargs)
        wrappers.add(id(wrapper))
        for holder in [m for k, m in sys.modules.items() if k.split(".")[0] == "rascent"]:
            if vars(holder).get(name) is fn:
                undo.append((holder, name, fn))
                setattr(holder, name, wrapper)

for home in ("words", "patterns", "oracle"):
    wrap(home)
import rascent.maps
wrap("maps")
import rascent.gentree, rascent.series, rascent.verify
for holder, name, fn in reversed(undo):
    setattr(holder, name, fn)
print("-", *sorted(f"{k}.{name}" for k, m in sys.modules.items() if k.split(".")[0] == "rascent"
                   for name, value in vars(m).items() if id(value) in wrappers))
""")
    assert leftovers == ["-"]


def test_every_public_name_resolves_to_its_home_module():
    names: dict = {}
    exec("from rascent import *", names)
    assert set(rascent.__all__) <= set(names)
    for name in rascent.__all__:
        home = sys.modules[f"rascent.{rascent._HOME[name]}"]
        assert getattr(rascent, name) is getattr(home, name), name
        assert names[name] is getattr(home, name), name
    # resolved on every access, never stored in the package
    assert "format_word" not in vars(rascent)


def test_facade_dir_and_unknown_names():
    assert set(rascent.__all__) <= set(dir(rascent))
    assert "__version__" in dir(rascent)
    with pytest.raises(AttributeError, match="no_such_name"):
        rascent.no_such_name
    assert not hasattr(rascent, "_private")


def _choices(capsys, argv: list[str], option: str) -> tuple[str, ...]:
    with pytest.raises(SystemExit):
        main(argv)
    usage = capsys.readouterr().out
    start = usage.index(option + " {") + len(option) + 2
    return tuple(usage[start: usage.index("}", start)].split(","))


def test_parser_choices_have_one_source(capsys):
    assert SUITE_NAMES is rascent.SUITE_NAMES and GF_NAMES is rascent.GF_NAMES
    assert tuple(_SUITES) == SUITE_NAMES
    assert _choices(capsys, ["verify", "--help"], "--suite") == SUITE_NAMES + ("all",)
    assert _choices(capsys, ["gf", "--help"], "--name") == GF_NAMES


RECORDS = [
    (stat_sets((1, 2, 1)), StatSets,
     "StatSets(asctop=frozenset({1, 2}), ascbot=frozenset({1}), destop=frozenset({1, 2}), "
     "desbot=frozenset({1, 3}))"),
    (revise((1, 2, 1)), ReviseTrace,
     "ReviseTrace(source=(1, 2, 1), relabeled=(1, 2, 1), revised=(2, 1, 2, 1), bottoms=(1,))"),
    (wilf_classes(2, 3).classes[1], WilfClass, "WilfClass(patterns=((1, 2), (2, 1)), counts=(1, 1, 1))"),
    (wilf_classes(2, 3), WilfReport,
     "WilfReport(pattern_length=2, n_max=3, classes=(WilfClass(patterns=((1, 1),), counts=(1, 0, 0)), "
     "WilfClass(patterns=((1, 2), (2, 1)), counts=(1, 1, 1))))"),
    (system_132(3), Seq132State, "Seq132State(g=(0, 1, 1, 2), r=(0, 1, 1, 2), s=(0, 0, 0, 1))"),
    (label_counts(Rule.FULL, 2)[1], LabelCounts, "LabelCounts(level=2, counts={(1, 1): 1, (2, 2): 1})"),
    (Check("eta", "x", "n<=1", False, "12"), Check,
     "Check(suite='eta', name='x', scope='n<=1', passed=False, counterexample='12')"),
]


@pytest.mark.parametrize("record, kind, text", RECORDS, ids=[kind.__name__ for _, kind, _ in RECORDS])
def test_records_keep_repr_immutability_and_equality(record, kind, text):
    assert type(record) is kind and repr(record) == text
    first = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = kind(*record)
    assert twin == record and twin is not record
    assert record._replace(**{first: "other"}) != record
    if kind is LabelCounts:  # a dict field: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(tuple(getattr(record, f) for f in kind._fields))
