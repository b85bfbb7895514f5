"""The three benchmark workloads: their commands and how each output is checked.

Every expected value is held here, not asked of the program under test:
counts are fixed integers (closed forms written out below, or literal
rows), family sizes are the Fishburn numbers, and every stdout digest is
the SHA-256 of the output of commit 8e20c68, so any byte that changes is
a failure.  On `family-stream` a seeded sample of the emitted words is
also checked against the naive predicates in `tests/reference.py`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

# Revised ascent sequences of length n, n = 1 .. 25 (A022493 shifted once).
# Classical ascent sequences of length n are FISHBURN[n], modified ones too.
FISHBURN = (
    1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608, 1422074, 10886503,
    89903100, 796713190, 7541889195, 75955177642, 810925547354,
    9148832109645, 108759758865725, 1358836180945243, 17801039909762186,
    243992799075850037, 3492329741309417600, 52105418376516869150,
)

# Rows with no elementary closed form, n = 1 .. len(row).  The 123 row is
# where the tree DP and the series agree; 132 is where brute force and the
# series agree; 111 is confirmed by brute force only.
ROW_123 = (
    1, 1, 2, 4, 9, 22, 57, 154, 429, 1223, 3550, 10455, 31160, 93802,
    284789, 871008, 2681019, 8298933, 25817396, 80674902, 253106837,
    796968056, 2517706037, 7977573203, 25347126630,
)
ROW_132 = (1, 1, 2, 5, 13, 35, 97, 275, 794, 2327, 6905)
ROW_111 = (1, 1, 1, 2, 4, 10, 29, 97, 367, 1550, 7228)


def _bell(m: int) -> int:
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# Closed forms for n >= 2; every class has exactly one word at n = 1.
_FORMS: dict[str, Callable[[int], int]] = {
    "11": lambda n: 0,
    "12": lambda n: 1,
    "21": lambda n: 1,
    "212": lambda n: 1,
    "221": lambda n: n - 1,
    "312": lambda n: 2 ** (n - 2),
    "122": lambda n: 2 ** (n - 2),
    "231": lambda n: 2 ** (n - 1) - n + 1,
    "321": lambda n: 2 ** (n - 1) - n + 1,
    "3231": lambda n: 2 ** (n - 1) - n + 1,
    "213": lambda n: comb(2 * n - 2, n - 1) // n,
    "121": lambda n: sum(k ** (n - k - 1) for k in range(1, n)),
    "211": lambda n: sum(k ** (n - k - 1) for k in range(1, n)),
    "2121": lambda n: sum(k ** (n - k - 1) for k in range(1, n)),
    "112": lambda n: _bell(n - 1),
    "123": lambda n: ROW_123[n - 1],
    "132": lambda n: ROW_132[n - 1],
    "3132": lambda n: ROW_132[n - 1],
}

# The 18 patterns of the paper's avoidance table, row by row.
TABLE_PATTERNS = tuple(_FORMS)


def expected_count(pattern: Optional[str], n: int) -> int:
    if pattern is None:
        return FISHBURN[n - 1]
    if pattern == "111":
        return ROW_111[n - 1]
    return 1 if n == 1 else _FORMS[pattern](n)


# Family sizes are Fishburn numbers, shifted once for rasc and destop.
_FISHBURN_SHIFT = {"asc": 0, "mod": 0, "desbot": 0, "rasc": 1, "destop": 1}


def family_size(family: str, n: int) -> Optional[int]:
    shift = _FISHBURN_SHIFT.get(family)
    return None if shift is None or n - shift >= len(FISHBURN) else FISHBURN[n - shift]


def expected_leaves(family: str, pattern: Optional[str], filtered: bool, n: int) -> Optional[int]:
    """Leaves one search must reach, where this file knows the count."""
    if not filtered:
        return family_size(family, n)
    if family != "rasc" or pattern not in _FORMS and pattern != "111":
        return None
    try:
        return expected_count(pattern, n)
    except IndexError:  # beyond the rows held here
        return None


DIGESTS = {
    "count --avoid 11 --n-max 10 --method brute,oracle":
        "911cdd06164e03026c352a0d757a90a6f2a98f81bb184ecba9e85cf3fc3375cf",
    "count --avoid 12 --n-max 10 --method brute,oracle":
        "79a059192b7df069dffc3037c49b40a6954301a28ec826a38e37edeef9678ee6",
    "count --avoid 21 --n-max 10 --method brute,oracle":
        "79a059192b7df069dffc3037c49b40a6954301a28ec826a38e37edeef9678ee6",
    "count --avoid 212 --n-max 10 --method brute,oracle":
        "79a059192b7df069dffc3037c49b40a6954301a28ec826a38e37edeef9678ee6",
    "count --avoid 221 --n-max 10 --method brute,oracle":
        "68d3ae9435314c0edaea116052149635b3c6e20f2d26ccfebcd6d19e018a6ea3",
    "count --avoid 312 --n-max 10 --method brute,oracle":
        "077e4ba98a0b8019db40f595c5d4dea8de096654398470c4fc8d43aa44a40096",
    "count --avoid 122 --n-max 10 --method brute,oracle":
        "077e4ba98a0b8019db40f595c5d4dea8de096654398470c4fc8d43aa44a40096",
    "count --avoid 231 --n-max 10 --method brute,oracle":
        "f0983258579122b5c991ba579bfe30b4e69f0fbde5d6f05b4ae73cf6f6e1a6a9",
    "count --avoid 321 --n-max 10 --method brute,oracle":
        "f0983258579122b5c991ba579bfe30b4e69f0fbde5d6f05b4ae73cf6f6e1a6a9",
    "count --avoid 3231 --n-max 10 --method brute,oracle":
        "f0983258579122b5c991ba579bfe30b4e69f0fbde5d6f05b4ae73cf6f6e1a6a9",
    "count --avoid 213 --n-max 10 --method brute,oracle":
        "19c4b026892372eb898ef1f57da7ee793eabbb34ebf469a19e645886c31887ff",
    "count --avoid 121 --n-max 10 --method brute,oracle":
        "c34986ff7f35d622d39ea7c4c308d4e916b0c3d6a42e23c793c17b4b84a47214",
    "count --avoid 211 --n-max 10 --method brute,oracle":
        "c34986ff7f35d622d39ea7c4c308d4e916b0c3d6a42e23c793c17b4b84a47214",
    "count --avoid 2121 --n-max 10 --method brute,oracle":
        "c34986ff7f35d622d39ea7c4c308d4e916b0c3d6a42e23c793c17b4b84a47214",
    "count --avoid 112 --n-max 10 --method brute,oracle":
        "2c85f102a4b16499fd0e7e13867543ff2c8060fdcb66ae56803313d1c919cc36",
    "count --avoid 123 --n-max 10 --method brute,oracle":
        "a5625410a27111460fcea262ed893c1d210f1abf78fb685fc4dfd890fd91a0f7",
    "count --avoid 132 --n-max 10 --method brute,oracle":
        "d305b10d336495e23b524dc7d3168473fa1dd606944eaa097a2d3ef80f21a40c",
    "count --avoid 3132 --n-max 10 --method brute,oracle":
        "d305b10d336495e23b524dc7d3168473fa1dd606944eaa097a2d3ef80f21a40c",
    "count --avoid 111 --n-max 10 --method brute":
        "f14f75ed5694f2607cc1aee5a9c606a183ecc20c489f2b28246775e57ae55f89",
    "enumerate --family asc --n 10":
        "aaafb042ef09e9c474f8d2f718c3d9d6d272cf471c9043f9c6df060850a78d2b",
    "enumerate --family rasc --n 10":
        "543caaef20bdbd298e56cbd3f26ab72d853c59dce65f7511c03d1a3814f12e07",
    "enumerate --family destop --n 10":
        "9743c9a9b6f60ca8d58cee4ddf85bee1e19d3aa4ed46f792ee316b89e1b79ab4",
    "enumerate --family mod --n 9":
        "1e5fcb0ccf020f28e4ba1877c68f2118fa6b645a22e47a7c90f71bf2b698fd80",
    "enumerate --family desbot --n 9":
        "d9e4022f936bc8d998e5abc1f3004c13230f9dadfe1b3d980f9fc7f5f6b40a72",
    "verify --suite all --n-max 7 --format jsonl":
        "1acc3988be8b9a45b9f5a967b5f520bffe62622c631c279ce195df8d43a4c902",
    "gf --name fishburn --order 64":
        "58e656f5f6d69ac165529b4021586ded8a69582e7409d9c39d209e592bdb0527",
    "gf --name b123 --order 64":
        "8c7de06c81979797cf572f46912b44ed54b6002ef241ca2f050b208346552c9b",
    "gf --name b132 --order 64":
        "a67ef0598ce4161cbc3aa617a17619dcd5a140e31c418be8d524dca9cfb608d6",
    "gf --name b213 --order 64":
        "0e0fa274ecf93baf7792f360514bbc033ebc96fa59b7da80d227fcc9a5e759dd",
    "count --method tree,oracle --n-max 25":
        "4f50acfcb45ba60fca5daf2f0256d9b57606dae1d374b0d391a9e0306c55bfb1",
    "count --method tree,oracle --n-max 25 --avoid 123":
        "8acfd5f121774b3529a13cdaa7aceeca49c01b4797f33409acb09537e7f4afae",
}

VERIFY_CHECKS = 49  # records of `verify --suite all` at the seed
WORD_SAMPLE = 200  # words per enumerate output checked by the naive predicates

_COUNT_FIELD = re.compile(r"(brute|tree|oracle)=(\d+)")


def _arg(argv: tuple[str, ...], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _check_count(argv, text: str, rng) -> Optional[str]:
    pattern = _arg(argv, "--avoid")
    lines = text.splitlines()
    if len(lines) != int(_arg(argv, "--n-max")):
        return f"expected {_arg(argv, '--n-max')} rows, got {len(lines)}"
    for n, line in enumerate(lines, start=1):
        fields = _COUNT_FIELD.findall(line)
        if not line.startswith(f"n={n} ") or not fields:
            return f"bad row {line!r}"
        want = expected_count(pattern, n)
        for method, value in fields:
            if int(value) != want:
                return f"n={n} {method}={value}, expected {want}"
    return None


def _check_enumerate(argv, text: str, rng: random.Random) -> Optional[str]:
    family, n = _arg(argv, "--family"), int(_arg(argv, "--n"))
    words = text.splitlines()
    want = family_size(family, n)
    if len(words) != want:
        return f"{len(words)} words, expected {want}"
    keep = reference_predicates()[family]
    for line in rng.sample(words, min(WORD_SAMPLE, len(words))):
        w = tuple(int(v) for v in (line.split(",") if "," in line else line))
        if len(w) != n or not keep(w):
            return f"{line} is not a length-{n} {family} word"
    return None


def _check_verify(argv, text: str, rng) -> Optional[str]:
    lines = text.splitlines()
    if "jsonl" in argv:
        if len(lines) != VERIFY_CHECKS:
            return f"{len(lines)} checks, expected {VERIFY_CHECKS}"
        failed = [r["property"] for r in map(json.loads, lines) if r["pass"] is not True]
    else:
        failed = [line for line in lines if not line.startswith("PASS  ")]
    return f"failed checks: {failed[:3]}" if failed or not lines else None


def _check_gf(argv, text: str, rng) -> Optional[str]:
    name, order = _arg(argv, "--name"), int(_arg(argv, "--order"))
    coeffs = [int(c) for c in text.split()]
    if len(coeffs) != order:
        return f"{len(coeffs)} coefficients, expected {order}"
    known = {
        "fishburn": FISHBURN[1:],
        "b123": ROW_123,
        "b132": ROW_132,
        "b213": tuple(comb(2 * k - 2, k - 1) // k for k in range(1, order + 1)),
    }[name]
    prefix = coeffs[: len(known)]
    return None if prefix == list(known[: len(prefix)]) else f"{name} prefix {prefix[:8]}..."


_CHECKS = {"count": _check_count, "enumerate": _check_enumerate,
           "verify": _check_verify, "gf": _check_gf}

@functools.cache
def reference_predicates() -> dict:
    """The family predicates of tests/reference.py, which imports nothing
    from the package under test."""
    path = Path(__file__).resolve().parent.parent / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("rascent_bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._PREDICATES


def check_output(argv: tuple[str, ...], stdout: bytes, rng: random.Random) -> Optional[str]:
    """None when stdout is right for this command, else what is wrong."""
    digest = DIGESTS.get(" ".join(argv))
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        return "stdout differs from the recorded digest"
    return _CHECKS[argv[0]](argv, stdout.decode(), rng)


@dataclass(frozen=True)
class Reach:
    """The largest n at which `argv(n)` finishes inside `budget_s`,
    probing upward from `start`."""

    argv: Callable[[int], tuple[str, ...]]
    start: int
    budget_s: float
    limit: int = 14  # the CLI's default length cap


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    reach: Reach


def _count(pattern: str, methods: str) -> tuple[str, ...]:
    return ("count", "--avoid", pattern, "--n-max", "10", "--method", methods)


# Each budget sits near the geometric mean of the probe's times at its
# reach and one past it (on a 2-core Xeon host: 1.2 s and 5 s for 112,
# 0.6 s and 3 s for rasc, 0.9 s and 4 s for verify), so host speed swings
# of 1.7x either way leave reach_n unchanged.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "avoid-count",
            tuple(_count(p, "brute,oracle") for p in TABLE_PATTERNS) + (_count("111", "brute"),),
            Reach(lambda n: ("count", "--avoid", "112", "--method", "brute", "--n-max", str(n)),
                  start=9, budget_s=2.4),
        ),
        Workload(
            "family-stream",
            tuple(("enumerate", "--family", f, "--n", str(n))
                  for f, n in (("asc", 10), ("rasc", 10), ("destop", 10), ("mod", 9), ("desbot", 9))),
            Reach(lambda n: ("enumerate", "--family", "rasc", "--n", str(n)),
                  start=9, budget_s=1.3),
        ),
        Workload(
            "verify-cli",
            (("verify", "--suite", "all", "--n-max", "7", "--format", "jsonl"),)
            + tuple(("gf", "--name", g, "--order", "64") for g in ("fishburn", "b123", "b132", "b213"))
            + (("count", "--method", "tree,oracle", "--n-max", "25"),
               ("count", "--method", "tree,oracle", "--n-max", "25", "--avoid", "123")),
            Reach(lambda n: ("verify", "--suite", "all", "--n-max", str(n)),
                  start=6, budget_s=1.8),
        ),
    )
}
