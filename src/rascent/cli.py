"""Command-line front end.

Five subcommands tie the library together:

    enumerate   stream one family in lexicographic order
    count       count by several methods and cross-check them
    verify      run a named invariant suite
    gf          expand one of the four generating functions
    wilf        group patterns by their avoidance counts

Exit codes: 0 success, 1 verification or resource failure, a closed
output pipe or an interrupt (Ctrl-C), 2 usage error.  Output is
deterministic: identical arguments give identical bytes.  Plain lines
are meant for people, JSONL for machines; CSV is offered where the
output is a table.

Results leave as soon as they exist: `enumerate` writes the
completions of each prefix in one block as the search reaches it,
`verify` writes each suite's records when that suite ends, and `count`
writes each length once it is counted; `gf` and `wilf` print when they
are done.  A line once written stays written after a later failure or
interrupt.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Iterable

# Only what every subcommand needs loads with the parser; each handler
# imports the modules it runs, so `count --method brute` never loads
# the generating trees or the verification suites.
from . import GF_NAMES, SUITE_NAMES
from .words import (
    _DIGITS,
    BlockLeaf,
    CapExceededError,
    DEFAULT_CAP,
    Family,
    _check_length,
    _format_word,
    count_family,
    format_word,
    parse_word,
    search_family,
)

MAX_ORDER = 64

_FAMILY_TOKENS = tuple(f.value for f in Family)


def _pattern(text: str):
    from .patterns import check_pattern
    try:
        return check_pattern(parse_word(text))
    except ValueError as exc:
        raise _Usage(f"--avoid: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rascent",
        description="Enumerate, count and cross-check ascent-sequence families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream one family, one word per line")
    p.add_argument("--family", choices=_FAMILY_TOKENS, default=Family.REVISED.value)
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--avoid", type=str, default=None, metavar="PATTERN")
    p.add_argument("--format", choices=("plain", "jsonl", "csv"), default="plain")
    p.add_argument("--cap-override", type=int, default=None, metavar="N")

    p = sub.add_parser("count", help="count words by brute force, tree DP, or closed form")
    p.add_argument("--family", choices=_FAMILY_TOKENS, default=Family.REVISED.value)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--avoid", type=str, default=None, metavar="PATTERN")
    p.add_argument("--method", type=str, default="brute",
                   help="comma-separated subset of brute,tree,oracle")
    p.add_argument("--no-check", action="store_true",
                   help="do not fail when methods disagree")
    p.add_argument("--dump-labels", action="store_true",
                   help="after counting with the tree method, dump label multiplicities per level")
    p.add_argument("--format", choices=("plain", "jsonl", "csv"), default="plain")
    p.add_argument("--cap-override", type=int, default=None, metavar="N")

    p = sub.add_parser("verify", help="run one invariant suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--format", choices=("plain", "jsonl"), default="plain")

    p = sub.add_parser("gf", help="expand a generating function")
    p.add_argument("--name", choices=GF_NAMES, required=True)
    p.add_argument("--order", type=int, default=10, help=f"highest power, at most {MAX_ORDER}")
    p.add_argument("--format", choices=("plain", "jsonl", "csv"), default="plain")

    p = sub.add_parser("wilf", help="group same-length patterns by avoidance counts")
    p.add_argument("--pattern-length", type=int, required=True)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--cap-override", type=int, default=None, metavar="N")
    return parser


def _cap(args: argparse.Namespace, default: int = DEFAULT_CAP) -> int:
    value = getattr(args, "cap_override", None)
    if value is not None and value < 1:
        raise _Usage("--cap-override must be positive")
    return default if value is None else value


def _cmd_enumerate(args: argparse.Namespace, out) -> int:
    if args.n < 1:
        raise _Usage("--n must be positive")
    n, family = args.n, Family(args.family)
    accept = None
    if args.avoid is not None:  # an empty pattern is refused, not ignored
        from .patterns import avoid_filter
        accept = avoid_filter(_pattern(args.avoid))
    cap = _cap(args)
    _check_length(n, cap)  # before the csv header, so a refused run writes nothing
    # each line is before + word + after, written unchecked from the
    # search's leaf, so the first line goes out long before the search
    # ends; the search keeps no more than the completions of its last
    # three levels
    if args.format == "jsonl":
        before, after = '{"n": %d, "word": "' % n, '"}\n'  # as json.dumps writes it
    elif args.format == "csv":
        out.write("n,word\n")
        before, after = f"{n},", "\n"
    else:
        before, after = "", "\n"

    def leaf(entries: list[int]) -> None:
        out.write(before + _format_word(entries) + after)

    b_before, b_after = before.encode(), after.encode()

    def block(entries: list[int], tails: list[bytes]) -> None:
        # every completion of one prefix in one write.  Entries are never
        # 0, so byte 0 separates the tails and its digit "0" marks where
        # each line ends and the next begins.
        if not tails:
            return
        prefix = bytes(entries).translate(_DIGITS)
        body = b"\0".join(tails).translate(_DIGITS)
        if b"," in body or b"," in prefix:
            # a word with an entry of 10 or more is written with commas
            lines = (prefix + body.replace(b"0", b"0" + prefix)).split(b"0")
            for i, line in enumerate(lines):
                if b"," in line:
                    lines[i] = _format_word(entries + list(tails[i])).encode()
            text = b_before + (b_after + b_before).join(lines) + b_after
        else:
            head = b_before + prefix
            text = head + body.replace(b"0", b_after + head) + b_after
        out.write(text.decode())

    search_family(n, family, BlockLeaf(leaf, block), accept=accept, cap=cap)
    return 0


def _oracle(pattern, n_max: int):
    """The oracle's counts for n = 1..n_max, or None when the pattern
    has no closed form."""
    from .oracle import closed_form_counts, fishburn
    if pattern is None:
        return (1,) + fishburn(n_max - 1) if n_max > 1 else (1,)
    return closed_form_counts(pattern, n_max)


def _cmd_count(args: argparse.Namespace, out) -> int:
    family = Family(args.family)
    pattern = _pattern(args.avoid) if args.avoid is not None else None
    methods = tuple(m.strip() for m in args.method.split(",") if m.strip())
    if not methods or any(m not in ("brute", "tree", "oracle") for m in methods):
        raise _Usage(f"--method must name brute, tree or oracle, got {args.method!r}")
    if "tree" in methods:
        if family is not Family.REVISED:
            raise _Usage("the tree method only counts the revised family")
        if pattern is not None and pattern != (1, 2, 3):
            raise _Usage("the tree method supports no pattern or --avoid 123")
    if "oracle" in methods and family is not Family.REVISED:
        raise _Usage("closed forms only cover the revised family")
    if args.dump_labels and ("tree" not in methods or args.format != "plain"):
        raise _Usage("--dump-labels needs the tree method and plain format")
    if args.n_max < 1:
        raise _Usage("--n-max must be positive")
    cap = _cap(args)
    # tree and oracle alone go as far as gf does; brute stops at the length
    # cap and the search's depth limit
    if "brute" in methods:
        _check_length(args.n_max, cap)
    elif args.n_max > (limit := _cap(args, MAX_ORDER)):
        raise CapExceededError(f"length {args.n_max} exceeds cap {limit}")
    # the whole column at once, after the cap check: a refused run expands nothing
    oracle = _oracle(pattern, args.n_max) if "oracle" in methods else None
    if oracle is None and set(methods) == {"oracle"}:
        raise _Usage(f"{format_word(pattern)} has no closed form, so --method oracle has nothing to count")
    if "oracle" in methods and oracle is None:
        print(f"rascent count: {format_word(pattern)} has no closed form; the oracle column is omitted",
              file=sys.stderr)
    if pattern is not None:  # _pattern has loaded patterns already
        from .patterns import count_avoiders
    if "tree" in methods:
        from .gentree import Rule, label_counts
        rule = Rule.FULL if pattern is None else Rule.AVOID123
        levels = label_counts(rule, max(args.n_max - 1, 1))  # the totals and --dump-labels

    if args.format == "csv":
        out.write("n,method,count\n")
    elif args.format == "jsonl":
        import json
    agree: list[bool] = []
    for n in range(1, args.n_max + 1):
        row: list[tuple[str, int]] = []
        if "brute" in methods:
            if pattern is None:
                row.append(("brute", count_family(n, family, cap=cap)))
            else:
                row.append(("brute", count_avoiders(n, pattern, family, cap=cap)))
        if "tree" in methods:
            # trees start at length 2; the sole length-1 word sits above the root
            row.append(("tree", 1 if n == 1 else levels[n - 2].total))
        if oracle is not None:
            row.append(("oracle", oracle[n - 1]))
        agree.append(len({count for _, count in row}) <= 1)
        if args.format == "csv":
            out.write("".join(f"{n},{method},{count}\n" for method, count in row))
        elif args.format == "jsonl":
            out.write("".join(json.dumps({"n": n, "method": method, "count": str(count)}) + "\n"
                              for method, count in row))
        else:
            suffix = "" if len(row) <= 1 else ("  ok" if agree[-1] else "  MISMATCH")
            out.write(f"n={n}  " + "  ".join(f"{method}={count}" for method, count in row) + suffix + "\n")
        out.flush()  # each length leaves as soon as it is counted

    if args.format == "jsonl" and len(row) > 1:  # every length was counted more than one way
        for n, ok in enumerate(agree, start=1):
            out.write(json.dumps({"n": n, "pass": ok}) + "\n")
    if args.dump_labels:
        for lc in levels:
            terms = " ".join(f"{a},{b}:{c}" for (a, b), c in sorted(lc.counts.items()))
            out.write(f"level {lc.level}: {terms}\n")

    return 0 if args.no_check or all(agree) else 1


def _cmd_verify(args: argparse.Namespace, out) -> int:
    if args.n_max < 1:
        raise _Usage("--n-max must be positive")
    # the suites enumerate up to length n_max + 1; refuse before any runs
    _check_length(args.n_max + 1, DEFAULT_CAP)
    from .verify import run_suite
    if args.format == "jsonl":
        import json
    passed = True
    for name in SUITE_NAMES if args.suite == "all" else (args.suite,):
        checks = run_suite(name, args.n_max)
        for c in checks:
            if args.format == "jsonl":
                record = {"suite": c.suite, "property": c.name, "pass": c.passed,
                          "counterexample": c.counterexample}
                out.write(json.dumps(record) + "\n")
            else:
                mark = "PASS" if c.passed else "FAIL"
                line = f"{mark}  {c.suite}.{c.name}  [{c.scope}]"
                if c.counterexample:
                    line += f"  counterexample: {c.counterexample}"
                out.write(line + "\n")
        out.flush()  # each suite leaves as soon as it ends
        passed &= all(c.passed for c in checks)
    return 0 if passed else 1


def _cmd_gf(args: argparse.Namespace, out) -> int:
    if not 1 <= args.order <= MAX_ORDER:
        raise _Usage(f"--order must lie in 1..{MAX_ORDER}")
    from .oracle import expand_gf
    coeffs = expand_gf(args.name, args.order)
    if args.format == "jsonl":
        import json
        for k, c in enumerate(coeffs, start=1):
            out.write(json.dumps({"n": k, "count": str(c)}) + "\n")
    elif args.format == "csv":
        out.write("n,count\n")
        for k, c in enumerate(coeffs, start=1):
            out.write(f"{k},{c}\n")
    else:
        out.write(" ".join(str(c) for c in coeffs) + "\n")
    return 0


def _cmd_wilf(args: argparse.Namespace, out) -> int:
    import json
    from .patterns import WILF_LENGTH_CAP, wilf_classes
    if not 1 <= args.pattern_length <= WILF_LENGTH_CAP:
        raise _Usage(f"--pattern-length must lie in 1..{WILF_LENGTH_CAP}")
    if args.n_max < 1:
        raise _Usage("--n-max must be positive")
    cap = _cap(args)
    _check_length(args.n_max, cap)
    report = wilf_classes(args.pattern_length, args.n_max, cap=cap)
    document = {
        "pattern_length": report.pattern_length,
        "n_max": report.n_max,
        "status": "conjectural up to n_max",
        "classes": [
            {
                "patterns": [format_word(p) for p in cls.patterns],
                "counts": [str(c) for c in cls.counts],
            }
            for cls in report.classes
        ],
    }
    out.write(json.dumps(document, indent=2) + "\n")
    return 0


class _Usage(Exception):
    """Bad arguments detected after argparse; maps to exit code 2."""


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "gf": _cmd_gf,
    "wilf": _cmd_wilf,
}


def main(argv: Iterable[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _HANDLERS[args.command]
    # Output goes out in blocks (by line to a terminal) even when Python
    # runs unbuffered, by -u or PYTHONUNBUFFERED: a system call per line
    # costs enumerate more than its search does.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(write_through=False)
    try:
        try:
            code = handler(args, sys.stdout)
        except KeyboardInterrupt:
            # Ctrl-C: one line instead of a traceback; what was written
            # still goes out below
            print(f"rascent {args.command}: interrupted", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except OSError as exc:
        # A write to stdout failed: the reader closed the pipe, which
        # needs no word, or the disk is full.  Point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        if not isinstance(exc, BrokenPipeError):
            print(f"rascent {args.command}: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _Usage as exc:
        print(f"rascent {args.command}: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, ValueError) as exc:
        print(f"rascent {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
