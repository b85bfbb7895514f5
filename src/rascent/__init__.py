"""Revised ascent sequences: families, bijections, patterns, series.

The package enumerates Cayley permutations whose ascent-bottom set
equals the set of leftmost value occurrences, together with three
sibling families cut out by the other order statistics.  It provides
the relabeling bijection from ordinary ascent sequences, pattern
avoidance with closed-form cross-checks, generating trees, and exact
power-series oracles.

Importing the package loads none of its modules.  Each public name is
looked up in its home module on first use (PEP 562), so a command that
never verifies never loads `verify`.
"""

from importlib import import_module

__version__ = "0.1.0"

# The CLI parser offers these as choices; holding them here lets it be
# built without loading `verify` or `oracle`, which re-export them.
SUITE_NAMES = ("eta", "addrom", "gentree", "table1", "phi", "series", "forms", "wilf")
GF_NAMES = ("fishburn", "b123", "b132", "b213")

# Every public name, by home module.
_PUBLIC = {
    "words": """CapExceededError DEFAULT_CAP Family StatSets Word ascent_bottoms ascent_tops
                count_family descent_bottoms descent_tops enumerate_family family_members
                format_word is_ascent_sequence is_cayley is_member nub parse_word stat_sets""",
    "maps": "ReviseTrace add_entry complement remove_entry revise shift_trim standardize unrevise",
    "patterns": """FORM_NAMES PATTERN_CAP WilfClass WilfReport avoider_words avoids contains
                   count_avoiders count_occurrences matches_form wilf_classes""",
    "gentree": """Rule expand_level label_counts level_totals rule_children rule_children_123
                  smallest_rise_top word_label""",
    "series": "PowerSeries",
    "oracle": """GF_NAMES OPEN_111_PREFIX TABLE_ROWS bell_numbers catalan_numbers closed_form
                 closed_form_counts expand_gf fishburn recurrence_213 stirling2 system_132""",
    "verify": "Check SUITE_NAMES run_suite",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Resolved on every access and never stored here, so the name always
    # means what its home module holds at that moment.
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
