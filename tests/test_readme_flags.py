"""The README's flag table lists exactly the options each subcommand's parser takes.

The ``| subcommand | flags |`` table in ``README.md`` is read as text and
compared, row by row as sets, with ``spnkit.cli.build_parser()``; a new
flag, a removed one or a stale row fails here.  ``-h`` and ``--out-dir``,
which every subcommand takes, are left out of the table.
"""

import argparse
import re
from pathlib import Path

from spnkit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
EVERY_SUBCOMMAND = {"-h", "--help", "--out-dir"}


def readme_rows() -> dict[str, set[str]]:
    lines = README.read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2  # past the header and its rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        _, name, flags, _ = line.split("|")
        rows[name.strip().strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
    return rows


def parser_rows(parser: argparse.ArgumentParser, prefix: str = "") -> dict[str, set[str]]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            rows = {}
            for name, sub in action.choices.items():
                rows.update(parser_rows(sub, f"{prefix} {name}".strip()))
            return rows
    return {prefix: {s for a in parser._actions for s in a.option_strings} - EVERY_SUBCOMMAND}


def test_readme_flag_table_matches_the_parser():
    readme, parser = readme_rows(), parser_rows(build_parser())
    assert sorted(readme) == sorted(parser)
    for name, flags in parser.items():
        assert readme[name] == flags, name
