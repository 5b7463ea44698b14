"""The README names exactly the fields of ``spnkit.stats.FitFamily``.

The sentence of ``README.md`` that introduces the ``FitFamily`` that
``repeated_measures_fit`` returns is read as text, up to its first full
stop, and its backquoted names are compared, in order, with
``FitFamily._fields``; a field added, removed or renamed on either side
fails here.
"""

import re
from pathlib import Path

from spnkit.stats import FitFamily

README = Path(__file__).resolve().parents[1] / "README.md"
INTRO = "`FitFamily` (`spnkit.stats.FitFamily`) of arrays in hypothesis order:"


def readme_fields() -> tuple[str, ...]:
    text = " ".join(README.read_text().split())
    listed = text[text.index(INTRO) + len(INTRO):].split(".", 1)[0]
    return tuple(re.findall(r"`([a-z_]+)`", listed))


def test_readme_lists_the_fitfamily_fields():
    assert readme_fields() == FitFamily._fields
