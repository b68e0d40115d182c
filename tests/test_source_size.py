"""The package's size: ``src/collapselab/*.py`` holds at most ``LINE_CEILING``
lines, counted as ``wc -l`` counts them.  A change that needs more lines
deletes as many elsewhere, so the ceiling only goes down (ROADMAP item 8)."""

from pathlib import Path

import collapselab

LINE_CEILING = 3559


def test_the_package_stays_under_its_line_ceiling():
    files = sorted(Path(collapselab.__file__).parent.glob("*.py"))
    total = sum(path.read_bytes().count(b"\n") for path in files)
    assert total <= LINE_CEILING, f"src/collapselab/*.py holds {total} lines, above the ceiling of {LINE_CEILING}"
