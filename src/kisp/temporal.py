"""Point-based time model: calendar dates with a distinguished "now".

Time points are plain ``datetime.date`` values at day granularity, written
``DD.MM.YYYY`` in all textual interfaces. The five predicates below are
definable from the chronological total order alone; intervals are handled
by passing their two endpoints to ``during``.
"""

from __future__ import annotations

import re
from datetime import date

from .terms import record

DATE_FORMAT = "DD.MM.YYYY"

# ASCII digits only, and the whole text: ``\d`` matches any Unicode digit and
# ``$`` matches before a trailing newline.
_DATE_RE = re.compile(r"([0-9]{2})\.([0-9]{2})\.([0-9]{4})")


def parse_date(text: str) -> date:
    """Parse a ``DD.MM.YYYY`` literal. Raises ValueError on anything else."""
    m = _DATE_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad date literal {text!r}: expected {DATE_FORMAT}")
    day, month, year = (int(g) for g in m.groups())
    try:
        return date(year, month, day)
    except ValueError as exc:
        raise ValueError(f"bad date literal {text!r}: {exc}") from exc


def format_date(d: date) -> str:
    return f"{d.day:02d}.{d.month:02d}.{d.year:04d}"


@record
class Timeline:
    """All representable dates plus the one point that counts as the present."""

    now: date

    @classmethod
    def today(cls) -> "Timeline":
        return cls(now=date.today())


def before(x: date, y: date) -> bool:
    return x < y


def after(x: date, y: date) -> bool:
    return x > y


def during(x: date, start: date, finish: date) -> bool:
    return start <= x <= finish


def past(timeline: Timeline, x: date) -> bool:
    return before(x, timeline.now)


def future(timeline: Timeline, x: date) -> bool:
    return after(x, timeline.now)
