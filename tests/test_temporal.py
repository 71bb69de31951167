from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kisp.temporal import (
    Timeline,
    after,
    before,
    during,
    format_date,
    future,
    parse_date,
    past,
)

dates = st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31))


def test_parse_date():
    assert parse_date("01.09.1939") == date(1939, 9, 1)
    assert parse_date("31.12.2020") == date(2020, 12, 31)


def test_format_date_zero_pads():
    assert format_date(date(1939, 9, 1)) == "01.09.1939"
    assert format_date(date(5, 1, 2)) == "02.01.0005"


@pytest.mark.parametrize(
    "bad",
    ["", "1.9.1939", "01-09-1939", "1939.09.01", "32.01.2000", "29.02.2001", "01.13.2000", "01.09.39", "abc", "01.09.1939 ",
     "01.01.2000\n", "\u0660\u0661.\u0660\u0661.\u0662\u0660\u0660\u0660"],
)
def test_parse_date_rejects(bad):
    with pytest.raises(ValueError):
        parse_date(bad)


@given(dates)
def test_parse_format_round_trip(d):
    assert parse_date(format_date(d)) == d


def test_before_after_basics():
    start = parse_date("01.09.1939")
    end = parse_date("02.09.1945")
    assert before(start, end)
    assert not before(end, start)
    assert not before(start, start)
    assert after(end, start)
    assert not after(start, end)
    assert not after(end, end)


@given(dates, dates)
def test_after_mirrors_before(x, y):
    assert after(x, y) == before(y, x)


@given(dates, dates)
def test_order_is_total(x, y):
    assert (before(x, y), after(x, y), x == y).count(True) == 1


def test_during_inclusive_bounds():
    s = parse_date("01.09.1939")
    f = parse_date("02.09.1945")
    assert during(parse_date("01.01.1941"), s, f)
    assert during(s, s, f)
    assert during(f, s, f)
    assert not during(parse_date("03.09.1945"), s, f)
    # an inverted interval is empty
    for x in (s, f, parse_date("01.01.1941"), parse_date("01.01.1900")):
        assert not during(x, f, s)


@given(dates, dates, dates)
def test_during_from_order_alone(x, s, f):
    assert during(x, s, f) == (not before(x, s) and not after(x, f))


def test_past_future():
    timeline = Timeline(parse_date("01.01.2000"))
    assert past(timeline, parse_date("01.09.1939"))
    assert not past(timeline, timeline.now)
    assert not future(timeline, timeline.now)
    assert future(timeline, parse_date("02.01.2000"))


@given(dates)
def test_now_is_neither_past_nor_future_of_itself(d):
    timeline = Timeline(d)
    assert not (past(timeline, d) or future(timeline, d))


@given(dates, dates)
def test_past_and_future_exclusive(now, x):
    timeline = Timeline(now)
    assert not (past(timeline, x) and future(timeline, x))


def test_timeline_today_matches_host_clock():
    assert Timeline.today().now == date.today()
