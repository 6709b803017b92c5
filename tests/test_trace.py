"""Trace parsing, writing, summarizing, and protocol splitting."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrloc.trace import (
    FrameRecord,
    Trace,
    TraceOrderError,
    TraceParseError,
    parse_trace,
    read_trace,
    save_trace,
    split_by_protocol,
    summarize,
    write_trace,
)


def test_parse_two_line_file():
    t = parse_trace(io.StringIO("0\tA\tB\n5\tB\tA\n"))
    assert len(t) == 2
    assert t.records[0] == FrameRecord(0, 0, 1, None, None)
    assert t.records[1] == FrameRecord(5, 1, 0, None, None)
    assert t.interns.tokens == ("A", "B")


def test_parse_skips_comments_and_blanks():
    t = parse_trace(io.StringIO("# header\n0\tA\tB\n\n   \n#trailer\n"))
    assert len(t) == 1


def test_parse_optional_fields():
    t = parse_trace(io.StringIO("0\tA\tB\tLAT\n1\tA\tB\tLAT\t64\n2\tA\tB\t\t128\n"))
    assert t.records[0].proto == "LAT" and t.records[0].length is None
    assert t.records[1].proto == "LAT" and t.records[1].length == 64
    # empty proto field means "no tag" even when a length follows
    assert t.records[2].proto is None and t.records[2].length == 128


def test_parse_decreasing_timestamp_is_order_error():
    with pytest.raises(TraceOrderError) as info:
        parse_trace(io.StringIO("5\tA\tB\n0\tB\tA\n"))
    assert info.value.line == 2


def test_parse_ties_allowed():
    t = parse_trace(io.StringIO("5\tA\tB\n5\tB\tA\n"))
    assert len(t) == 2


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0\tA\n", 1),                      # too few fields
        ("0\tA\tB\tP\t9\textra\n", 1),      # too many fields
        ("x\tA\tB\n", 1),                   # bad timestamp
        ("-1\tA\tB\n", 1),                  # negative timestamp
        ("0\tA\tB\n1\tA\tB\tP\tx\n", 2),    # bad length
        ("0\tA\tB\n1\tA\tB\tP\t-4\n", 2),   # negative length
        ("0\t\tB\n", 1),                    # empty token
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(TraceParseError) as info:
        parse_trace(io.StringIO(text))
    assert info.value.line == lineno


def test_interning_is_dense_first_appearance_src_before_dst():
    t = parse_trace(io.StringIO("0\tX\tY\n1\tZ\tX\n"))
    assert t.interns.tokens == ("X", "Y", "Z")
    assert t.destinations() == [1, 0]


def test_summarize_two_records_one_hour():
    t = Trace.from_token_rows([(0, "A", "B"), (3_600_000_000, "B", "A")])
    s = summarize(t)
    assert s.frame_count == 2
    assert s.distinct_addresses == 2
    assert s.distinct_destinations == 2
    assert s.duration_hours == 1.0


def test_summarize_self_addressed_frame():
    s = summarize(Trace.from_token_rows([(0, "A", "A")]))
    assert s.distinct_addresses == 1
    assert s.distinct_destinations == 1
    assert s.duration_hours == 0.0


def test_summarize_empty_trace_raises():
    with pytest.raises(ValueError):
        summarize(Trace.from_token_rows([]))


def test_summary_count_inequalities():
    t = parse_trace(io.StringIO("0\tA\tB\n1\tC\tB\n2\tA\tD\n"))
    s = summarize(t)
    assert s.distinct_destinations <= s.distinct_addresses <= 2 * s.frame_count


def test_split_by_protocol_example():
    t = Trace.from_token_rows(
        [(0, "A", "B", "LAT"), (1, "B", "A", "LAT"), (2, "A", "C", "DECnet")]
    )
    matching, rest = split_by_protocol(t, lambda p: p == "LAT")
    assert len(matching) == 2 and len(rest) == 1
    assert rest.records[0].proto == "DECnet"


def test_split_absent_proto_never_matches():
    t = Trace.from_token_rows([(0, "A", "B"), (1, "B", "A")])
    matching, rest = split_by_protocol(t, lambda p: True)
    assert len(matching) == 0
    assert rest == t


def test_split_partitions_and_reinterns_densely():
    rows = [(i, "A", f"d{i % 3}", "LAT" if i % 2 == 0 else "OTH") for i in range(10)]
    t = Trace.from_token_rows(rows)
    matching, rest = split_by_protocol(t, lambda p: p == "LAT")
    assert len(matching) + len(rest) == len(t)
    assert len(matching) == 5
    for side in (matching, rest):
        ids = {r.src for r in side.records} | {r.dst for r in side.records}
        assert ids == set(range(len(side.interns)))
    # merging the two sides back by timestamp restores the destination tokens
    merged = sorted(
        [(r.timestamp, matching.token_of(r.dst)) for r in matching.records]
        + [(r.timestamp, rest.token_of(r.dst)) for r in rest.records]
    )
    assert [tok for _, tok in merged] == [t.token_of(r.dst) for r in t.records]


def test_round_trip_basic_and_optional_fields():
    t = Trace.from_token_rows(
        [(0, "A", "B"), (1, "B", "A", "LAT"), (2, "A", "C", "LAT", 64), (3, "C", "A", None, 9)]
    )
    buf = io.StringIO()
    write_trace(t, buf)
    assert parse_trace(io.StringIO(buf.getvalue())) == t


def test_round_trip_empty_trace():
    buf = io.StringIO()
    write_trace(Trace.from_token_rows([]), buf)
    assert buf.getvalue() == ""
    assert len(parse_trace(io.StringIO(""))) == 0


def test_write_rejects_separator_in_token():
    t = Trace.from_token_rows([(0, "A", "B\tC")])
    with pytest.raises(ValueError):
        write_trace(t, io.StringIO())


@pytest.mark.parametrize("field", [1, 2, 3])
def test_write_names_the_first_bad_token_after_safe_records(field):
    # Every token is checked once, so a bad one must still be caught on the
    # first record that uses it, after the records before it are written.
    bad_row = [2, "A", "B", "LAT"]
    bad_row[field] = "x\ny"
    t = Trace.from_token_rows([(0, "A", "B", "LAT"), (1, "B", "A", "LAT"), tuple(bad_row)])
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"^token 'x\\ny' contains a tab or line break$"):
        write_trace(t, buf)
    assert buf.getvalue() == "0\tA\tB\tLAT\n1\tB\tA\tLAT\n"


def test_file_round_trip(tmp_path):
    t = Trace.from_token_rows([(0, "aa-bb-cc-dd-ee-ff", "ff-ee-dd-cc-bb-aa", "LAT", 1518)])
    path = tmp_path / "t.tsv"
    save_trace(t, path)
    assert read_trace(path) == t


_token = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
).filter(lambda s: not s.startswith("#") and s.strip())


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            _token,
            _token,
            st.one_of(st.none(), _token),
            st.one_of(st.none(), st.integers(min_value=0, max_value=10**5)),
        ),
        max_size=20,
    )
)
def test_round_trip_property(rows):
    rows = sorted(rows, key=lambda r: r[0])  # keep timestamps non-decreasing
    t = Trace.from_token_rows(rows)
    buf = io.StringIO()
    write_trace(t, buf)
    back = parse_trace(io.StringIO(buf.getvalue()))
    assert back == t
