"""Trace parsing, writing, summarizing, and protocol splitting."""

from __future__ import annotations

import gc
import io
import re
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from addrloc import trace as trace_module
from addrloc.cli import main
from addrloc.trace import (
    InternTable,
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

from helpers import rows, traced_peak
from oracles import parse_trace_by_line, select_rows, split_by_protocol_rows


def test_parse_two_line_file():
    t = parse_trace(io.StringIO("0\tA\tB\n5\tB\tA\n"))
    assert len(t) == 2
    assert list(rows(t)) == [(0, 0, 1, None, None), (5, 1, 0, None, None)]
    assert t.interns.tokens == ("A", "B")


def test_parse_skips_comments_and_blanks():
    t = parse_trace(io.StringIO("# header\n0\tA\tB\n\n   \n#trailer\n"))
    assert len(t) == 1


def test_parse_optional_fields():
    t = parse_trace(io.StringIO("0\tA\tB\tLAT\n1\tA\tB\tLAT\t64\n2\tA\tB\t\t128\n"))
    frames = list(rows(t))
    assert frames[0][3:] == ("LAT", None)
    assert frames[1][3:] == ("LAT", 64)
    # empty proto field means "no tag" even when a length follows
    assert frames[2][3:] == (None, 128)


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


def test_summarize_counts_only_the_addresses_frames_use():
    # The intern table may hold a token no frame references; it was once counted.
    s = summarize(Trace([0, 1], [0, 0], [0, 2], InternTable(["A", "B", "C"])))
    assert s.distinct_addresses == 2
    assert s.distinct_destinations == 2


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
    assert next(rows(rest))[3] == "DECnet"


def test_split_absent_proto_never_matches():
    t = Trace.from_token_rows([(0, "A", "B"), (1, "B", "A")])
    matching, rest = split_by_protocol(t, lambda p: True)
    assert len(matching) == 0
    assert rest == t


def test_split_partitions_and_reinterns_densely():
    token_rows = [(i, "A", f"d{i % 3}", "LAT" if i % 2 == 0 else "OTH") for i in range(10)]
    t = Trace.from_token_rows(token_rows)
    matching, rest = split_by_protocol(t, lambda p: p == "LAT")
    assert len(matching) + len(rest) == len(t)
    assert len(matching) == 5
    for side in (matching, rest):
        ids = {r[1] for r in rows(side)} | {r[2] for r in rows(side)}
        assert ids == set(range(len(side.interns)))
    # merging the two sides back by timestamp restores the destination tokens
    merged = sorted(
        [(r[0], matching.token_of(r[2])) for r in rows(matching)]
        + [(r[0], rest.token_of(r[2])) for r in rows(rest)]
    )
    assert [tok for _, tok in merged] == [t.token_of(r[2]) for r in rows(t)]


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


def test_constructor_rejects_separator_in_token():
    # A tab would split the token's field in a file, so no trace holds one.
    with pytest.raises(ValueError, match=r"^token 'B\\tC' contains a tab or line break$"):
        Trace.from_token_rows([(0, "A", "B\tC")])


@pytest.mark.parametrize("field", [1, 2, 3])
def test_from_token_rows_names_the_bad_token_in_each_field(field):
    # A bad src, dst or proto token is named whatever records come before it.
    bad_row = [2, "A", "B", "LAT"]
    bad_row[field] = "x\ny"
    with pytest.raises(ValueError, match=r"^token 'x\\ny' contains a tab or line break$"):
        Trace.from_token_rows([(0, "A", "B", "LAT"), (1, "B", "A", "LAT"), tuple(bad_row)])


def test_constructor_rejects_an_empty_address_token():
    # "0\t\t\n" would not parse back: the parser rejects an empty token.
    with pytest.raises(ValueError, match="^empty address token$"):
        Trace([0], [0], [0], InternTable([""]))
    # Every token is checked, so an unused one is too.
    with pytest.raises(ValueError, match="^empty address token$"):
        Trace([0], [0], [0], InternTable(["A", ""]))
    with pytest.raises(ValueError, match="^empty address token$"):
        Trace.from_token_rows([(0, "A", "")])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(5, "A", "B"), (1, "A", "B")], "^timestamps column decreases at frame 1$"),
        ([(0, "A", "B"), (-1, "A", "B")], "^timestamps column at frame 1 is outside 0\\.\\."),
        ([(0, "A", "B", None, -5)], "^length column at frame 0 is outside -1\\.\\."),
        ([(0.5, "A", "B")], "^timestamps must be integers, got dtype float64$"),
        ([(0, "A", "B", None, 1.5)], "^length must be integers, got dtype float64$"),
        ([(True, "A", "B")], "^timestamps must be integers, got dtype bool$"),
        ([(0, "A", "B", "ip", False)], "^length must be integers, got dtype bool$"),
        ([(2**63, "A", "B")], "^timestamps must fit in int64$"),
        ([(0, "A", "B", None, 2**64)], "^length must be integers, got dtype object$"),
    ],
)
def test_from_token_rows_rejects_what_a_file_cannot_hold(rows, message):
    # Nothing is truncated or wrapped: 0.5 is not stored as 0, nor 2**63 as -2**63.
    with pytest.raises(ValueError, match=message):
        Trace.from_token_rows(rows)


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


# Address tokens and tags: safe ones, some not ASCII, and unsafe ones: empty or
# holding a tab or line break (`_breaks`).
_POOL = ["A", "b-c", "é", "€ x", "𝄞", "#", "", "x\ty", "x\ny", "x\r", "\rx"]
_TAGS = [None, "", "lat", "ip", "é", "l\tt", "p\n", "p\r"]


def _breaks(token) -> bool:
    return token is not None and any(c in token for c in "\t\n\r")


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.lists(st.sampled_from(_POOL), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(_TAGS), max_size=4, unique=True),
    st.booleans(),
    st.data(),
)
def test_constructor_accepts_exactly_the_traces_a_file_can_hold(
    tmp_path, pool, tags, ordered, data
):
    protos = (None, *tags)
    frames = data.draw(st.lists(st.tuples(
        st.integers(-2, 10**6),
        st.sampled_from(pool),
        st.sampled_from(pool),
        st.integers(0, len(tags)),
        st.one_of(st.none(), st.integers(-3, 2**63 - 1)),
    ), max_size=12))
    if ordered:
        frames.sort(key=lambda frame: frame[0])
    # Ids numbered by first appearance, source before destination, as parsed.
    interns = InternTable()
    ids = [interns.intern(token) for _, src, dst, _, _ in frames for token in (src, dst)]
    timestamps = [ts for ts, *_ in frames]
    lengths = [-1 if n is None else n for *_, n in frames]
    columns = dict(
        timestamps=timestamps,
        src=ids[0::2],
        dst=ids[1::2],
        interns=interns,
        proto=[code for *_, code, _ in frames],
        length=lengths,
        protos=protos,
    )
    # Each rule broken, by the start of its message.
    broken = [
        message
        for message, breaks in (
            ("protos must be distinct tags", "" in protos or len(set(protos)) < len(protos)),
            ("empty address token", "" in interns),
            ("token .* contains a tab or line break", any(map(_breaks, (*interns.tokens, *tags)))),
            ("timestamps column at frame", any(ts < 0 for ts in timestamps)),
            ("timestamps column decreases", timestamps != sorted(timestamps)),
            ("length column at frame", any(n < -1 for n in lengths)),
        )
        if breaks
    ]
    if broken:
        with pytest.raises(ValueError) as info:
            Trace(**columns)
        assert any(re.match(message, str(info.value)) for message in broken)
        return
    t = Trace(**columns)
    buf = io.StringIO()
    write_trace(t, buf)
    assert parse_trace(io.StringIO(buf.getvalue())) == t
    path = tmp_path / "t.tsv"
    path.write_bytes(buf.getvalue().encode())
    assert read_trace(path) == t


# --- columnar layout ---------------------------------------------------------

def test_columns_and_tables():
    t = parse_trace(io.StringIO("7\tA\tB\tLAT\t64\n8\tB\tC\n9\tC\tA\t\t5\n"))
    assert t.timestamps.dtype == np.int64 and t.timestamps.tolist() == [7, 8, 9]
    assert t.src.dtype == t.dst.dtype == np.int32
    assert t.src.tolist() == [0, 1, 2] and t.dst.tolist() == [1, 2, 0]
    assert t.protos == (None, "LAT") and t.proto.tolist() == [1, 0, 0]
    assert t.length.tolist() == [64, -1, 5]
    assert not t.dst.flags.writeable


def test_destinations_are_python_ints():
    # The sequential kernels (Fenwick tree, cache simulators) iterate this list.
    dst = parse_trace(io.StringIO("0\tA\tB\n1\tB\tA\n")).destinations()
    assert dst == [1, 0] and all(type(d) is int for d in dst)


@pytest.mark.parametrize(
    "columns,message",
    [
        (dict(timestamps=[0, 1], src=[0], dst=[0, 0]), "differ in length"),
        (dict(timestamps=[0], src=[0], dst=[1]), "dst column"),
        (dict(timestamps=[0], src=[-1], dst=[0]), "src column"),
        (dict(timestamps=[0], src=[0], dst=[0], proto=[1]), "proto column"),
        (dict(timestamps=[0], src=[0], dst=[0], protos=("LAT",)), "protos\\[0\\] must be None"),
        (dict(timestamps=[0], src=[0], dst=[0], protos=(None, "LAT", "")), "none of them empty"),
        (dict(timestamps=[0], src=[0], dst=[0], protos=(None, "ip", "ip")), "must be distinct"),
        (dict(timestamps=[0], src=[0], dst=[0], interns=InternTable([""])), "^empty address"),
        (dict(timestamps=[0], src=[0], dst=[0], interns=InternTable(["A", "B\rC"])), r"'B\\rC'"),
        (dict(timestamps=[0], src=[0], dst=[0], protos=(None, "ip\n")), r"^token 'ip\\n' contains"),
        (dict(timestamps=[-1], src=[0], dst=[0]), "^timestamps column at frame 0 is outside 0\\."),
        (dict(timestamps=[0, 5, 5, 1], src=[0] * 4, dst=[0] * 4), "decreases at frame 3$"),
        (dict(timestamps=[0, 1], src=[0, 0], dst=[0, 0], length=[0, -2]), "length column at frame 1"),
        (dict(timestamps=[0.0], src=[0], dst=[0]), "timestamps must be integers, got dtype float"),
        (dict(timestamps=[0], src=[0], dst=[0], length=[True]), "length must be integers"),
        (dict(timestamps=[0], src=[0.0], dst=[0]), "src must be integers"),
        (dict(timestamps=np.array([2**63], np.uint64), src=[0], dst=[0]), "timestamps must fit in int64"),
        (dict(timestamps=[0], src=[0], dst=[2**32]), "^dst must fit in int32$"),
    ],
)
def test_constructor_rejects_inconsistent_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        Trace(**{"interns": InternTable(["A"]), **columns})


def test_constructor_accepts_empty_columns_of_any_dtype():
    # np.asarray([]) is float64, and an empty trace has nothing to truncate.
    t = Trace([], [], [], InternTable(), proto=[], length=np.array([], float))
    assert len(t) == 0 and t.timestamps.dtype == np.int64 and t.length.dtype == np.int64


def test_constructor_defaults_and_records_view():
    t = Trace([3, 4], [0, 1], [1, 0], InternTable(["A", "B"]), proto=[0, 1], protos=(None, "ip"))
    assert t.length.tolist() == [-1, -1] and t.length.dtype == np.int64
    assert list(rows(t)) == [(3, 0, 1, None, None), (4, 1, 0, "ip", None)]
    bare = Trace([3], [0], [1], InternTable(["A", "B"]))
    assert bare.proto.tolist() == [0] and bare.proto.dtype == np.int32
    assert bare.protos == (None,)
    assert list(rows(bare)) == [(3, 0, 1, None, None)]


# --- columnar parse vs the line-by-line parser -------------------------------

_INT64_MAX = 2**63 - 1

# Spellings of a number outside the format, most of which int() reads as the
# number; int() refuses more than 4,300 digits.  Each is a bad timestamp or
# length, named by its line.
BAD_SPELLINGS = {
    "pad": lambda text: f" {text} ",
    "trailing space": lambda text: f"{text} ",
    "plus": lambda text: f"+{text}",
    "underscore": lambda text: f"0_{text}",
    "arabic-indic": lambda text: text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    "fullwidth": lambda text: text.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    "20 digits": lambda text: text.zfill(20),
    "5000 digits": lambda text: text.zfill(5000),
}


@st.composite
def _spelling(draw, value: int) -> str:
    """`value` in plain digits, mostly; else zero-padded to at most 19 digits,
    or now and then in a bad spelling."""
    text = str(value)
    style = draw(st.sampled_from(["plain"] * 30 + ["zeros"] * 10 + ["bad"]))
    if style == "zeros":
        return text.zfill(draw(st.integers(len(text), 19)))
    if style == "bad":
        return BAD_SPELLINGS[draw(st.sampled_from(sorted(BAD_SPELLINGS)))](text)
    return text


# One line of each error kind; "0" as a timestamp decreases below any
# earlier frame, whose timestamps start at 10.
BAD_LINES = {
    "too few fields": "10\tA",
    "too many fields": "10\tA\tB\tP\t9\textra",
    "bad timestamp": "1x\tA\tB",
    "negative timestamp": "-3\tA\tB",
    "decreasing timestamp": "0\tA\tB",
    "empty src": "10\t\tB",
    "empty dst": "10\tA\t\tP",
    "bad length": "10\tA\tB\tP\t6.5",
    "empty length": "10\tA\tB\tP\t",
    "negative length": "10\tA\tB\t\t-4",
}

_tokens = st.sampled_from(["A", "B", "aa-bb", "x y", "C\r", "D\rE"])


@st.composite
def _trace_lines(draw) -> list[str]:
    lines = []
    ts = 10
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["frame", "frame", "frame", "comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["#", "# note", "#\ta\tb\tc"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t\t", " \t \t\x0b", "\x0c"]))
        else:
            ts = min(ts + draw(st.sampled_from([0, 1, 2, 3, _INT64_MAX])), _INT64_MAX)
            fields = [draw(_spelling(ts)), draw(_tokens), draw(_tokens)]
            width = draw(st.integers(3, 5))
            if width >= 4:
                fields.append(draw(st.sampled_from(["", "lat", "ip"])))
            if width == 5:
                length = draw(st.one_of(st.integers(0, 1600), st.just(_INT64_MAX)))
                fields.append(draw(_spelling(length)))
            line = "\t".join(fields)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])))
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(BAD_LINES))))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), BAD_LINES[bad] + "\n")
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")   # no line break at end of file
    return lines


def _assert_parses_like_oracle(lines: list[str]) -> None:
    # The oracle reads the lines that a file holding their text splits into.
    try:
        expected = parse_trace_by_line(list(io.StringIO("".join(lines), newline=None)))
    except TraceParseError as exc:
        with pytest.raises(type(exc)) as info:
            parse_trace(io.StringIO("".join(lines)))
        assert (info.value.line, str(info.value)) == (exc.line, str(exc))
        return
    t = parse_trace(io.StringIO("".join(lines)))
    assert (list(rows(t)), t.interns.tokens) == (expected[0], expected[1])
    assert parse_trace(lines) == t


@settings(max_examples=300, deadline=None)
@given(_trace_lines(), st.integers(1, 6))
def test_columnar_parse_matches_line_parser(lines, block_lines):
    with mock.patch.object(trace_module, "_CHUNK_LINES", block_lines):
        _assert_parses_like_oracle(lines)


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("at", [2, 3, 4])
def test_parse_error_on_either_side_of_a_block_boundary(bad, at):
    # Blocks of 3 lines: the bad line is the last of the first block, or
    # the first or second of the next one.
    lines = [f"{10 + i}\tA\tB\n" for i in range(6)]
    lines.insert(at, BAD_LINES[bad] + "\n")
    with mock.patch.object(trace_module, "_CHUNK_LINES", 3):
        with pytest.raises(TraceParseError) as info:
            parse_trace(io.StringIO("".join(lines)))
        assert info.value.line == at + 1
        _assert_parses_like_oracle(lines)


@pytest.mark.parametrize(
    "line,message",
    [
        (f"{2**63}\tA\tB", f"timestamp {2**63} exceeds 2**63 - 1"),
        (f"5\tA\tB\tP\t{2**63}", f"length {2**63} exceeds 2**63 - 1"),
        (f"{-2**63 - 1}\tA\tB", f"negative timestamp {-2**63 - 1}"),
        # More digits than int() converts.
        pytest.param("9" * 5000 + "\tA\tB", f"timestamp {'9' * 5000} exceeds 2**63 - 1", id="ts-5000"),
        pytest.param("5\tA\tB\tP\t" + "9" * 5000, f"length {'9' * 5000} exceeds 2**63 - 1", id="len-5000"),
        pytest.param("5\tA\tB\tP\t-00" + "9" * 5000, f"negative length -{'9' * 5000}", id="neg-5000"),
    ],
)
def test_parse_rejects_values_beyond_int64(line, message):
    with pytest.raises(TraceParseError) as info:
        parse_trace(io.StringIO(f"0\tA\tB\n{line}\n"))
    assert info.value.line == 2
    assert str(info.value) == f"line 2: {message}"


def test_parse_accepts_int64_max():
    t = parse_trace(io.StringIO(f"{2**63 - 1}\tA\tB\tP\t{2**63 - 1}\n"))
    assert t.timestamps[0] == t.length[0] == 2**63 - 1


def _capture_lines(n: int) -> list[str]:
    return [
        f"{1000 + 7 * i}\t{i * 7919 % 500:04x}-s\t{i * 104729 % 3000:04x}-d\tlat\t{60 + i % 1400}\n"
        for i in range(n)
    ]


def test_parse_memory_is_bounded():
    # Retained: about 28 bytes of columns per frame plus the intern table.
    # Transient: one block of line strings and the arrays over it, whatever
    # the trace length: at most 10 bytes per byte of a block's text.  Two
    # lengths' transients differ by up to the 1/16 by which an `array`
    # column grows, as the block at the peak may or may not grow one.
    block = len("".join(_capture_lines(trace_module._CHUNK_LINES)).encode())
    for n in (50_000, 200_000):
        lines = _capture_lines(n)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = parse_trace(lines)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(t) == n
        assert (retained - base) / n <= 48
        assert peak - retained <= 10 * block


def _fresh_lines(n: int) -> list[str]:
    """Capture-shaped lines whose every destination is new."""
    return [
        f"{1000 + 7 * i}\t{i * 7919 % 500:04x}-s\t{i:06x}-dst\tlat\t{60 + i % 1400}\n"
        for i in range(n)
    ]


def test_read_trace_memory_is_bounded(tmp_path):
    # Transient: one chunk of the file and the arrays over it, whatever the
    # file's length, plus the table of known tokens: an id, width, word
    # offset, hash and level entry (28 bytes) and the 8-byte words of each
    # distinct address (two here), with room for the arrays to grow.
    transient = {}
    for shape in (_capture_lines, _fresh_lines):
        for n in (50_000, 200_000):
            path = tmp_path / f"{shape.__name__}{n}.tsv"
            path.write_text("".join(shape(n)), encoding="utf-8")
            gc.collect()
            tracemalloc.start()
            try:
                t = read_trace(path)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(t) == n
            transient[shape, n] = peak - retained, len(t.interns)
            del t
    assert transient[_capture_lines, 200_000][0] < 1.25 * transient[_capture_lines, 50_000][0]
    table, fresh = transient[_fresh_lines, 200_000]
    chunk, known = transient[_capture_lines, 200_000]
    assert (table - chunk) / (fresh - known) <= 64


def _capture_text(size: int, seed: int = 0) -> bytes:
    """At least `size` bytes of LAN-capture-shaped lines: five fields, MAC-style
    tokens of 400 sources and 4,000 destinations, five tags, and a comment
    every 5,000 frames."""
    rng = np.random.default_rng(seed)
    n = size // 50
    macs = [f"{k * 0x5DEECE66D & (1 << 48) - 1:012x}" for k in range(4000)]
    macs = ["-".join(m[i : i + 2] for i in range(0, 12, 2)) for m in macs]
    stamps = (1_000_000 + np.cumsum(rng.integers(0, 4000, n))).tolist()
    src, dst = rng.integers(0, 400, n).tolist(), rng.integers(0, 4000, n).tolist()
    tags, lengths = rng.integers(0, 5, n).tolist(), rng.integers(60, 1515, n).tolist()
    protos = ("lat", "decnet", "ip", "arp", "xns")
    lines = [
        f"{t}\t{macs[s]}\t{macs[d]}\t{protos[p]}\t{length}\n" + ("# segment\n" * (i % 5000 == 0))
        for i, (t, s, d, p, length) in enumerate(zip(stamps, src, dst, tags, lengths))
    ]
    text = "".join(lines).encode()
    assert len(text) >= size
    return text


def _mixed_text(size: int, seed: int = 0) -> bytes:
    """At least `size` bytes of 3-field lines of about 17 bytes, as `addrloc gen`
    writes them: one source token and about 2,000 destinations."""
    rng = np.random.default_rng(seed)
    n = size // 15
    dst = rng.integers(0, 2000, n)
    lines = [f"{i}\tsrc\ts{a % 2}.a{a}\n" for i, a in enumerate(dst.tolist())]
    text = "".join(lines).encode()
    assert len(text) >= size
    return text


def _block_peaks(text: bytes, select: str) -> list[float]:
    """Per full block of `text`, the tracemalloc peak of `_read_block` over the
    memory before it, per block byte.

    The tables are warm, as in a long file's late blocks: the text is read
    once first.  Each block then appends to columns of its own, so the peak
    holds that block's temporaries and its columns, but no growth of
    columns that earlier blocks filled.
    """
    blocks = list(trace_module._file_blocks(io.BytesIO(text)))[:-1]
    warm = trace_module._Columns(select)
    prev_ts = 0
    for data in blocks:
        prev_ts, _ = trace_module._read_block(data, prev_ts, warm)
    peaks = []
    prev_ts = 0
    gc.collect()
    tracemalloc.start()
    try:
        for data in blocks:
            columns = trace_module._Columns(select)
            columns.interns, columns.known_addresses = warm.interns, warm.known_addresses
            columns.protos, columns.known_protos = warm.protos, warm.known_protos
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            prev_ts, lines = trace_module._read_block(data, prev_ts, columns)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / len(data))
            assert lines == data.count(b"\n") - len(trace_module._LEAD) and len(columns.dst)
            del columns
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 2
    return peaks


@pytest.mark.parametrize(
    "shape,select,bound",
    [
        (_mixed_text, "trace", 6.8),
        (_capture_text, "trace", 3.05),
        (_capture_text, "summary", 3.05),
        (_capture_text, "destinations", 2.3),
    ],
    ids=["mixed-full", "capture-full", "capture-summary", "capture-dst"],
)
def test_block_reader_temporaries_are_bounded_per_block_byte(shape, select, bound):
    # At most half of what 128 KiB blocks held per block byte when field
    # offsets were int64, decoding masked the whole block, and timestamps
    # and lengths shared one digit matrix: 13.6, 6.1 and 4.6 bytes.  Its
    # columns are about 28 bytes per frame: 1.6 per block byte for
    # 17-byte lines, 0.5 for capture lines.
    text = shape(3 * trace_module._CHUNK_BYTES)
    assert max(_block_peaks(text, select)) <= bound


def test_capture_blocks_of_any_size_read_alike(tmp_path):
    # The shipped block, the former 128 KiB one and 7-byte reads, which
    # cut every line, give one trace and one dst-only read.
    path = tmp_path / "t.tsv"
    path.write_bytes(_capture_text(2 * trace_module._CHUNK_BYTES + 1))
    reads = []
    for chunk in (trace_module._CHUNK_BYTES, 1 << 17, 7):
        with mock.patch.object(trace_module, "_CHUNK_BYTES", chunk):
            reads.append((read_trace(path), read_trace(path, _select="destinations").tolist()))
    assert reads[0][0] == reads[1][0] == reads[2][0]
    assert reads[0][1] == reads[1][1] == reads[2][1]


# --- trace files: line ends and UTF-8 ----------------------------------------

_LF_TEXT = "# head\n0\tA\tB\n\n5\tB\tC\tLAT\t64\n7\tC\tA\t\t9\n"


def _read_bytes(tmp_path, data: bytes):
    path = tmp_path / "t.tsv"
    path.write_bytes(data)
    return read_trace(path)


def _read_error(tmp_path, data: bytes) -> TraceParseError:
    with pytest.raises(TraceParseError) as info:
        _read_bytes(tmp_path, data)
    return info.value


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_read_trace_takes_crlf_and_lone_cr_line_ends(tmp_path, end):
    expected = parse_trace(io.StringIO(_LF_TEXT))
    assert _read_bytes(tmp_path, _LF_TEXT.replace("\n", end).encode()) == expected
    # Every CR, CRLF and LF ends one line; "\n\r" is two line ends.
    error = _read_error(tmp_path, f"0\tA\tB{end}1\tA\tB\n\r2\tA{end}".encode())
    assert (error.line, str(error)) == (4, "line 4: expected 3 to 5 tab-separated fields, got 2")


@pytest.mark.parametrize("chunk", range(1, 13))
def test_read_trace_joins_a_crlf_split_by_a_read(tmp_path, chunk):
    # With reads of 1 to 12 bytes, each CRLF below straddles some read boundary.
    data = _LF_TEXT.replace("\n", "\r\n").encode()
    with mock.patch.object(trace_module, "_CHUNK_BYTES", chunk):
        assert _read_bytes(tmp_path, data) == parse_trace(io.StringIO(_LF_TEXT))
        error = _read_error(tmp_path, data + b"8\tA\r\n")
    assert error.line == 6


@pytest.mark.parametrize(
    "data,line,message",
    [
        (b"0\tA\tB\n# caf\xe9\n1\tB\tA\n", 2, "not UTF-8: byte 0xe9 at column 6"),
        (b"0\t\xc3\xa9\tB\r\n1\t\xc3\xa9\t\xe2\x82\n", 2, "not UTF-8: byte 0xe2 at column 5"),
        (b"0\tA\tB\r1\tA\tB\r\n2\tA\t\xffB\n", 3, "not UTF-8: byte 0xff at column 5"),
        (b"0\tA\tB\xc3", 1, "not UTF-8: byte 0xc3 at column 6"),
    ],
    ids=["comment", "multibyte-before", "cr-lines", "truncated-at-end"],
)
def test_read_trace_names_the_first_non_utf8_byte(tmp_path, data, line, message):
    error = _read_error(tmp_path, data)
    assert type(error) is TraceParseError
    assert (error.line, str(error)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("chunk", [3, trace_module._CHUNK_BYTES])
def test_read_trace_names_a_bad_line_before_a_non_utf8_byte(tmp_path, chunk):
    # The first bad line gives the error, whichever chunk holds the byte.
    with mock.patch.object(trace_module, "_CHUNK_BYTES", chunk):
        error = _read_error(tmp_path, b"0\tA\tB\nbad\n2\tA\t\xffB\n")
    assert (error.line, str(error)) == (2, "line 2: expected 3 to 5 tab-separated fields, got 1")


def test_read_trace_names_a_non_utf8_token_in_a_late_block(tmp_path):
    head = "".join(_capture_lines(20_000)).encode()
    error = _read_error(tmp_path, head + b"2000000\t\xc3\xa9a\tb\xf0\x9f\x98x\n")
    assert (error.line, str(error)) == (20_001, "line 20001: not UTF-8: byte 0xf0 at column 13")


def _outcome(read, select: str):
    """What `read` gives: the frames and tokens, the dst ids, or the error's kind, line and text."""
    try:
        got = read(_select=select)
    except TraceParseError as exc:
        return type(exc), exc.line, str(exc)
    return got.tolist() if select == "destinations" else (list(rows(got)), got.interns.tokens)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_trace_lines(), st.sampled_from([1, 2, 3, 2048]), st.data())
def test_str_lines_parse_as_the_file_holding_their_text(tmp_path, lines, block_lines, data):
    if lines and data.draw(st.booleans()):  # a lone surrogate, which no UTF-8 text holds
        at = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + "\ud800" + lines[at][cut:]
    path = tmp_path / "t.tsv"
    path.write_bytes("".join(lines).encode("utf-8", "surrogatepass"))
    for select in ("trace", "destinations"):
        with mock.patch.object(trace_module, "_CHUNK_LINES", block_lines):
            got = _outcome(partial(parse_trace, lines), select)
        assert got == _outcome(partial(read_trace, path), select)


def test_str_lines_name_the_line_of_a_lone_surrogate():
    with pytest.raises(TraceParseError) as info:
        parse_trace(["0\tA\tB\r\n", "1\tA\t\udc80B\n"])
    assert str(info.value) == "line 2: not UTF-8: byte 0xed at column 5"


def test_str_lines_all_empty_in_a_block_do_not_end_the_input():
    lines = ["0\tA\tB\n", "", "", "", "", "1\tB\tC\n"]
    with mock.patch.object(trace_module, "_CHUNK_LINES", 2):
        assert parse_trace(lines).dst.tolist() == [1, 2]


# --- the block reader --------------------------------------------------------

# Characters of 1 to 4 UTF-8 bytes, NUL and space among them, so tokens
# cross 8-byte words at every offset.
_token_chars = st.sampled_from(["a", "b", "-", ":", " ", "#", "7", "\x00", "\x7f", "é", "€", "𝄞"])
_wide_token = st.text(_token_chars, min_size=1, max_size=40).filter(lambda t: len(t.encode()) <= 40)


@st.composite
def _token_pool(draw) -> list[str]:
    """Tokens of 1 to 40 bytes, with siblings that differ only in their last byte."""
    pool = draw(st.lists(_wide_token, min_size=1, max_size=8))
    for stem in draw(st.lists(st.text(_token_chars, max_size=39), max_size=3)):
        pool += [stem + last for last in "ab`" if len(stem.encode()) < 40]
    return pool


@st.composite
def _plain_lines(draw) -> list[str]:
    """Well-formed lines: plain-digit numbers, some with leading zeros, lengths
    up to 2**63 - 1, mixed 3/4/5-field frames, empty proto fields, and
    comment and blank lines between them."""
    pool = draw(_token_pool())
    tokens = st.sampled_from(pool)
    lines = []
    ts = draw(st.integers(0, 10**15))  # below 10**16 throughout: 18 digits with two leading zeros
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["frame"] * 5 + ["comment", "blank"]))
        if kind == "comment":
            line = "#" + draw(st.text(_token_chars, max_size=10)) + draw(st.sampled_from(["", "\t", "\tx\ty"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t\x0b\x0c"]))
        else:
            ts += draw(st.sampled_from([0, 1, 7, 10**9]))
            fields = [draw(st.sampled_from(["", "0", "00"])) + str(ts), draw(tokens), draw(tokens)]
            width = draw(st.integers(3, 5))
            if width >= 4:
                fields.append(draw(st.one_of(st.just(""), tokens)))
            if width == 5:
                length = str(draw(st.integers(0, _INT64_MAX)))
                fields.append(draw(st.sampled_from(["", "0", "00"]))[: 19 - len(length)] + length)
            line = "\t".join(fields)
        lines.append(line + "\n")
    return lines


def _per_line_calls(lines: list[str], **patches) -> int:
    """Parse `lines`, checking them against the oracle; return how many blocks
    the block reader refused and `_first_bad_line` read."""
    calls = []
    first_bad_line = trace_module._first_bad_line

    def counting(*args):
        calls.append(args[1])
        return first_bad_line(*args)

    with mock.patch.multiple(trace_module, _first_bad_line=counting, **patches):
        try:
            parse_trace(lines)
        except TraceParseError:
            pass
        taken = len(calls)
        _assert_parses_like_oracle(lines)
    return taken


@settings(max_examples=300, deadline=None)
@given(_plain_lines(), st.sampled_from([1, 2, 3, 5, 4096]))
def test_block_reader_matches_line_parser(lines, block_lines):
    assert _per_line_calls(lines, _CHUNK_LINES=block_lines) == 0


# Well-formed lines at the edges of the grammar: 19-digit numbers of value
# 2**63 - 1, and a skipped line of only " \t\v\f".
_EDGE_LINES = [f"{_INT64_MAX}\tlast\tA\tlat\t{_INT64_MAX}\n", " \t\x0b\x0c\n"]


@settings(max_examples=100, deadline=None)
@given(_plain_lines(), st.sampled_from([2, 5, 4096]), st.sampled_from([7, 64, trace_module._CHUNK_BYTES]))
def test_hash_collisions_stay_in_the_block_reader(lines, block_lines, chunk):
    # Every token hashes alike, so any block with two distinct tokens of a
    # kind collides; no block may reach `_first_bad_line`, the full read must
    # still parse as the oracle does, and the summary, destinations and split
    # reads as they do with the real hash.
    lines = [*lines, *_EDGE_LINES]
    assert _per_line_calls(lines, _CHUNK_LINES=block_lines, _hash=_constant_hash) == 0
    data = "".join(lines).encode()
    refuse = mock.Mock(side_effect=AssertionError)
    with mock.patch.multiple(trace_module, _first_bad_line=refuse, _CHUNK_BYTES=chunk):
        want = _every_read(data, "lat")
        with mock.patch.object(trace_module, "_hash", _constant_hash):
            assert _every_read(data, "lat") == want


@pytest.mark.parametrize(
    "src,dst",
    [("A", "B"), ("a", "a\x00"), ("a\x00", "a\x00\x00"), ("12345678x", "12345678y"), ("€", "€\x00")],
)
def test_forced_collision_stays_in_the_block_reader(src, dst):
    # Equal words with different widths, or different last words, must not merge.
    constant = lambda widths, pairs: np.zeros(len(widths), np.uint64)  # noqa: E731
    lines = [f"1\t{src}\t{dst}\tlat\t60\n", f"2\t{dst}\t{src}\tlat\t61\n"]
    assert _per_line_calls(lines, _hash=constant) == 0


@pytest.mark.parametrize(
    "lines",
    [
        _capture_lines(5_000) + ["# segment 1\n"] + _capture_lines(10_000)[5_000:],
        [f"{i}\tsrc\ts{i % 2}.a{i * 31 % 2000}\n" for i in range(10_000)],
        _capture_lines(5_000) + [f"{40_000 + i}\ts0.a{i % 9}\ts1.a{i % 7}\n" for i in range(5_000)],
    ],
    ids=["capture", "mixed", "both"],
)
def test_benchmark_shaped_lines_take_the_block_reader(lines):
    assert _per_line_calls(lines) == 0


@pytest.mark.parametrize(
    "text,refused",
    [
        ("0\tA\r\tB\n", 1),          # a carriage return ends a line of two fields
        (" 5\tA\tB\n", 1),            # a line not starting with a digit, '#' or its line break
        ("+5\tA\tB\n", 1),
        ("1_0\tA\tB\n", 1),
        (f"{10**18}\tA\tB\n", 0),     # 19 digits
        ("5\tA\tB\tP\t0x10\n", 1),
    ],
)
def test_only_blocks_outside_the_format_reach_the_error_path(text, refused):
    assert _per_line_calls([text]) == refused


def test_a_last_line_without_a_line_break_takes_the_block_reader():
    # str lines end as a file does: the last line gets its line break.
    assert _per_line_calls(["0\tA\tB"]) == 0
    assert _per_line_calls(["0\tA\tB\n", "1\tB\tA"], _CHUNK_LINES=1) == 0


def test_a_tokens_width_does_not_cancel_its_first_byte():
    # Width 2 and "b\0" against width 1 and "a": 2 ^ 0x62 == 1 ^ 0x61, so
    # a hash that XORs the width into the first word made these collide.
    assert _per_line_calls(["0\tb\x00\ta\n", "1\tc\x00\t`\n"]) == 0


@pytest.mark.parametrize("end", ["\r\n", "\r\r\n"])
def test_str_lines_ending_in_carriage_returns_take_the_block_reader(end):
    lines = [f"{i}\ts{i % 3}\td{i % 5}{end}" for i in range(50)] + ["#\r\n", end]
    assert _per_line_calls(lines, _CHUNK_LINES=7) == 0


@pytest.mark.parametrize("first_tagged_block", [1, 3])
def test_untagged_blocks_before_the_first_proto_skip_the_proto_table(first_tagged_block):
    # Blocks of 4 lines: the untagged ones before and after the one tagged
    # block send nothing to the proto table, and the first proto, found in
    # a later block, gets the codes the line parser gives.
    untagged = [f"{i}\ts{i % 3}\td{i % 5}\n" for i in range(4 * first_tagged_block)]
    tagged = [f"{100 + i}\ts{i}\td{i}\t{proto}\t60\n" for i, proto in enumerate(["lat", "", "ip", "lat"])]
    lines = untagged + tagged + [f"{200 + i}\ts{i}\td{i}\n" for i in range(4)]
    proto_calls = []
    ids_of = trace_module._Known.ids_of

    def counting(self, *args):
        proto_calls.append("" in self.interns)  # only the proto table holds ""
        return ids_of(self, *args)

    with mock.patch.object(trace_module, "_CHUNK_LINES", 4):
        with mock.patch.object(trace_module._Known, "ids_of", counting):
            t = parse_trace(lines)
    assert proto_calls.count(True) == 1
    assert t.protos == (None, "lat", "ip")
    assert t.proto.tolist()[4 * first_tagged_block :][:4] == [1, 0, 2, 1]
    assert _per_line_calls(lines, _CHUNK_LINES=4) == 0


@pytest.mark.parametrize("spelling", sorted(BAD_SPELLINGS))
@pytest.mark.parametrize("field", ["timestamp", "length"])
def test_int_spellings_outside_the_format_name_their_line_and_field(tmp_path, spelling, field):
    bad = BAD_SPELLINGS[spelling]("12" if field == "timestamp" else "7")
    line = f"{bad}\tA\tB\n" if field == "timestamp" else f"12\tA\tB\tP\t{bad}\n"
    path = tmp_path / "t.tsv"
    path.write_text(f"0\tA\tB\n{line}", encoding="utf-8")
    for read in (partial(read_trace, path), partial(parse_trace, ["0\tA\tB\n", line])):
        for select in ("trace", "summary", "destinations"):
            with pytest.raises(TraceParseError) as info:
                read(_select=select)
            assert str(info.value) == f"line 2: bad {field} {bad!r}"


def test_a_line_of_only_a_no_break_space_is_not_blank():
    with pytest.raises(TraceParseError) as info:
        parse_trace(["0\tA\tB\n", "\xa0\n", "1\tA\tB\n"])
    assert str(info.value) == "line 2: expected 3 to 5 tab-separated fields, got 1"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcdef"), max_size=6),
    st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=10), max_size=5),
)
def test_intern_all_matches_one_at_a_time_interning(known, blocks):
    table, oracle = InternTable(known), InternTable(known)
    for block in blocks:
        ids = table.intern_all(block)
        assert ids.dtype == np.int32
        assert ids.tolist() == [oracle.intern(token) for token in block]
        assert table.tokens == oracle.tokens
    assert table == oracle and all(token in table for token in oracle.tokens)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcdef"), max_size=6),
    st.lists(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=6), max_size=5),
    st.randoms(use_true_random=False),
)
def test_intern_all_numbers_repeated_new_tokens_as_one_at_a_time(known, blocks, rnd):
    # Every new token of a block appears in it two or three times, in any order.
    table, oracle = InternTable(known), InternTable(known)
    for block in blocks:
        block = block * 2 + block[: rnd.randint(0, len(block))]
        rnd.shuffle(block)
        assert table.intern_all(block).tolist() == [oracle.intern(token) for token in block]
        assert table.tokens == oracle.tokens and table == oracle
    assert all(token in table for token in oracle.tokens)


# --- the file reader ---------------------------------------------------------

@st.composite
def _file_bytes(draw) -> bytes:
    """A trace file: LF, CRLF or lone CR line ends, multi-byte tokens, a token
    first seen on the last frame line, and maybe no line break at the end."""
    lines = draw(st.one_of(_plain_lines(), _trace_lines()))
    lines.append(f"{10**16}\tlate-€\tA\n")
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line.removesuffix("\n") + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


def _assert_reads_like_oracle(path) -> None:
    with open(path, encoding="utf-8") as f:
        try:
            expected = parse_trace_by_line(f)
        except TraceParseError as exc:
            with pytest.raises(type(exc)) as info:
                read_trace(path)
            assert (info.value.line, str(info.value)) == (exc.line, str(exc))
            return
    t = read_trace(path)
    assert (list(rows(t)), t.interns.tokens) == (expected[0], expected[1])


_constant_hash = lambda widths, pairs: np.zeros(len(widths), np.uint64)  # noqa: E731


@pytest.mark.parametrize("hash_", [trace_module._hash, _constant_hash], ids=["hash", "collide"])
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_file_bytes(), st.integers(1, 64))
def test_read_trace_matches_line_parser(tmp_path, hash_, data, chunk):
    # Reads of 1 to 64 bytes cut multi-byte characters and CRLFs, and put
    # tokens seen in one block into later ones.  With every hash alike,
    # each token found in the table must be told apart by its width and
    # words.
    path = tmp_path / "t.tsv"
    path.write_bytes(data)
    with mock.patch.multiple(trace_module, _CHUNK_BYTES=chunk, _hash=hash_):
        _assert_reads_like_oracle(path)


@pytest.mark.parametrize(
    "tokens",
    [("A", "B"), ("a", "a\x00"), ("ab", "ba"), ("12345678x", "12345678y"), ("é", "a\x00")],
)
def test_colliding_tokens_of_later_blocks_keep_their_ids(tmp_path, tokens):
    # One token per block: each block takes the block reader, and every
    # later token's hash is the first one's.
    lines = [f"{i}\t{tokens[i % 2]}\t{tokens[i % 2]}\n" for i in range(6)]
    path = tmp_path / "t.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    patches = dict(_CHUNK_BYTES=len(lines[0].encode()), _hash=_constant_hash)
    refuse = mock.Mock(side_effect=AssertionError)
    with mock.patch.multiple(trace_module, _first_bad_line=refuse, **patches):
        t = read_trace(path)
    assert t.interns.tokens == tokens and t.dst.tolist() == [0, 1, 0, 1, 0, 1]


def _every_read(data: bytes, proto: str) -> tuple:
    """The full, summary and destinations reads of `data` and its split by
    `proto`, as values that compare."""
    t = parse_trace(io.BytesIO(data))
    summary = parse_trace(io.BytesIO(data), _select="summary")
    dst = parse_trace(io.BytesIO(data), _select="destinations")
    sides = io.StringIO(), io.StringIO()
    trace_module._split(io.BytesIO(data), proto, *sides)
    return (
        (list(rows(t)), t.interns.tokens),
        (summary.dst.tolist(), summary.span, summary.addresses),
        dst.tolist(),
        (sides[0].getvalue(), sides[1].getvalue()),
    )


@settings(max_examples=40, deadline=None)
@given(_plain_lines(), st.sampled_from([7, 64, trace_module._CHUNK_BYTES]))
def test_int64_offsets_read_every_block_alike(lines, chunk):
    # With int64 field offsets in every block, each read is the default one
    # and no block reaches `_first_bad_line`.  int64 offsets find the known
    # tokens int32 ones find, so as many tokens are decoded.
    data = "".join([*lines, *_EDGE_LINES]).encode()
    decoded = []
    decode = trace_module._decode

    def counting(body, starts, widths):
        decoded.append(len(starts))
        return decode(body, starts, widths)

    refuse = mock.Mock(side_effect=AssertionError)
    patch = dict(_first_bad_line=refuse, _decode=counting, _CHUNK_BYTES=chunk)
    with mock.patch.multiple(trace_module, **patch):
        want, want_decoded = _every_read(data, "lat"), sum(decoded)
        decoded.clear()
        with mock.patch.object(trace_module, "_INT64_OFFSETS", 0):
            assert _every_read(data, "lat") == want
    assert sum(decoded) == want_decoded
    frames, tokens = parse_trace_by_line(io.StringIO(data.decode(), newline=None))
    assert want[0] == (frames, tokens)


# --- destinations only -------------------------------------------------------

# Lines of the plain shape that the block reader must still reject, each
# after its timestamp, which repeats the frame before it: a 19-digit
# length is valid only up to 2**63 - 1.
_PLAIN_BAD_TAILS = [
    "\t\tB", "\tA\t\tP", "\tA", "\tA\tB\tP\t9\tx", "\tA\tB\tP\t", "\tA\tB\tP\t6.5",
    f"\tA\tB\tP\t{2**63}",
]


@st.composite
def _plain_lines_and_a_bad_one(draw) -> list[str]:
    lines = draw(_plain_lines())
    at = draw(st.integers(0, len(lines)))
    stamps = [line.split("\t")[0] for line in lines[:at] if line[:1].isdigit()]
    lines.insert(at, (stamps or ["0"])[-1] + draw(st.sampled_from(_PLAIN_BAD_TAILS)) + "\n")
    return lines


def _renumbered(ids: np.ndarray) -> list[int]:
    """`ids` renumbered by first appearance."""
    first: dict[int, int] = {}
    return [first.setdefault(i, len(first)) for i in ids.tolist()]


def _assert_destinations_match_the_full_read(read) -> None:
    """`read(select)` of the "destinations" and "summary" reads agrees with the
    full read `read("trace")`, or fails with its error class, line and message.

    The destinations read gives the full read's dst ids renumbered by first
    appearance among destinations; the summary read gives its dst ids as
    they are and its `summarize`.
    """
    try:
        t = read("trace")
    except TraceParseError as exc:
        for select in ("destinations", "summary"):
            with pytest.raises(TraceParseError) as info:
                read(select)
            got = info.value
            assert (type(got), got.line, str(got)) == (type(exc), exc.line, str(exc))
        return
    dst, summary = read("destinations"), read("summary")
    for ids in (dst, summary.dst):
        assert ids.dtype == np.int32 and not ids.flags.writeable
    assert dst.tolist() == _renumbered(t.dst)
    assert summary.dst.tolist() == t.dst.tolist() and len(summary) == len(t)
    if len(t):
        assert summary.summary() == summarize(t)
    else:
        with pytest.raises(ValueError, match="^cannot summarize an empty trace$"):
            summary.summary()


@pytest.mark.parametrize("hash_", [trace_module._hash, _constant_hash], ids=["hash", "collide"])
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(_file_bytes(), _plain_lines_and_a_bad_one().map(lambda ls: "".join(ls).encode())),
    st.integers(1, 64),
)
def test_destinations_read_matches_the_full_read(tmp_path, hash_, data, chunk):
    path = tmp_path / "t.tsv"
    path.write_bytes(data)
    with mock.patch.multiple(trace_module, _CHUNK_BYTES=chunk, _hash=hash_):
        _assert_destinations_match_the_full_read(lambda select: read_trace(path, _select=select))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_trace_lines(), _plain_lines(), _plain_lines_and_a_bad_one()),
    st.sampled_from([1, 2, 3, 5, 4096]),
    st.sampled_from([trace_module._hash, _constant_hash]),
)
def test_destinations_read_parse_of_str_lines_matches_the_full_parse(lines, block_lines, hash_):
    with mock.patch.multiple(trace_module, _CHUNK_LINES=block_lines, _hash=hash_):
        _assert_destinations_match_the_full_read(lambda select: parse_trace(lines, _select=select))


@pytest.mark.parametrize("tail", _PLAIN_BAD_TAILS)
def test_destinations_read_rejects_each_bad_field_of_the_plain_shape(tmp_path, tail):
    # The sources repeat where the destinations change, so reading the wrong
    # column gives other ids.
    lines = ["5\tA\tB\tP\t60\n", f"5{tail}\n", "6\tA\tC\n"]
    path = tmp_path / "t.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    _assert_destinations_match_the_full_read(lambda select: read_trace(path, _select=select))
    _assert_destinations_match_the_full_read(lambda select: parse_trace(lines, _select=select))


def test_destinations_read_groups_dst_tokens_alone(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("".join(_capture_lines(5_000)), encoding="utf-8")
    grouped = []
    distinct = trace_module._distinct

    def counted(words, ends, fields):
        grouped.append(len(fields))
        return distinct(words, ends, fields)

    refuse = mock.Mock(side_effect=AssertionError)
    with mock.patch.multiple(trace_module, _distinct=counted, _first_bad_line=refuse):
        dst = read_trace(path, _select="destinations")
    assert sum(grouped) == len(dst) == 5_000
    assert dst.tolist() == _renumbered(read_trace(path).dst)


def test_destinations_read_memory_is_bounded(tmp_path):
    # Retained: the int32 dst ids alone, 4 bytes per frame plus the 1/16
    # by which an `array` grows, and numpy's cache of small freed buffers.
    # The summary read keeps the same ids and three numbers, where a full
    # read keeps 28 bytes per frame.  Transient: one chunk of the file and
    # the arrays over it, whatever the file's length, plus the tables of
    # the distinct tokens interned, which the read drops: each one's str,
    # dict entry and list slot, and its entry in the table of known tokens
    # (about 185 bytes here).
    reads = {
        "destinations": lambda path: (dst := read_trace(path, _select="destinations"), dst),
        "summary": lambda path: (got := read_trace(path, _select="summary"), got.dst),
    }
    inputs = (_capture_lines, 50_000), (_capture_lines, 200_000), (_fresh_lines, 50_000)
    for select, read in reads.items():
        transient = {}
        for shape, n in inputs:
            path = tmp_path / f"{shape.__name__}{n}.tsv"
            path.write_text("".join(shape(n)), encoding="utf-8")
            gc.collect()
            tracemalloc.start()
            try:
                got, dst = read(path)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(got) == len(dst) == n, select
            assert retained <= 4 * n * 17 / 16 + 32_768, select
            tokens = got.addresses if select == "summary" else int(dst.max()) + 1
            transient[shape, n] = peak - retained, tokens
            del got, dst
        assert transient[_capture_lines, 200_000][0] < 1.25 * transient[_capture_lines, 50_000][0]
        table, fresh = transient[_fresh_lines, 50_000]
        chunk, known = transient[_capture_lines, 50_000]
        assert (table - chunk) / (fresh - known) <= 256, select


# --- split and write ---------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "C", "D"]),
            st.sampled_from(["A", "B", "C", "D"]),
            st.sampled_from([None, "lat", "ip", "arp"]),
            st.one_of(st.none(), st.integers(0, 1500)),
        ),
        max_size=30,
    ),
    st.sets(st.sampled_from(["lat", "ip", "arp"])),
)
def test_split_matches_per_frame_split(frames, wanted):
    t = Trace.from_token_rows([(i, *frame) for i, frame in enumerate(frames)])
    got = split_by_protocol(t, wanted.__contains__)
    expected = split_by_protocol_rows(t, wanted.__contains__)
    for side, want in zip(got, expected):
        assert side == want
        assert list(rows(side)) == list(rows(want)) and side.interns == want.interns


@settings(max_examples=100, deadline=None)
@given(_plain_lines(), st.sampled_from([1, 2, 3, 8192]), st.data())
def test_write_of_chosen_frames_equals_writing_their_selection(lines, chunk, data):
    # Windows of 1 to 3 frames put selections across window edges.  A protocol
    # mask and its inverse write the two sides of `split_by_protocol`, so the
    # `split` command and the library split give the same traces.
    t = parse_trace(lines)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))), bool)
    wanted = {tag for tag in t.protos[1:] if data.draw(st.booleans())}
    matching = trace_module._protocol_mask(t, wanted.__contains__)
    matched, rest = split_by_protocol(t, wanted.__contains__)
    for chosen, selection in ((mask, select_rows(t, mask)), (matching, matched), (~matching, rest)):
        got, want = io.StringIO(), io.StringIO()
        with mock.patch.object(trace_module, "_WRITE_CHUNK", chunk):
            write_trace(t, got, frames=chosen)
            write_trace(selection, want)
        assert got.getvalue() == want.getvalue()
        assert parse_trace(io.StringIO(got.getvalue())) == selection


def _row_text(t: Trace, i: int) -> str:
    """Frame i of `t` in the file format, formatted on its own."""
    tag, length = t.protos[t.proto[i]], int(t.length[i])
    fields = [str(t.timestamps[i]), t.token_of(t.src[i]), t.token_of(t.dst[i])]
    if length >= 0:
        fields += [tag or "", str(length)]
    elif tag is not None:
        fields.append(tag)
    return "\t".join(fields) + "\n"


_LENGTHS = {
    "sized": st.integers(0, 2**63 - 1),
    "unsized": st.none(),
    "mixed": st.one_of(st.none(), st.integers(0, 1500)),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_LENGTHS)), st.integers(1, 3), st.data())
def test_write_matches_a_per_row_formatter(lengths, chunk, data):
    # Windows of 1 to 3 frames: every row has a length, none does, or some
    # do, in the whole trace or in the frames a mask picks.
    frames = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "c-0"]),
                st.sampled_from(["A", "B", "d-1"]),
                st.sampled_from([None, "lat", "ip"]),
                _LENGTHS[lengths],
            ),
            max_size=12,
        )
    )
    t = Trace.from_token_rows([(7 * i, *frame) for i, frame in enumerate(frames)])
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))), bool)
    for chosen in (None, mask):
        want = "".join(_row_text(t, i) for i in range(len(t)) if chosen is None or chosen[i])
        got = io.StringIO()
        with mock.patch.object(trace_module, "_WRITE_CHUNK", chunk):
            write_trace(t, got, frames=chosen)
        assert got.getvalue() == want


@pytest.mark.parametrize("chunk", [1, 2, 3, 8192])
def test_write_rejects_a_bad_mask_before_any_text(monkeypatch, chunk):
    monkeypatch.setattr(trace_module, "_WRITE_CHUNK", chunk)
    t = Trace.from_token_rows(
        [(0, "A", "B", "lat"), (1, "A", "C", "ip"), (2, "B", "A"), (3, "A", "B", None, 9),
         (4, "A", "B", "lat", 60)]
    )
    chosen = [True, False, True, False, True]
    buf = io.StringIO()
    # The wrong length as an array or a list, another dtype, another shape, a scalar.
    for frames in (np.ones(4, bool), chosen[:2], np.array(chosen, int), np.array([chosen]), True):
        with pytest.raises(ValueError, match="^frames must be a boolean mask of 5 entries$"):
            write_trace(t, buf, frames=frames)
    assert buf.getvalue() == ""
    # A list of booleans, one per frame, is a mask.
    for frames in (chosen, np.array(chosen)):
        buf = io.StringIO()
        write_trace(t, buf, frames=frames)
        assert buf.getvalue() == "0\tA\tB\tlat\n2\tB\tA\n4\tA\tB\tlat\t60\n"


def _full_split(data: bytes, proto: str) -> tuple[str, str]:
    """The two sides of `split` from the full read and the masked write."""
    t = parse_trace(io.BytesIO(data))
    matching = trace_module._protocol_mask(t, lambda tag: tag == proto)
    sides = io.StringIO(), io.StringIO()
    for side, chosen in zip(sides, (matching, ~matching)):
        write_trace(t, side, frames=chosen)
    return sides[0].getvalue(), sides[1].getvalue()


@pytest.mark.parametrize("hash_", [trace_module._hash, _constant_hash], ids=["hash", "collide"])
@settings(max_examples=100, deadline=None)
@given(
    st.one_of(_file_bytes(), _plain_lines_and_a_bad_one().map(lambda ls: "".join(ls).encode())),
    st.integers(1, 64),
    st.sampled_from([1, 2, 3, 8192]),
    st.data(),
)
def test_streamed_split_matches_the_full_read_and_masked_write(hash_, data, chunk, window, draw):
    # Reads of 1 to 64 bytes put a tag, or a token, first seen in one block
    # into later ones; a tag may be absent, or "", which no frame has.
    tags = {line.split(b"\t")[3].decode() for line in data.splitlines() if line.count(b"\t") >= 3}
    proto = draw.draw(st.sampled_from(sorted(tags | {"", "absent"})))
    patches = dict(_CHUNK_BYTES=chunk, _WRITE_CHUNK=window, _hash=hash_)
    with mock.patch.multiple(trace_module, **patches):
        try:
            want = _full_split(data, proto)
        except TraceParseError as exc:
            with pytest.raises(TraceParseError) as info:
                trace_module._split(io.BytesIO(data), proto, io.StringIO(), io.StringIO())
            got = info.value
            assert (type(got), got.line, str(got)) == (type(exc), exc.line, str(exc))
            return
        sides = io.StringIO(), io.StringIO()
        trace_module._split(io.BytesIO(data), proto, *sides)
    assert (sides[0].getvalue(), sides[1].getvalue()) == want


def test_streamed_split_formats_tags_and_tokens_first_seen_in_later_blocks(monkeypatch):
    # One frame per 16-byte read: the wanted tag and the tokens C and D
    # first appear blocks after the first, as do a table that must grow.
    monkeypatch.setattr(trace_module, "_CHUNK_BYTES", 16)
    frames = [(0, "A", "B", "ip"), (1, "B", "A", ""), (2, "C", "D", "lat"), (3, "A", "D", "lat")]
    frames += [(4 + i, f"s{i}", "B", "ip") for i in range(9)]
    data = "".join("\t".join(map(str, frame)) + "\n" for frame in frames).encode()
    sides = io.StringIO(), io.StringIO()
    trace_module._split(io.BytesIO(data), "lat", *sides)
    assert (sides[0].getvalue(), sides[1].getvalue()) == _full_split(data, "lat")
    assert sides[0].getvalue() == "2\tC\tD\tlat\n3\tA\tD\tlat\n"


def _segments(groups: list[list[str]]) -> tuple[bytes, int]:
    """Each group of lines padded by a comment line to one size, and that size:
    read `_CHUNK_BYTES` of that size at a time, each group is one block."""
    size = max(len("".join(lines).encode()) for lines in groups) + 2
    return "".join(
        "".join(lines) + "#" + "x" * (size - 2 - len("".join(lines).encode())) + "\n"
        for lines in groups
    ).encode(), size


def test_split_copies_the_blocks_it_need_not_format(monkeypatch):
    # Blocks already in `write_trace`'s form are copied, and never reach
    # `_write_rows`, skipped lines dropped; a zero-padded timestamp or
    # length and a 4-field line with an empty proto field are formatted,
    # with the rest of their blocks.  Every hash is alike, so a block with
    # two distinct tags collides, and is copied all the same.
    groups = [  # (lines, whether the block is formatted)
        (["1\tA\tB\tlat\t60\n", "\n", "2\tB\tC\n", "3\tA\tC\tlat\n"], False),
        (["004\tA\tB\tlat\t60\n", "5\tB\tC\n"], True),
        (["6\tC\tA\tip\t0\n", "7\tD\tE\n", "# comment\n"], False),
        (["8\tA\tB\tlat\t060\n", "9\tB\tC\n"], True),
        (["10\tA\tB\t\n", "11\tB\tC\tlat\n"], True),
        (["12\tA\tB\t\t1500\n", "13\tE\tD\n"], False),
        ([" \t\x0b\x0c\n", "14\tA\tB\n", "15\tB\tC\tlat\n"], False),
        (["16\tA\tB\tlat\n", "17\tB\tC\tip\n"], False),
        (["18\tF\tA\tlat\t1\n"], False),
    ]
    data, size = _segments([lines for lines, _ in groups])
    formatted = [int(line.split("\t")[0]) for lines, f in groups if f for line in lines]
    monkeypatch.setattr(trace_module, "_CHUNK_BYTES", size)
    monkeypatch.setattr(trace_module, "_hash", _constant_hash)
    want = {proto: _full_split(data, proto) for proto in ("lat", "ip")}
    written = []
    write_rows = trace_module._write_rows

    def spy(stream, tokens, tags, columns, frames=None):
        written.extend(columns[0][frames].tolist())
        write_rows(stream, tokens, tags, columns, frames)

    monkeypatch.setattr(trace_module, "_write_rows", spy)
    reads = []
    blocks = trace_module._blocks

    def kept_blocks(lines, columns):
        reads.append(columns)
        return blocks(lines, columns)

    monkeypatch.setattr(trace_module, "_blocks", kept_blocks)
    for proto, want_sides in want.items():
        written.clear()
        sides = io.StringIO(), io.StringIO()
        trace_module._split(io.BytesIO(data), proto, *sides)
        assert sorted(written) == formatted
        assert (sides[0].getvalue(), sides[1].getvalue()) == want_sides
    # A formatted block is a trace of its own: the split read interns no address.
    assert [len(columns.interns) for columns in reads] == [0, 0]


def _split_peak(tmp_path, n: int, sources=500, destinations=3000, length="") -> int:
    """The traced peak of the `split` command on `n` capture-shaped frames,
    from `sources` and to `destinations` addresses, `length` the format of
    their lengths."""
    protos = ["lat", "ip", "", "lat", "arp"]
    path = tmp_path / f"t{n}-{sources}-{destinations}.tsv"
    path.write_text(
        "".join(
            f"{1000 + 7 * i}\t{i * 7919 % sources:04x}-s\t{i * 104729 % destinations:04x}-d"
            f"\t{protos[i % 5]}\t{60 + i % 1400:{length}}\n"
            for i in range(n)
        ),
        encoding="utf-8",
    )
    sides = tmp_path / "lat.tsv", tmp_path / "rest.tsv"
    argv = ["split", str(path), "--proto", "lat", "--match-out", str(sides[0]),
            "--rest-out", str(sides[1])]
    assert main(argv) == 0  # numpy's lazily imported helpers load outside the measurement
    status, peak = traced_peak(lambda: main(argv))
    assert status == 0
    assert [len(read_trace(side)) for side in sides] == [2 * n // 5, 3 * n // 5]
    return peak


def test_split_command_holds_no_column_per_frame(tmp_path):
    # `split` parses and writes a block at a time: only the tag table
    # outlives a block, so the peak does not grow with the frames.  The
    # full read held 28 B per frame.
    small, large = 50_000, 200_000
    per_frame = (_split_peak(tmp_path, large) - _split_peak(tmp_path, small)) / (large - small)
    assert per_frame <= 1


def test_split_command_holds_no_address_table(tmp_path):
    # Zero-padded lengths leave no block to copy: each is a trace of its
    # own, with the addresses of its frames alone.  Both traces have as
    # many per block, so ten times the addresses do not grow the peak.
    # Tables kept across blocks held about 180 B per address.
    n = 100_000
    few = _split_peak(tmp_path, n, 10_000, 10_000, "05")
    many = _split_peak(tmp_path, n, n, n, "05")
    assert (many - few) / (2 * n - 20_000) <= 5
