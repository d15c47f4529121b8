import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_mwm.core import EdgeStream, StreamFormatError, WeightedEdge
from stream_mwm.streamio import parse_stream, serialize_stream


def test_parse_example():
    stream = parse_stream("p mwm 3 2\n0 1 5\n1 2 8\n".splitlines())
    assert stream.n == 3
    assert list(stream.edges) == [WeightedEdge(0, 1, 5), WeightedEdge(1, 2, 8)]


def test_parse_skips_comments_and_blanks():
    text = "c generated fixture\n\np mwm 2 1\nc body comment\n0 1 4\n"
    stream = parse_stream(text.splitlines())
    assert list(stream.edges) == [WeightedEdge(0, 1, 4)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("p mwm 2 1\n0 0 3\n", "self-loop at line 2"),
        ("p mwm 2 1\n0 1 -4\n", "negative weight at line 2"),
        ("p mwm 2 1\n0 5 1\n", "endpoint out of range at line 2"),
        ("p mwm 2 1\n0 1 9223372036854775808\n", "weight exceeds 2\\^63-1 at line 2"),
        ("p mwm 2 1\n0 1\n", "malformed edge line at line 2"),
        ("p mwm 2 1\n0 1 x\n", "malformed edge line at line 2"),
        ("p mwm 2 1\n", "declared 1 edges but found 0"),
        ("p mwm 2 1\n0 1 1\n0 1 2\n", "more than the declared 1 edges at line 3"),
        ("q mwm 2 1\n", "expected header"),
        ("p mwm 2\n", "expected header"),
        ("p mwm x 3\n", "malformed header at line 1"),
        ("p mwm -1 0\n", "negative header counts at line 1"),
        ("", "missing header"),
    ],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(StreamFormatError, match=message):
        parse_stream(text.splitlines())


def test_weight_at_boundary_is_accepted():
    stream = parse_stream(["p mwm 2 1", f"0 1 {2**63 - 1}"])
    assert stream.edges[0].weight == 2**63 - 1


@settings(max_examples=100)
@given(
    n=st.integers(2, 30),
    data=st.data(),
)
def test_serialize_parse_roundtrip(n, data):
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2**63 - 1)
            ).filter(lambda t: t[0] != t[1]),
            max_size=40,
        )
    )
    stream = EdgeStream(n, [WeightedEdge(*t) for t in edges])
    text = serialize_stream(stream)
    parsed = parse_stream(text.splitlines())
    assert parsed.n == stream.n
    assert list(parsed.edges) == list(stream.edges)
    assert serialize_stream(parsed) == text
