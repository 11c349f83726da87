import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polylogvar.errors import PathError
from polylogvar.paths import Arc, LineTo, PathSpec, canonical_loop

from oracles import ref_loop_word


def _inverse(word):
    return [(p, -sign) for p, sign in reversed(word)]


def _windings(loop):
    """Winding about 0 and about 1: the signed count of each letter."""
    word = ref_loop_word(loop)
    return tuple(sum(sign for q, sign in word if q == p) for p in (0, 1))


def test_canonical_loop_windings():
    l0 = canonical_loop(0)
    l1 = canonical_loop(1)
    assert ref_loop_word(l0) == [(0, 1)] and _windings(l0) == (1, 0)
    assert ref_loop_word(l1) == [(1, 1)] and _windings(l1) == (0, 1)


def test_canonical_loops_are_closed_and_valid():
    for which in (0, 1):
        loop = canonical_loop(which)
        assert loop.closed
        loop.validate()


def test_loop_then_reverse_winds_zero():
    l0 = canonical_loop(0)
    both = l0.then(l0.reversed())
    assert both.closed
    assert ref_loop_word(both) == [(0, 1), (0, -1)]
    assert _windings(both) == (0, 0)


def test_reversed_windings_negate():
    l1 = canonical_loop(1)
    assert ref_loop_word(l1.reversed()) == [(1, -1)]
    assert _windings(l1.reversed()) == (0, -1)


@st.composite
def closed_loops(draw):
    """A canonical loop, or a closed polygon based at 1/2 that keeps the
    margin from both punctures."""
    kind = draw(st.sampled_from(["loop0", "loop1", "polygon"]))
    if kind != "polygon":
        return canonical_loop(int(kind[-1]))
    corners = draw(st.lists(st.builds(complex, st.floats(-1.5, 2.5),
                                      st.floats(-1.5, 1.5)),
                            min_size=2, max_size=5))
    loop = PathSpec(0.5 + 0j, tuple(LineTo(c) for c in corners)
                    + (LineTo(0.5 + 0j),), closed=True)
    try:
        loop.validate()
    except PathError:
        assume(False)
    return loop


@settings(max_examples=60, deadline=None)
@given(loop=closed_loops())
def test_reversed_negates_winding(loop):
    assert ref_loop_word(loop.reversed()) == _inverse(ref_loop_word(loop))


@settings(max_examples=60, deadline=None)
@given(a=closed_loops(), b=closed_loops())
def test_then_adds_windings(a, b):
    both = a.then(b)
    assert both.closed
    assert ref_loop_word(both) == ref_loop_word(a) + ref_loop_word(b)


def test_margin_violation_rejected():
    # straight through the puncture at 1
    path = PathSpec(complex(0.5, 0), (LineTo(complex(1.5, 0)),))
    with pytest.raises(PathError):
        path.validate()


def test_margin_near_miss_rejected():
    path = PathSpec(complex(0.5, 0), (LineTo(complex(1.5, 1e-5)),))
    with pytest.raises(PathError):
        path.validate(margin=1e-3)


def test_arc_margin_distance():
    # arc of radius 1e-4 around the origin violates the default margin
    path = PathSpec(complex(1e-4, 0), (Arc(complex(0, 0), math.pi),))
    with pytest.raises(PathError):
        path.validate()


def test_closed_flag_requires_return():
    path = PathSpec(complex(0.5, 0), (LineTo(complex(0.6, 0)),), closed=True)
    with pytest.raises(PathError):
        path.validate()


def test_json_malformed():
    with pytest.raises(PathError):
        PathSpec.from_json_dict(
            json.loads('{"base": [0.5, 0], "segments": [{"bad": 1}]}'))


@pytest.mark.parametrize("closed", ['"no"', "1", "null"])
def test_json_closed_must_be_a_boolean(closed):
    with pytest.raises(PathError, match="malformed path JSON"):
        PathSpec.from_json_dict(json.loads(
            '{"base": [0.5, 0], "segments": [{"line": [0.6, 0]}], '
            f'"closed": {closed}}}'))


@pytest.mark.parametrize("closed", ["true", "false"])
def test_json_closed_booleans(closed):
    path = PathSpec.from_json_dict(json.loads(
        '{"base": [0.5, 0], "segments": [{"line": [0.5, 0.1]}, '
        f'{{"line": [0.5, 0]}}], "closed": {closed}}}'))
    assert path.closed is (closed == "true") and path.validate()


@pytest.mark.parametrize("bad", [
    dict(base=complex(math.nan, 0)),
    dict(end=complex(0.25, math.inf)),
    dict(center=complex(-math.inf, 0)),
    dict(sweep=math.nan),
])
def test_non_finite_numbers_rejected(bad):
    base = bad.get("base", complex(0.5, 0))
    segs = (LineTo(bad.get("end", complex(0.25, 0))),
            Arc(bad.get("center", 0j), bad.get("sweep", math.pi)))
    with pytest.raises(PathError):
        PathSpec(base, segs)


def test_point_arc_distance():
    # an arc about its own start point is that point
    path = PathSpec(complex(0.5, 0), (Arc(complex(0.5, 0), 1.0),))
    assert path.validate(margin=0.5)


def test_concat_needs_matching_endpoints():
    l0 = canonical_loop(0)
    shifted = PathSpec(complex(0.4, 0), (LineTo(complex(0.3, 0)),))
    with pytest.raises(PathError):
        l0.then(shifted)


def test_endpoint_walk():
    path = PathSpec(complex(0.5, 0),
                    (LineTo(complex(0.5, 0.25)), Arc(complex(0.5, 0), math.pi)))
    end = path.endpoint()
    assert end == pytest.approx(complex(0.5, -0.25))
