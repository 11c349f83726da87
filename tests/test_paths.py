import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polylogvar.errors import PathError
from polylogvar.paths import Arc, LineTo, PathSpec, canonical_loop


def test_canonical_loop_windings():
    l0 = canonical_loop(0)
    l1 = canonical_loop(1)
    assert (l0.winding_number(0), l0.winding_number(1)) == (1, 0)
    assert (l1.winding_number(0), l1.winding_number(1)) == (0, 1)


def test_canonical_loops_are_closed_and_valid():
    for which in (0, 1):
        loop = canonical_loop(which)
        assert loop.closed
        loop.validate()


def test_loop_then_reverse_winds_zero():
    l0 = canonical_loop(0)
    both = l0.then(l0.reversed())
    assert both.closed
    assert (both.winding_number(0), both.winding_number(1)) == (0, 0)


def test_reversed_windings_negate():
    l1 = canonical_loop(1)
    assert l1.reversed().winding_number(1) == -1


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
    for p in (0, 1):
        assert loop.reversed().winding_number(p) == -loop.winding_number(p)


@settings(max_examples=60, deadline=None)
@given(a=closed_loops(), b=closed_loops())
def test_then_adds_windings(a, b):
    both = a.then(b)
    assert both.closed
    for p in (0, 1):
        assert both.winding_number(p) == \
            a.winding_number(p) + b.winding_number(p)


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


def test_json_round_trip():
    loop = canonical_loop(1)
    again = PathSpec.from_json(loop.to_json())
    assert again.base_point == loop.base_point
    assert again.closed
    assert again.winding_number(1) == 1
    assert json.loads(loop.to_json())["segments"][1]["arc"]["sweep"] == pytest.approx(2 * math.pi)


def test_json_malformed():
    with pytest.raises(PathError):
        PathSpec.from_json('{"base": [0.5, 0], "segments": [{"bad": 1}]}')


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
