"""Piecewise paths in the twice-punctured plane C \\ {0, 1}.

A path is a base point followed by segments, each either a straight line to
an endpoint or a circular arc (center + signed angular sweep).  Segments are
anchored at the previous endpoint, so continuity holds by construction.  Arcs
stay geometric; transport steps along them on the circle itself.
"""

import cmath
import math
from collections import namedtuple

from .errors import PathError

PUNCTURES = (0.0, 1.0)
DEFAULT_MARGIN = 1e-3
_CLOSE_TOL = 1e-9


LineTo = namedtuple("LineTo", "end")
# sweep in radians, counterclockwise when positive
Arc = namedtuple("Arc", "center sweep")


def _line_distance(a, b, p):
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(a - p)
    t = max(0.0, min(1.0, ((p - a) * d.conjugate()).real / L2))
    return abs(a + t * d - p)


def _arc_distance(start, center, sweep, p):
    w0 = start - center
    r = abs(w0)
    if not r or abs(sweep) >= 2 * math.pi:
        return abs(abs(p - center) - r)
    phi = math.atan2(((p - center) / w0).imag, ((p - center) / w0).real)
    lo, hi = min(0.0, sweep), max(0.0, sweep)
    covered = any(lo - 1e-15 <= phi + k * 2 * math.pi <= hi + 1e-15 for k in (-1, 0, 1))
    if covered:
        return abs(abs(p - center) - r)
    end = center + w0 * complex(math.cos(sweep), math.sin(sweep))
    return min(abs(p - start), abs(p - end))


class PathSpec(namedtuple("PathSpec", "base_point segments closed name")):
    __slots__ = ()

    def __new__(cls, base_point, segments, closed=False, name=""):
        self = super().__new__(cls, base_point, tuple(segments), closed, name)
        if not self.segments:
            raise PathError("path needs at least one segment")
        if not all(cmath.isfinite(v) for seg in self.segments
                   for v in (self.base_point, *seg)):
            raise PathError("path points and sweeps must be finite")
        return self

    def segment_starts(self):
        starts = []
        cur = self.base_point
        for seg in self.segments:
            starts.append(cur)
            cur = _segment_end(cur, seg)
        return starts, cur

    def endpoint(self):
        return self.segment_starts()[1]

    def validate(self, margin=DEFAULT_MARGIN):
        """Check the margin invariant against both punctures, and closure."""
        starts, end = self.segment_starts()
        for start, seg in zip(starts, self.segments):
            for p in PUNCTURES:
                if isinstance(seg, LineTo):
                    d = _line_distance(start, seg.end, p)
                else:
                    d = _arc_distance(start, seg.center, seg.sweep, p)
                if d < margin - 1e-12:
                    raise PathError(
                        f"segment comes within {d:.3e} of puncture {p} "
                        f"(margin {margin})")
        if self.closed and abs(end - self.base_point) > _CLOSE_TOL:
            raise PathError("closed path does not return to its base point")
        return True

    def reversed(self):
        starts, end = self.segment_starts()
        segs = []
        for start, seg in zip(reversed(starts), reversed(self.segments)):
            if isinstance(seg, LineTo):
                segs.append(LineTo(start))
            else:
                segs.append(Arc(seg.center, -seg.sweep))
        name = f"reversed({self.name})" if self.name else ""
        return PathSpec(end, tuple(segs), closed=self.closed, name=name)

    def then(self, other):
        """Concatenation; the other path must start at this one's endpoint."""
        end = self.endpoint()
        if abs(other.base_point - end) > _CLOSE_TOL:
            raise PathError("paths are not composable: endpoints differ")
        closed = abs(self.base_point - other.endpoint()) <= _CLOSE_TOL
        return PathSpec(self.base_point, self.segments + other.segments,
                        closed=closed, name="")

    def describe(self):
        if self.name:
            return self.name
        return f"path(base={self.base_point}, {len(self.segments)} segments)"

    @classmethod
    def from_json_dict(cls, d, name=""):
        try:
            base = _point(d["base"])
            segs = []
            for s in d["segments"]:
                if "line" in s:
                    segs.append(LineTo(_point(s["line"])))
                elif "arc" in s:
                    a = s["arc"]
                    segs.append(Arc(_point(a["center"]),
                                    float(_number(a["sweep"]))))
                else:
                    raise KeyError("segment must be 'line' or 'arc'")
            closed = d.get("closed", False)
            if not isinstance(closed, bool):
                raise TypeError(f"'closed' must be true or false, "
                                f"not {closed!r}")
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise PathError(f"malformed path JSON: {e}") from e
        return cls(base, tuple(segs), closed=closed, name=name)


def _number(v):
    # complex() and float() would read JSON true and false as 1 and 0
    if isinstance(v, bool):
        raise TypeError(f"{str(v).lower()} is not a number")
    return v


def _point(xy):
    return complex(_number(xy[0]), _number(xy[1]))


def _segment_end(start, seg):
    if isinstance(seg, LineTo):
        return seg.end
    w0 = start - seg.center
    return seg.center + w0 * complex(math.cos(seg.sweep), math.sin(seg.sweep))


def canonical_loop(which):
    """Closed loop based at 1/2 around puncture 0 or 1: straight toward the
    puncture stopping at distance 1/4, a full counterclockwise circle of
    radius 1/4, and straight back."""
    if which not in (0, 1):
        raise PathError("which must be 0 or 1")
    base = 0.5
    approach = 0.25 if which == 0 else 0.75
    segs = (LineTo(complex(approach, 0.0)),
            Arc(complex(float(which), 0.0), 2 * math.pi),
            LineTo(complex(base, 0.0)))
    return PathSpec(complex(base, 0.0), segs, closed=True, name=f"loop{which}")
