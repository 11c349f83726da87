"""Piecewise paths in the twice-punctured plane C \\ {0, 1}.

A path is a base point followed by segments, each either a straight line to
an endpoint or a circular arc (center + signed angular sweep).  Segments are
anchored at the previous endpoint, so continuity holds by construction.  Arcs
stay geometric; transport steps along them on the circle itself.
"""

import json
import math
from dataclasses import dataclass

from .errors import PathError

PUNCTURES = (0.0, 1.0)
DEFAULT_MARGIN = 1e-3
_CLOSE_TOL = 1e-9


@dataclass(frozen=True)
class LineTo:
    end: complex


@dataclass(frozen=True)
class Arc:
    center: complex
    sweep: float  # radians, counterclockwise when positive


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
    if abs(sweep) >= 2 * math.pi:
        return abs(abs(p - center) - r)
    phi = math.atan2(((p - center) / w0).imag, ((p - center) / w0).real)
    lo, hi = min(0.0, sweep), max(0.0, sweep)
    covered = any(lo - 1e-15 <= phi + k * 2 * math.pi <= hi + 1e-15 for k in (-1, 0, 1))
    if covered:
        return abs(abs(p - center) - r)
    end = center + w0 * complex(math.cos(sweep), math.sin(sweep))
    return min(abs(p - start), abs(p - end))


@dataclass(frozen=True)
class PathSpec:
    base_point: complex
    segments: tuple
    closed: bool = False
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise PathError("path needs at least one segment")

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

    def winding_number(self, p):
        """Winding of the path around the point p (path must avoid p)."""
        total = 0.0
        starts, _ = self.segment_starts()
        for start, seg in zip(starts, self.segments):
            total += _sweep_angle(start, seg, p)
        turns = total / (2 * math.pi)
        n = round(turns)
        if abs(turns - n) > 1e-6:
            raise PathError(f"winding number did not converge: {turns}")
        return int(n)

    def describe(self):
        if self.name:
            return self.name
        return f"path(base={self.base_point}, {len(self.segments)} segments)"

    def to_json_dict(self):
        segs = []
        for seg in self.segments:
            if isinstance(seg, LineTo):
                segs.append({"line": [seg.end.real, seg.end.imag]})
            else:
                segs.append({"arc": {"center": [seg.center.real, seg.center.imag],
                                     "sweep": seg.sweep}})
        return {"base": [self.base_point.real, self.base_point.imag],
                "segments": segs, "closed": self.closed}

    @classmethod
    def from_json_dict(cls, d, name=""):
        try:
            base = complex(d["base"][0], d["base"][1])
            segs = []
            for s in d["segments"]:
                if "line" in s:
                    segs.append(LineTo(complex(s["line"][0], s["line"][1])))
                elif "arc" in s:
                    a = s["arc"]
                    segs.append(Arc(complex(a["center"][0], a["center"][1]),
                                    float(a["sweep"])))
                else:
                    raise KeyError("segment must be 'line' or 'arc'")
            return cls(base, tuple(segs), closed=bool(d.get("closed", False)),
                       name=name)
        except (KeyError, IndexError, TypeError) as e:
            raise PathError(f"malformed path JSON: {e}") from e

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text, name=""):
        return cls.from_json_dict(json.loads(text), name=name)


def _segment_end(start, seg):
    if isinstance(seg, LineTo):
        return seg.end
    w0 = start - seg.center
    return seg.center + w0 * complex(math.cos(seg.sweep), math.sin(seg.sweep))


def _sweep_angle(start, seg, p):
    """Continuous change of arg(z - p) along one segment.

    Arcs are pre-split into pieces of sweep <= pi/4; a piece whose chord is
    at most half the distance to p then stays inside a disk avoiding p, so
    the principal argument of the endpoint ratio is the true change.
    """

    def zfun(s):
        if isinstance(seg, LineTo):
            return start + s * (seg.end - start)
        w0 = start - seg.center
        return seg.center + w0 * complex(math.cos(seg.sweep * s),
                                         math.sin(seg.sweep * s))

    def rec(s0, s1, z0, z1, depth):
        if abs(z0 - p) == 0 or abs(z1 - p) == 0:
            raise PathError("path passes through the winding point")
        if abs(z1 - z0) <= 0.5 * abs(z0 - p) or depth > 60:
            q = (z1 - p) / (z0 - p)
            return math.atan2(q.imag, q.real)
        sm = 0.5 * (s0 + s1)
        zm = zfun(sm)
        return rec(s0, sm, z0, zm, depth + 1) + rec(sm, s1, zm, z1, depth + 1)

    pieces = 1
    if isinstance(seg, Arc):
        pieces = max(1, math.ceil(abs(seg.sweep) / (math.pi / 4)))
    total = 0.0
    knots = [i / pieces for i in range(pieces + 1)]
    zs = [zfun(s) for s in knots]
    for i in range(pieces):
        total += rec(knots[i], knots[i + 1], zs[i], zs[i + 1], 0)
    return total


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
