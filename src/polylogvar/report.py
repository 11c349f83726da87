"""Machine-readable run reports.

Schema (stable field names): "command", "params", "result", "verdict",
"elapsed_ms".  Complex numbers serialize as two-element [re, im] arrays of
decimal strings with the digits a working-precision value carries
(``_digits_for``), rationals as "p/q" strings.
Serialization is deterministic for identical inputs and seed; wall time is
reported only on request, since a varying field would break byte
reproducibility.
"""

import io
import json
import math
from collections import namedtuple
from fractions import Fraction

import mpmath as mp


def _digits_for(prec_bits):
    """floor((prec - 2) log10 2) significant digits: a value good to a
    relative 2^-(prec - 1) then prints within one unit of its last digit."""
    return int((prec_bits - 2) * math.log10(2))


def to_jsonable(value, prec_bits):
    """Recursively convert report payloads to JSON-serializable data."""
    digits = _digits_for(prec_bits)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, mp.mpc):
        return [mp.nstr(value.real, digits), mp.nstr(value.imag, digits)]
    if isinstance(value, complex):
        return [repr(value.real), repr(value.imag)]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v, prec_bits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v, prec_bits) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


class RunReport(namedtuple("RunReport",
                           "command params result verdict elapsed_ms",
                           defaults=(None, None))):
    __slots__ = ()

    def as_dict(self, prec_bits):
        return {
            "command": self.command,
            "params": to_jsonable(self.params, prec_bits),
            "result": to_jsonable(self.result, prec_bits),
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self, prec_bits):
        return json.dumps(self.as_dict(prec_bits), sort_keys=True, indent=2)

    def to_csv(self, prec_bits):
        """One row per scalar, columns (key, value); nested keys joined by dots."""
        rows = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}.{k}" if prefix else str(k), value[k])
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{prefix}.{i}", v)
            else:
                rows.append((prefix, "" if value is None else str(value)))

        walk("", self.as_dict(prec_bits))
        out = io.StringIO()
        out.write("key,value\n")
        for k, v in rows:
            if any(ch in v for ch in ",\"\n"):
                v = '"' + v.replace('"', '""') + '"'
            out.write(f"{k},{v}\n")
        return out.getvalue()
