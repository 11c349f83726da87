"""Machine-readable run reports.

Schema (stable field names): "command", "params", "result", "verdict",
"elapsed_ms".  Complex numbers serialize as two-element [re, im] arrays of
decimal strings with the digits a working-precision value carries
(``_digits_for``), rationals as "p/q" strings.
Serialization is deterministic for identical inputs and seed; wall time is
reported only on request, since a varying field would break byte
reproducibility.  The CSV form flattens the JSON document, one row per
scalar; a value holding a comma, a quote, CR or LF is quoted.
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


def _leaf(value, digits):
    """The JSON form of a value json cannot encode itself; json.dumps calls
    it as its ``default`` hook, so dicts, lists and tuples stay json's."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, mp.mpc):
        return [mp.nstr(value.real, digits), mp.nstr(value.imag, digits)]
    if isinstance(value, complex):
        return [repr(value.real), repr(value.imag)]
    raise TypeError(f"cannot serialize {type(value)!r}")


class RunReport(namedtuple("RunReport",
                           "command params result verdict elapsed_ms",
                           defaults=(None, None))):
    __slots__ = ()

    def to_json(self, prec_bits):
        digits = _digits_for(prec_bits)
        return json.dumps(self._asdict(), sort_keys=True, indent=2,
                          default=lambda value: _leaf(value, digits))

    def to_csv(self, prec_bits):
        """One row per scalar of the JSON document, columns (key, value);
        nested keys joined by dots, in the document's sorted order."""
        rows = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{prefix}.{i}", v)
            else:
                rows.append((prefix, "" if value is None else str(value)))

        walk("", json.loads(self.to_json(prec_bits)))
        out = io.StringIO()
        out.write("key,value\n")
        for k, v in rows:
            if any(ch in v for ch in ",\"\r\n"):
                v = '"' + v.replace('"', '""') + '"'
            out.write(f"{k},{v}\n")
        return out.getvalue()
