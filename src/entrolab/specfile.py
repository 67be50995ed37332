"""Parser for ring specification files.

The format is plain structured text, one named field per line, comments
from '#' to end of line, exponent vectors as bracketed integer lists:

    characteristic 3
    variables X Y
    quotient [1,1]
    map [3,0] [0,3]
    ideal [2,0] [0,3]          # optional reference ideal
    sequence [1,0] [0,1]       # optional Koszul sequence

A transfer square adds a second, regular ring and the joining map:

    source_variables U V
    source_map [2,0] [0,2]
    xi [1,0] [0,1]             # image of each source variable

Every field, the ring, the map, the reference ideal and the source map
are checked here, and each defect's message names its line; the
quotient, the reference ideal and the sequence are also kept as written,
not minimalized.  Only the transfer commands build the square, so only
they check that xi has finite length and that the square commutes
(exit 3).
"""

from __future__ import annotations

import hashlib
from collections import namedtuple

from .errors import HypothesisError, SpecError
from .monomials import MonomialIdeal, RingSpec, check_characteristic
from .endos import MonomialMap, TransferSquare

_FIELDS = (
    "characteristic",
    "variables",
    "quotient",
    "map",
    "ideal",
    "sequence",
    "source_variables",
    "source_map",
    "xi",
)


class SpecFile(
    namedtuple(
        "SpecFile", "variables quotient ideal sequence psi xi ring map digest"
    )
):
    """Parsed and validated specification file.  ``quotient``, ``ideal``
    and ``sequence`` hold their vectors as written, for the oracles to
    count; a missing quotient is (), and ``ideal``, ``sequence``, ``psi``
    and ``xi`` are None when the file leaves them out.  ``psi`` is the
    transfer square's source map and ``digest`` the SHA-256 of the file's
    bytes."""

    __slots__ = ()

    def square(self) -> TransferSquare:
        """The transfer square; xi's finite length is checked here, not at parse."""
        if self.psi is None:
            raise SpecError(
                "transfer square fields (source_variables, source_map, xi) "
                "are missing"
            )
        return TransferSquare(self.psi.ring, self.ring, self.xi, self.psi, self.map)


def _parse_vectors(payload: str, line_no: int, field: str):
    """The vectors of ``payload``, split once at the closing brackets:
    every piece before the last is blanks, "[" and one vector's entries,
    and the last piece is blanks."""
    *heads, tail = payload.split("]")
    vectors = []
    for k, head in enumerate(heads):
        head = head.lstrip()
        if head[:1] != "[":
            tail = "]".join(heads[k:] + [tail])  # the rest of the payload
            break
        body = head[1:]
        if not body.strip():
            raise SpecError(f"line {line_no}: {field} has an empty vector")
        try:
            vec = tuple(map(int, body.split(",")))
        except ValueError:
            raise SpecError(
                f"line {line_no}: {field} vector {'[' + body + ']'!r} is not "
                f"a comma-separated integer list"
            ) from None
        if min(vec) < 0:
            raise SpecError(
                f"line {line_no}: {field} vector {list(vec)} has a negative entry"
            )
        vectors.append(vec)
    if tail.strip():
        raise SpecError(
            f"line {line_no}: {field} expects bracketed integer lists, "
            f"got {tail.strip()!r}"
        )
    return tuple(vectors)


def parse_spec(path: str) -> SpecFile:
    """Read, parse and validate a specification file, read once so that
    ``digest`` hashes exactly the bytes parsed.  Raises SpecError on any
    defect, with the line at fault in the message."""
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
        raw_lines = data.decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None

    fields: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *payload = line.split(maxsplit=1)
        if name not in _FIELDS:
            raise SpecError(f"line {line_no}: unknown field {name!r}")
        if name in fields:
            raise SpecError(f"line {line_no}: duplicate field {name!r}")
        fields[name] = (line_no, payload[0] if payload else "")

    def require(name: str) -> tuple[int, str]:
        if name not in fields:
            raise SpecError(f"missing required field {name!r}")
        return fields[name]

    def names(field: str) -> tuple[str, ...]:
        line_no, payload = require(field)
        found = tuple(payload.split())
        if not found:
            raise SpecError(f"line {line_no}: {field} lists no names")
        if len(set(found)) != len(found):
            singular = field[:-1].replace("_", " ")
            raise SpecError(f"line {line_no}: {singular} names are not unique")
        return found

    def vectors(field: str, dim: int, count: int | None = None):
        """``count`` vectors (if given) of ``dim`` entries, or None if absent."""
        if field not in fields:
            return None
        line_no, payload = fields[field]
        vecs = _parse_vectors(payload, line_no, field)
        if count is not None and len(vecs) != count:
            raise SpecError(
                f"line {line_no}: {field} needs {count} columns, got {len(vecs)}"
            )
        for v in vecs:
            if len(v) != dim:
                raise SpecError(
                    f"line {line_no}: {field} vector {list(v)} has {len(v)} "
                    f"entries, expected {dim}"
                )
        return vecs

    def built(field: str, make, *args):
        """``make(*args)``; a plain ValueError is re-raised at ``field``'s line."""
        try:
            return make(*args)
        except HypothesisError:
            raise
        except ValueError as exc:
            raise SpecError(f"line {fields[field][0]}: {exc}") from None

    line_no, payload = require("characteristic")
    try:
        characteristic = int(payload)
    except ValueError:
        raise SpecError(
            f"line {line_no}: characteristic must be an integer, got {payload!r}"
        ) from None
    built("characteristic", check_characteristic, characteristic)

    variables = names("variables")
    dim = len(variables)
    quotient = vectors("quotient", dim) or ()
    require("map")
    map_columns = vectors("map", dim, dim)
    ideal = vectors("ideal", dim)
    sequence = vectors("sequence", dim)
    # with the characteristic checked, only a quotient generator fails here
    ring = built(
        "quotient", RingSpec, characteristic, dim, MonomialIdeal(quotient, dim)
    )
    mono_map = built("map", MonomialMap.from_columns, map_columns, ring)

    square_fields = [
        name for name in ("source_variables", "source_map", "xi") if name in fields
    ]
    psi = xi = None
    if square_fields:
        if len(square_fields) != 3:
            raise SpecError(
                "transfer square needs all of source_variables, source_map "
                f"and xi; only {', '.join(square_fields)} present"
            )
        sdim = len(names("source_variables"))
        source_map = vectors("source_map", sdim, sdim)
        xi = vectors("xi", dim, sdim)
        source_ring = RingSpec.polynomial(characteristic, sdim)
        psi = built("source_map", MonomialMap.from_columns, source_map, source_ring)

    return SpecFile(
        variables=variables,
        quotient=quotient,
        ideal=ideal,
        sequence=sequence,
        psi=psi,
        xi=xi,
        ring=ring,
        map=mono_map,
        digest="sha256:" + hashlib.sha256(data).hexdigest(),
    )
