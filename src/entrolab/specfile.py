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

All ring and map invariants are validated here, with messages anchored to
the offending line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import SpecError
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


@dataclass
class SpecFile:
    """Parsed and validated specification file; ``digest`` is the SHA-256
    of its bytes."""

    variables: tuple[str, ...]
    ideal: tuple[tuple[int, ...], ...] | None
    sequence: tuple[tuple[int, ...], ...] | None
    source_variables: tuple[str, ...] | None
    source_map: tuple[tuple[int, ...], ...] | None
    xi: tuple[tuple[int, ...], ...] | None
    ring: RingSpec
    map: MonomialMap
    digest: str

    def reference_ideal(self) -> MonomialIdeal | None:
        if self.ideal is None:
            return None
        return MonomialIdeal(self.ideal, self.ring.dim_ambient)

    def has_square(self) -> bool:
        return self.source_variables is not None

    def square(self) -> TransferSquare:
        if not self.has_square():
            raise SpecError(
                "transfer square fields (source_variables, source_map, xi) "
                "are missing"
            )
        source_ring = RingSpec.polynomial(
            self.ring.characteristic, len(self.source_variables)
        )
        psi = MonomialMap.from_columns(self.source_map, source_ring)
        return TransferSquare(source_ring, self.ring, self.xi, psi, self.map)


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
    """Read, parse and validate a specification file.  The file is read
    once, so ``digest`` hashes exactly the bytes parsed.

    Raises SpecError with a line-anchored message on any defect, including
    violations of the ring and map invariants.
    """
    try:
        with open(path, "rb") as handle:
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

    line_no, payload = require("characteristic")
    try:
        characteristic = int(payload)
    except ValueError:
        raise SpecError(
            f"line {line_no}: characteristic must be an integer, got "
            f"{payload!r}"
        ) from None
    try:
        check_characteristic(characteristic)
    except ValueError as exc:
        raise SpecError(f"line {line_no}: {exc}") from None

    line_no, payload = require("variables")
    variables = tuple(payload.split())
    if not variables:
        raise SpecError(f"line {line_no}: variables lists no names")
    if len(set(variables)) != len(variables):
        raise SpecError(f"line {line_no}: variable names are not unique")
    dim = len(variables)

    def vectors_of(name: str, expected_dim: int | None = dim):
        if name not in fields:
            return None
        line_no, payload = fields[name]
        vecs = _parse_vectors(payload, line_no, name)
        if expected_dim is not None:
            for v in vecs:
                if len(v) != expected_dim:
                    raise SpecError(
                        f"line {line_no}: {name} vector {list(v)} has "
                        f"{len(v)} entries, expected {expected_dim}"
                    )
        return vecs

    quotient = vectors_of("quotient") or ()
    line_no, payload = require("map")
    map_columns = _parse_vectors(payload, line_no, "map")
    if len(map_columns) != dim:
        raise SpecError(
            f"line {line_no}: map needs {dim} columns, got {len(map_columns)}"
        )
    for v in map_columns:
        if len(v) != dim:
            raise SpecError(
                f"line {line_no}: map column {list(v)} has {len(v)} entries, "
                f"expected {dim}"
            )

    ideal = vectors_of("ideal")
    sequence = vectors_of("sequence")

    quot_line = fields["quotient"][0] if "quotient" in fields else None
    try:
        ring = RingSpec(characteristic, dim, MonomialIdeal(quotient, dim))
    except ValueError as exc:
        anchor = quot_line or fields["characteristic"][0]
        raise SpecError(f"line {anchor}: {exc}") from None

    map_line = fields["map"][0]
    try:
        mono_map = MonomialMap.from_columns(map_columns, ring)
    except ValueError as exc:
        raise SpecError(f"line {map_line}: {exc}") from None

    square_fields = [
        name for name in ("source_variables", "source_map", "xi") if name in fields
    ]
    source_variables = source_map = xi = None
    if square_fields:
        if len(square_fields) != 3:
            raise SpecError(
                "transfer square needs all of source_variables, source_map "
                f"and xi; only {', '.join(square_fields)} present"
            )
        line_no, payload = fields["source_variables"]
        source_variables = tuple(payload.split())
        if not source_variables:
            raise SpecError(f"line {line_no}: source_variables lists no names")
        if len(set(source_variables)) != len(source_variables):
            raise SpecError(
                f"line {line_no}: source variable names are not unique"
            )
        sdim = len(source_variables)
        source_map = vectors_of("source_map", sdim)
        if len(source_map) != sdim:
            raise SpecError(
                f"line {fields['source_map'][0]}: source_map needs {sdim} "
                f"columns, got {len(source_map)}"
            )
        xi = vectors_of("xi", dim)
        if len(xi) != sdim:
            raise SpecError(
                f"line {fields['xi'][0]}: xi needs one image per source "
                f"variable ({sdim}), got {len(xi)}"
            )

    return SpecFile(
        variables=variables,
        ideal=ideal,
        sequence=sequence,
        source_variables=source_variables,
        source_map=source_map,
        xi=xi,
        ring=ring,
        map=mono_map,
        digest="sha256:" + hashlib.sha256(data).hexdigest(),
    )
