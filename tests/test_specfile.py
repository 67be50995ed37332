"""Specification file parsing and validation."""

from pathlib import Path

import pytest

from entrolab import MonomialIdeal, NotFiniteLengthError, SpecError
from entrolab.specfile import _parse_vectors, parse_spec


def _write(tmp_path, text, name="ring.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FULL = """\
# a quotient ring with everything attached
characteristic 3
variables X Y
quotient [1,1]
map [3,0] [0,3]
ideal [2,0] [0,2]
sequence [1,0] [0,1]
"""


def test_parse_full(tmp_path):
    spec = parse_spec(_write(tmp_path, FULL))
    assert spec.ring.characteristic == 3
    assert spec.variables == ("X", "Y")
    assert spec.ring.quotient.generators == ((1, 1),)
    assert spec.quotient == ((1, 1),)
    assert spec.map.columns == ((3, 0), (0, 3))
    # the reference ideal is kept as written; minimalized, it is the same
    assert spec.ideal == ((2, 0), (0, 2))
    assert MonomialIdeal(spec.ideal, 2).generators == ((0, 2), (2, 0))
    assert spec.sequence == ((1, 0), (0, 1))
    assert not spec.ring.regular
    assert spec.map.matrix == ((3, 0), (0, 3))
    assert spec.psi is None


def test_tabs_separate_like_spaces(tmp_path):
    # a tab after the field name, or between entries, is whitespace too
    committed = Path(__file__).parent.parent / "specs" / "frobenius_cross.ring"
    text = committed.read_text("utf-8")
    assert " " in text
    spaced = parse_spec(str(committed))
    tabbed = parse_spec(_write(tmp_path, text.replace(" ", "\t")))
    assert (tabbed.ring, tabbed.map, tabbed.sequence) == (
        spaced.ring, spaced.map, spaced.sequence
    )


def test_parse_regular_defaults(tmp_path):
    spec = parse_spec(_write(tmp_path, "characteristic 0\nvariables X\nmap [2]\n"))
    assert spec.ring.regular
    assert spec.quotient == ()
    assert spec.ideal is None
    assert spec.sequence is None


def test_comments_and_blank_lines(tmp_path):
    text = "\n# header\ncharacteristic 0  # inline\n\nvariables X Y\nmap [2,0] [0,3]\n"
    spec = parse_spec(_write(tmp_path, text))
    assert spec.ring.characteristic == 0


@pytest.mark.parametrize(
    "text,needle",
    [
        ("characteristic 0\nvariables X Y\nmap [2,0] [0,0]\n", "map column 2 is zero"),
        ("characteristic 6\nvariables X\nmap [2]\n", "0 or prime"),
        ("characteristic 0\nvariables X X\nmap [2]\n", "not unique"),
        ("characteristic 0\nvariables X\nmap [2] [3]\n", "needs 1 columns"),
        ("characteristic 0\nvariables X Y\nmap [2,0]\n", "needs 2 columns"),
        ("characteristic 0\nvariables X Y\nmap [2] [0,3]\n", "expected 2"),
        ("characteristic 0\nvariables X Y\nmap [2,0] [0,3]\nbogus 1\n", "unknown field"),
        ("characteristic 0\ncharacteristic 0\nvariables X\nmap [2]\n", "duplicate"),
        ("variables X\nmap [2]\n", "missing required field"),
        ("characteristic 0\nvariables X\nmap two\n", "bracketed"),
        ("characteristic 0\nvariables X\nmap [a]\n", "integer list"),
        ("characteristic 0\nvariables X Y\nquotient [0,0]\nmap [2,0] [0,3]\n",
         "quotient generator 1"),
        ("characteristic 0\nvariables X Y\nmap [2,0] [0,3]\nxi [1,0]\n",
         "needs all of"),
        ("characteristic 0\nvariables X Y\nmap [2,0] [0,3]\nideal [-1,0] [0,2]\n",
         r"line 4: ideal vector \[-1, 0\] has a negative entry"),
        ("characteristic 0\nvariables X Y\nmap [2,0] [0,-3]\n",
         r"line 3: map vector \[0, -3\] has a negative entry"),
        ("variables X\nmap [2]\ncharacteristic 3317044064679887385961981\n",
         "line 3: characteristic 3317044064679887385961981 is too large"),
    ],
)
def test_parse_errors(tmp_path, text, needle):
    with pytest.raises(SpecError, match=needle):
        parse_spec(_write(tmp_path, text))


# each payload's vectors, or the exact message, as read on line 7 of a
# quotient field
VECTOR_PAYLOADS = [
    ("", ()),
    (" \t ", ()),
    ("[1][2]", ((1,), (2,))),
    ("[1, 2] [3,4]", ((1, 2), (3, 4))),
    ("[1,\t2]  \t[ 3 , 4 ]", ((1, 2), (3, 4))),
    ("\t[1]\t[2]\t", ((1,), (2,))),
    ("[+1, 2]", ((1, 2),)),
    ("[1_0]", ((10,),)),
    ("two", "expects bracketed integer lists, got 'two'"),
    ("[1,2", "expects bracketed integer lists, got '[1,2'"),
    ("[1,2]]", "expects bracketed integer lists, got ']'"),
    ("[1,2] x", "expects bracketed integer lists, got 'x'"),
    ("x [1,2]", "expects bracketed integer lists, got 'x [1,2]'"),
    ("[1] [2", "expects bracketed integer lists, got '[2'"),
    ("[1]x[2]", "expects bracketed integer lists, got 'x[2]'"),
    ("[1] ] [2]", "expects bracketed integer lists, got '] [2]'"),
    ("[1] [2] [", "expects bracketed integer lists, got '['"),
    ("[]", "has an empty vector"),
    ("[ ]", "has an empty vector"),
    ("[1,,2]", "vector '[1,,2]' is not a comma-separated integer list"),
    ("[a]", "vector '[a]' is not a comma-separated integer list"),
    ("[1,[2]", "vector '[1,[2]' is not a comma-separated integer list"),
    ("[1,2,]", "vector '[1,2,]' is not a comma-separated integer list"),
    ("[1.0]", "vector '[1.0]' is not a comma-separated integer list"),
    ("[a] [", "vector '[a]' is not a comma-separated integer list"),
    ("[1,-2]", "vector [1, -2] has a negative entry"),
]


@pytest.mark.parametrize("payload,expected", VECTOR_PAYLOADS)
def test_vector_payloads(payload, expected):
    if isinstance(expected, tuple):
        assert _parse_vectors(payload, 7, "quotient") == expected
    else:
        with pytest.raises(SpecError) as info:
            _parse_vectors(payload, 7, "quotient")
        assert str(info.value) == f"line 7: quotient {expected}"


def test_each_spec_builds_its_own_maximal_ideal(tmp_path):
    # a ring builds its maximal ideal on each call and keeps none, so two
    # parses of one file share nothing
    path = _write(tmp_path, FULL)
    first, second = parse_spec(path).ring, parse_spec(path).ring
    assert first.maximal_ideal() is not first.maximal_ideal()
    assert first == second
    assert first.maximal_ideal() == second.maximal_ideal()
    assert first.maximal_ideal() is not second.maximal_ideal()
    assert first.maximal_ideal().generators == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "p,prime",
    [
        (10**18 + 3, True),
        (2**61 - 1, True),
        (53, True),
        (561, False),
        (2047, False),
        (1373653, False),
        (25326001, False),
        (3215031751, False),
        (3825123056546413051, False),
    ],
)
def test_characteristic_primality(tmp_path, p, prime):
    # large primes are certified quickly; strong pseudoprimes are rejected.
    # 53, 1373653 and 25326001 have no factor up to 41 and p - 1 divisible
    # by 4, so they run the squaring loop of the Miller-Rabin test
    path = _write(tmp_path, f"variables X\nmap [2]\ncharacteristic {p}\n")
    if prime:
        assert parse_spec(path).ring.characteristic == p
    else:
        with pytest.raises(SpecError, match=r"line 3: .*0 or prime"):
            parse_spec(path)


def test_error_messages_are_line_anchored(tmp_path):
    text = "characteristic 0\nvariables X Y\nmap [2,0] [0,0]\n"
    with pytest.raises(SpecError, match=r"line 3: map column 2 is zero"):
        parse_spec(_write(tmp_path, text))


def test_quotient_well_definedness_checked(tmp_path):
    # X -> X^2, Y -> X^3 does not preserve (XY)
    text = "characteristic 0\nvariables X Y\nquotient [1,1]\nmap [2,0] [3,0]\n"
    with pytest.raises(SpecError, match="line 4: .*not well defined"):
        parse_spec(_write(tmp_path, text))


SQUARE = """\
characteristic 2
variables X Y
map [2,0] [0,2]
source_variables U V
source_map [2,0] [0,2]
xi [1,0] [0,1]
"""


def test_parse_square(tmp_path):
    spec = parse_spec(_write(tmp_path, SQUARE))
    assert spec.psi.ring.dim_ambient == 2
    square = spec.square()
    assert square.source_ring.regular
    assert square.xi_columns == ((1, 0), (0, 1))


# one spec per check, with its full message: the checks of the ring, the
# maps and the vector fields are each made once, at the line at fault
ANCHORED = [
    ("characteristic 2\nvariables X Y\nmap [2,0] [0,2]\n"
     "source_variables U\nsource_map [0]\nxi [1,0]\n",
     "line 5: map column 1 is zero (not a local endomorphism)"),
    ("characteristic 0\nvariables X Y\nquotient [1,1] [0,0]\nmap [2,0] [0,3]\n",
     "line 3: quotient generator 1 found; the quotient must sit inside the "
     "ideal of the variables"),
    ("quotient [1,1]\nvariables X Y\ncharacteristic 4\nmap [2,0] [0,2]\n",
     "line 3: characteristic must be 0 or prime, got 4"),
    ("characteristic two\nvariables X\nmap [2]\n",
     "line 1: characteristic must be an integer, got 'two'"),
    ("characteristic 0\nvariables\nmap [2]\n", "line 2: variables lists no names"),
    ("characteristic 0\nvariables X Y\nmap [2,0]\n",
     "line 3: map needs 2 columns, got 1"),
    ("characteristic 0\nvariables X Y\nmap [2] [0,3]\n",
     "line 3: map vector [2] has 1 entries, expected 2"),
    ("characteristic 0\nvariables X Y\nmap [2,0] [0,3]\nsequence [1,0] [1]\n",
     "line 4: sequence vector [1] has 1 entries, expected 2"),
    (SQUARE.replace("xi [1,0] [0,1]", "xi [1,0]"), "line 6: xi needs 2 columns, got 1"),
    (SQUARE.replace("xi [1,0] [0,1]", "xi [1,0] [1]"),
     "line 6: xi vector [1] has 1 entries, expected 2"),
    (SQUARE.replace("source_map [2,0] [0,2]", "source_map [2,0]"),
     "line 5: source_map needs 2 columns, got 1"),
    (SQUARE.replace("source_variables U V", "source_variables U U"),
     "line 4: source variable names are not unique"),
    (SQUARE.replace("source_variables U V", "source_variables"),
     "line 4: source_variables lists no names"),
    # two defects: the quotient is checked before the map, whatever their lines
    ("characteristic 0\nvariables X Y\nmap [2,0] [0,0]\nquotient [0,1] [0,0]\n",
     "line 4: quotient generator 1 found; the quotient must sit inside the "
     "ideal of the variables"),
]


@pytest.mark.parametrize("text,message", ANCHORED)
def test_each_check_is_anchored_to_its_line(tmp_path, text, message):
    with pytest.raises(SpecError) as info:
        parse_spec(_write(tmp_path, text))
    assert str(info.value) == message


def test_square_joining_map_must_be_finite_length(tmp_path):
    text = (
        "characteristic 2\nvariables X Y\nmap [2,0] [0,2]\n"
        "source_variables U\nsource_map [2]\nxi [1,0]\n"
    )
    spec = parse_spec(_write(tmp_path, text))
    with pytest.raises(NotFiniteLengthError):
        spec.square()
