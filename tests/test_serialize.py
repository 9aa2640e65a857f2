import time
from fractions import Fraction

import pytest

from edgecone import parse_graph
from edgecone.serialize import (MAX_DECIMAL_EXPONENT, MAX_ECHOED_CHARS,
                                parse_rational_vector, tag_doc)


def test_parse_exact_rationals_and_decimals():
    assert parse_rational_vector("3/2, 0,-1") == (Fraction(3, 2), 0, -1)
    assert parse_rational_vector("0.5,15e-1,2E3") == (
        Fraction(1, 2), Fraction(3, 2), 2000)
    with pytest.raises(ValueError, match="empty"):
        parse_rational_vector("")
    with pytest.raises(ValueError, match="bad rational vector"):
        parse_rational_vector("1,x")


def test_exponents_up_to_the_cap_are_exact():
    big, small = parse_rational_vector(
        f"1e{MAX_DECIMAL_EXPONENT},1e-{MAX_DECIMAL_EXPONENT}")
    assert big == 10 ** MAX_DECIMAL_EXPONENT
    assert small == Fraction(1, 10 ** MAX_DECIMAL_EXPONENT)


@pytest.mark.parametrize("text", [
    "1e100000000", "1,1e-100000000", "2.5E+1_000_000",
    f"1e{MAX_DECIMAL_EXPONENT + 1}", "1e" + "9" * 5000])
def test_huge_exponents_are_rejected_fast(text):
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        parse_rational_vector(text)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("text, position", [
    ("1e" + "9" * 5000, "entry 1 of 1"),
    ("1,2," + "x" * 10_000, "entry 3 of 3"),
    ("0,1/0", "entry 2 of 2"),
    ("1,," + "7" * 5000, "entry 2 of 3"),
    ("9" * 5000, "entry 1 of 1")])
def test_errors_name_the_entry_and_stay_short(text, position):
    with pytest.raises(ValueError, match="bad rational vector") as caught:
        parse_rational_vector(text)
    message = str(caught.value)
    assert position in message
    # the entry and the underlying error are each cut to the cap
    assert len(message) < 3 * MAX_ECHOED_CHARS + 100


def test_tag_doc_raw_and_unknown_tags():
    g = parse_graph("a b")
    assert tag_doc(None, g) == {"kind": "raw"}
    with pytest.raises(TypeError, match=r"^unknown tag \('a',\)$"):
        tag_doc(("a",), g)
