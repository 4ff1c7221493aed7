import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isophase.errors import DepthLimitError, InvalidInputError
from isophase.rado import (
    EMPTY_SET,
    HereditarilyFiniteSet,
    ackermann_decode,
    ackermann_encode,
    bit_adjacent,
    extension_witness,
    parse_set_literal,
    random_set,
)
from isophase.rng import Xoshiro256StarStar
from oracles import von_neumann


def test_bit_adjacent_examples():
    assert bit_adjacent(0, 1)
    assert not bit_adjacent(0, 2)
    assert bit_adjacent(5, 2)
    with pytest.raises(InvalidInputError):
        bit_adjacent(3, 3)


def test_encode_examples():
    assert ackermann_encode(EMPTY_SET) == 0
    assert ackermann_encode(HereditarilyFiniteSet([EMPTY_SET])) == 1
    assert ackermann_encode(von_neumann(2)) == 3
    assert ackermann_encode(von_neumann(3)) == 2**0 + 2**1 + 2**3


def test_members_deduplicate_and_order():
    one = HereditarilyFiniteSet([EMPTY_SET])
    s = HereditarilyFiniteSet([one, EMPTY_SET, one])
    assert len(s.members) == 2
    assert [m.code for m in s.members] == [0, 1]


def test_decode_small_values():
    assert ackermann_decode(0) == EMPTY_SET
    assert ackermann_decode(3) == von_neumann(2)
    assert repr(ackermann_decode(3)) == "{{},{{}}}"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**20 - 1))
def test_round_trip_random_naturals(n):
    assert ackermann_encode(ackermann_decode(n)) == n


def test_round_trip_dense_block():
    for n in range(4096):
        assert ackermann_encode(ackermann_decode(n)) == n


def test_round_trip_random_sets():
    stream = Xoshiro256StarStar(100)
    for _ in range(300):
        s = random_set(stream, max_depth=4)
        assert ackermann_decode(ackermann_encode(s)) == s


def test_edge_preservation():
    stream = Xoshiro256StarStar(200)
    interesting = 0
    for _ in range(500):
        a = random_set(stream, max_depth=4)
        b = random_set(stream, max_depth=4)
        if a == b:
            continue
        member = a in b.members or b in a.members
        assert member == bit_adjacent(ackermann_encode(a), ackermann_encode(b))
        interesting += member
    assert interesting > 0


def test_witness_examples():
    assert extension_witness({0, 1}, {2}) == 11
    assert extension_witness(set(), set()) == 1
    z = extension_witness({3, 7}, {0, 5, 9})
    for u in (3, 7):
        assert bit_adjacent(z, u)
    for v in (0, 5, 9):
        assert not bit_adjacent(z, v)


def test_witness_rejects_overlap():
    with pytest.raises(InvalidInputError):
        extension_witness({1, 2}, {2, 3})


def test_witness_property_sweep():
    stream = Xoshiro256StarStar(300)
    for _ in range(1000):
        k = stream.randint_below(8)
        j = stream.randint_below(8)
        chosen = stream.sample_distinct(31, k + j)
        u_set = set(chosen[:k])
        v_set = set(chosen[k:])
        z = extension_witness(u_set, v_set)
        assert all(bit_adjacent(z, u) for u in u_set)
        assert all(not bit_adjacent(z, v) for v in v_set)
        assert z not in u_set | v_set
        if u_set | v_set:
            assert z > max(u_set | v_set)


def test_depth_guard():
    s = EMPTY_SET
    for _ in range(6):
        s = HereditarilyFiniteSet([s])
    assert s.depth == 6
    with pytest.raises(DepthLimitError):
        HereditarilyFiniteSet([s])


def test_parse_set_literal():
    assert parse_set_literal("{}") == EMPTY_SET
    assert parse_set_literal("{{},{{}}}") == von_neumann(2)
    with pytest.raises(InvalidInputError):
        parse_set_literal("{{}")
    with pytest.raises(InvalidInputError):
        parse_set_literal("{}}")
