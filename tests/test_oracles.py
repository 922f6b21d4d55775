import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcount.oracles import (
    _CHUNK,
    BitPatternOracle,
    ExplicitSetOracle,
    PrefixOracle,
    marked_indices,
    parse_oracle,
)


def test_explicit_set_normalizes_and_checks_range():
    oracle = ExplicitSetOracle(3, (5, 1, 5, 3))
    assert oracle.indices == (1, 3, 5)
    assert np.flatnonzero(oracle.select(np.arange(8))).tolist() == [1, 3, 5]
    with pytest.raises(ValueError):
        ExplicitSetOracle(2, (4,))


def test_explicit_set_empty_marks_nothing():
    oracle = ExplicitSetOracle(3, ())
    assert not oracle.select(np.arange(8)).any()
    assert marked_indices(oracle).size == 0


def test_bit_pattern_all_ones_mask():
    n = 3
    oracle = BitPatternOracle(n, 0b111)
    assert np.flatnonzero(oracle.select(np.arange(1 << n))).tolist() == [7]


def test_bit_pattern_zero_mask_marks_all():
    oracle = BitPatternOracle(3, 0)
    assert oracle.select(np.arange(8)).all()


def test_bit_pattern_mask_must_fit():
    with pytest.raises(ValueError):
        BitPatternOracle(3, 0b1000)


def test_pattern_marked_count_examples():
    assert BitPatternOracle(12, 0xFFF).count() == 1
    assert BitPatternOracle(12, 0b10101_0001_100).count() == 128  # 5 set bits
    assert BitPatternOracle(12, 0).count() == 4096
    with pytest.raises(ValueError):
        BitPatternOracle(3, 0b1111)


def test_pattern_count_matches_enumeration_random_masks():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        mask = int(rng.integers(0, 1 << n))
        oracle = BitPatternOracle(n, mask)
        assert marked_indices(oracle).size == BitPatternOracle(n, mask).count()


def test_select_agrees_with_scalar_membership():
    rng = np.random.default_rng(9)
    cases = [
        (ExplicitSetOracle(4, (0, 7, 9)), lambda x: x in (0, 7, 9)),
        (BitPatternOracle(4, 0b1010), lambda x: x & 0b1010 == 0b1010),
    ]
    for oracle, marked in cases:
        xs = rng.integers(0, 16, size=50)
        assert np.array_equal(oracle.select(xs), [marked(int(x)) for x in xs])


def test_parse_oracle():
    oracle = parse_oracle("set:3,5,12", 4)
    assert isinstance(oracle, ExplicitSetOracle)
    assert oracle.indices == (3, 5, 12)

    oracle = parse_oracle("mask:0b101100", 6)
    assert isinstance(oracle, BitPatternOracle)
    assert oracle.mask == 0b101100

    assert parse_oracle("mask:0xfff", 12).mask == 0xFFF
    assert parse_oracle("mask:7", 3).mask == 7
    assert parse_oracle("set:", 3).indices == ()

    with pytest.raises(ValueError):
        parse_oracle("clique:3", 3)
    with pytest.raises(ValueError):
        parse_oracle("set3,5", 3)
    with pytest.raises(ValueError):
        parse_oracle("set:99", 3)


def test_width_above_62_bits_is_refused():
    for make in (lambda n: ExplicitSetOracle(n, ()), lambda n: BitPatternOracle(n, 0)):
        assert make(62).n == 62
        with pytest.raises(ValueError, match="62"):
            make(63)


@st.composite
def oracles(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    if draw(st.booleans()):
        return BitPatternOracle(n, draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
    marked = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=64))
    return ExplicitSetOracle(n, tuple(marked))


@given(oracles())
def test_count_and_widening_match_enumeration(oracle):
    once = oracle.widened()
    for current in (oracle, once, once.widened()):
        assert current.count() == marked_indices(current).size
    assert once.n == oracle.n + 1
    if isinstance(oracle, ExplicitSetOracle):
        assert once.indices == oracle.indices
    else:
        top = 1 << oracle.n
        assert np.array_equal(marked_indices(once), marked_indices(oracle) + top)


# (16, _CHUNK + 1) makes marked_indices join marked slices across a block edge.
@pytest.mark.parametrize("n,stop", [(1, 0), (1, 2), (3, 5), (4, 16), (6, 33), (16, _CHUNK + 1)])
def test_prefix_matches_explicit_range(n, stop):
    prefix = PrefixOracle(n, stop)
    explicit = ExplicitSetOracle(n, tuple(range(stop)))
    xs = np.arange(1 << n)
    assert np.array_equal(prefix.select(xs), explicit.select(xs))
    assert np.flatnonzero(prefix.select(xs)).tolist() == list(explicit.indices)
    assert prefix.count() == explicit.count() == marked_indices(prefix).size
    wide = prefix.widened()
    assert wide == PrefixOracle(n + 1, stop)
    assert np.array_equal(marked_indices(wide), marked_indices(explicit.widened()))


def test_prefix_refuses_what_the_explicit_range_refuses():
    with pytest.raises(ValueError) as explicit:
        ExplicitSetOracle(4, tuple(range(17)))
    with pytest.raises(ValueError) as prefix:
        PrefixOracle(4, 17)
    assert str(prefix.value) == str(explicit.value) == "basis index 16 out of range for 4 qubits"
    with pytest.raises(ValueError, match="62"):
        PrefixOracle(63, 1)
    with pytest.raises(ValueError, match="-1"):
        PrefixOracle(3, -1)
