"""Rationals as ints on the south-west path: the integer sweep over QQ
against the field sweep, south-west arrays of Borel conjugates with
non-integral entries, and the int zero and one of QQ."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridorbits import (
    QQ,
    GridShape,
    Matrix,
    assemble_canonical,
    b_reduce,
    borel_act,
    inverse,
    make_point,
    matchings_to_decomposition,
    order_matchings,
    rank,
    sw_array,
)
from gridorbits.exact_linalg import _sweep, solve_unique
from gridorbits.grid_quiver import window_products
from gridorbits.serialize import map_tuple_to_json, scalar_to_str

from reference_sweep import (
    reference_b_reduce,
    reference_inverse,
    reference_rank,
    reference_solve_unique,
    reference_sweep,
)


def outcome(func, *args):
    """The value of func(*args), or the message of the ValueError it raises."""
    try:
        return func(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _fractions(draw, count):
    return [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6))) for _ in range(count)]


@st.composite
def qq_matrices(draw):
    """A rows x cols QQ matrix, 1 <= rows, cols <= 8, with entry
    denominators 1..6: dense, or a product through k < min(rows, cols)
    columns and so rank-deficient, or upper-triangular and sparse."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "deficient", "triangular"]))
    if kind == "deficient":
        k = draw(st.integers(0, min(rows, cols) - 1))
        left = [_fractions(draw, k) for _ in range(rows)]
        right = [_fractions(draw, cols) for _ in range(k)]
        data = [[sum((x * r[j] for x, r in zip(row, right)), Fraction(0)) for j in range(cols)]
                for row in left]
    else:
        data = [_fractions(draw, cols) for _ in range(rows)]
        if kind == "triangular":
            data = [[x if j >= i and draw(st.booleans()) else Fraction(0)
                     for j, x in enumerate(row)] for i, row in enumerate(data)]
    return Matrix(QQ, data)


class TestIntegerSweep:
    @settings(max_examples=150, deadline=None)
    @given(qq_matrices())
    def test_pivots_and_kernels_match_the_field_sweep(self, m):
        assert _sweep(m)[0] == reference_sweep(m)[0]
        assert rank(m) == reference_rank(m)
        assert outcome(b_reduce, m) == outcome(reference_b_reduce, m)
        assert outcome(inverse, m) == outcome(reference_inverse, m)

    @settings(max_examples=150, deadline=None)
    @given(qq_matrices(), st.data())
    def test_solve_unique_matches_the_field_sweep(self, m, data):
        columns = [list(col) for col in zip(*m.data)]
        if data.draw(st.booleans()):  # consistent: the image of a vector
            x = _fractions(data.draw, m.cols)
            target = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m.data]
        else:
            target = _fractions(data.draw, m.rows)
        got = outcome(solve_unique, columns, target)
        assert got == outcome(reference_solve_unique, columns, target, QQ)


def _borel_matrix(size, rng):
    """Invertible upper-triangular matrix whose diagonal entries come from
    {2, 3, -2}, so its inverse has non-integral entries."""
    return Matrix(QQ, [
        [Fraction(rng.choice([2, 3, -2])) if j == i else Fraction(rng.randint(-2, 2)) if j > i
         else Fraction(0) for j in range(size)]
        for i in range(size)
    ])


class TestBorelConjugates:
    def test_arrays_and_integer_window_products(self):
        for n in range(3, 7):
            rng = random.Random(f"borel-conjugates:{n}")
            shape = GridShape(n)
            matchings = order_matchings(shape.size)
            integral_inputs = True
            for _ in range(6):
                dec = matchings_to_decomposition(shape, [rng.choice(matchings) for _ in range(n - 1)])
                canon = assemble_canonical(dec)
                point = borel_act(canon, [_borel_matrix(shape.size, rng) for _ in range(n)])
                integral_inputs &= all(
                    Fraction(x).denominator == 1 for m in point.maps for row in m.data for x in row
                )
                assert sw_array(point) == sw_array(canon)
                for prod in window_products(point).values():
                    assert all(type(x) is int for row in prod.data for x in row)
            assert not integral_inputs  # some point had a non-integral entry


class TestIntZeroAndOne:
    def test_identity_and_zeros_equal_their_fraction_twins(self):
        for n in range(1, 5):
            ident = Matrix(QQ, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
            zeros = Matrix(QQ, [[Fraction(0)] * n for _ in range(n)])
            for got, twin in ((Matrix.identity(QQ, n), ident), (Matrix.zeros(QQ, n), zeros)):
                assert type(got.data[0][0]) is int
                assert got == twin and hash(got) == hash(twin)

    def test_json_text_is_the_same_for_int_and_fraction_entries(self):
        shape = GridShape(3)
        rows = [[[1, 0, 2, 0], [0, -3, 0, 1], [0, 0, 0, 5], [0, 0, 0, 1]],
                [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 7, -1], [0, 0, 0, 0]]]
        as_ints = make_point(shape, [Matrix(QQ, r) for r in rows])
        as_fractions = make_point(shape, rows)  # nested lists are read as Fractions
        assert type(as_fractions.maps[0].data[0][0]) is Fraction
        assert as_ints == as_fractions
        text = json.dumps(map_tuple_to_json(as_ints))
        assert text == json.dumps(map_tuple_to_json(as_fractions))

    def test_an_int_enters_as_itself(self):
        for x in (-3, 0, 1, 12):
            assert type(QQ.from_int(x)) is int and QQ.from_int(x) == Fraction(x)
            assert scalar_to_str(x) == scalar_to_str(Fraction(x)) == str(Fraction(x))
        assert scalar_to_str(Fraction(-6, 4)) == "-3/2"
        with pytest.raises(TypeError):
            QQ.from_int(Fraction(1, 2))  # not an integer: from_fraction embeds it
