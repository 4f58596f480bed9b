"""check_matched_pair against the dense reference it replaced: full reports
(verdict, violation names, where tuples, defect vectors, order, truncation)
must agree on valid and on invalid data."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpoisson import (
    BilinearOp,
    LinearMap,
    MatchedPairData,
    RelPoissonAlgebra,
    Space,
    check_matched_pair,
    induced_matched_pair,
)

from matched_pair_reference import reference_check_matched_pair

LIMITS = (16, 10**6)

# an all-zero pool yields valid factors and actions; the others mostly not
POOLS = ((0,), (0, 0, 0, 1, -1), (0, 1, -1, 2, -3))


@st.composite
def matched_pair_data(draw):
    def matrices(count, n):
        pool = draw(st.sampled_from(POOLS))
        entry = st.sampled_from(pool)
        return tuple(
            tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)) for _ in range(count)
        )

    def alg(n):
        sp = Space.of_dim(n)
        dot, bracket = BilinearOp(sp, matrices(n, n)), BilinearOp(sp, matrices(n, n))
        return RelPoissonAlgebra(sp, dot, bracket, LinearMap(sp, sp, matrices(1, n)[0]))

    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return MatchedPairData(
        alg(n1), alg(n2), matrices(n1, n2), matrices(n1, n2), matrices(n2, n1), matrices(n2, n1)
    )


@settings(max_examples=150, deadline=None)
@given(data=matched_pair_data())
def test_matches_reference_on_random_pairs(data):
    for limit in LIMITS:
        assert check_matched_pair(data, limit) == reference_check_matched_pair(data, limit)


def _bump(mats, k, r, c):
    out = [list(map(list, m)) for m in mats]
    out[k][r][c] += F(1)
    return tuple(tuple(map(tuple, m)) for m in out)


ACTIONS = (
    "dot_action_on_right",
    "bracket_action_on_right",
    "dot_action_on_left",
    "bracket_action_on_left",
)


@pytest.mark.parametrize("field", (None,) + ACTIONS)
def test_matches_reference_on_worked_pair(worked_bialgebra, field):
    pair = induced_matched_pair(worked_bialgebra)
    if field is not None:
        fields = {name: getattr(pair, name) for name in pair.__dataclass_fields__}
        fields[field] = _bump(fields[field], 1, 2, 3)
        pair = MatchedPairData(**fields)
    for limit in LIMITS:
        report = check_matched_pair(pair, limit)
        assert report == reference_check_matched_pair(pair, limit)
        assert report.ok == (field is None)
