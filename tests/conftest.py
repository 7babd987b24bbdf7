import functools
import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from oracles import matrix_from_text
from wireid.matrices import can_construct

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Symmetric 6x6 worked example with row and column sums (2,6,3,4,5,6),
# realizing a 26-element pair of order 6.
MATRIX_26_TEXT = """\
.1...1
111111
.1..11
.1.111
.11111
111111
"""

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The groupings the worked matrix induces under row-major labeling with
# letters: rows chunk into A-sets, columns into B-sets.
A_SETS_26 = [
    {"a"}, {"b"},
    {"c", "d"}, {"e", "f"}, {"g", "h"},
    {"i", "j", "k"},
    {"l", "m", "n", "o"},
    {"p", "q", "r", "s", "t"},
    {"u", "v", "w", "x", "y", "z"},
]
B_SETS_26 = [
    {"c"}, {"u"},
    {"a", "d"}, {"i", "l"}, {"p", "v"},
    {"e", "q", "w"},
    {"f", "m", "r", "x"},
    {"g", "j", "n", "s", "y"},
    {"b", "h", "k", "o", "t", "z"},
]


def gapfree_sequences(m):
    """All nonincreasing sequences of length m with values in [0, m] whose
    consecutive entries drop by at most 1."""
    out = []

    def extend(seq):
        if len(seq) == m:
            out.append(tuple(seq))
            return
        last = seq[-1]
        for v in ((last, last - 1) if last >= 1 else (0,)):
            extend(seq + [v])

    for start in range(m + 1):
        extend([start])
    return out


@functools.cache
def divisible_gapfree_sums(m):
    """Every length-m sequence with each t_j a multiple of j in [0, m] and a gap-free nonincreasing sort
    (so construct_matrix realizes it and its lines cut whole sets), grouped by total."""
    by_total = {}
    for t in itertools.product(*(range(0, m + 1, j) for j in range(1, m + 1))):
        ordered = sorted(t, reverse=True)
        if can_construct(ordered, ordered):
            by_total.setdefault(sum(t), []).append(t)
    return by_total


# Any JSON value, for fuzzing the document parsers.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=3), children, max_size=5),
    max_leaves=30,
)


def mismatch(text, expected):
    """None if the texts are equal, else where they first differ: pytest's diff of two long texts is quadratic,
    and Hypothesis fails a test many times while it shrinks an example."""
    if text == expected:
        return None
    at = next((i for i, (x, y) in enumerate(zip(text, expected)) if x != y), min(len(text), len(expected)))
    return at, text[at - 20 : at + 20], expected[at - 20 : at + 20]


def swap_first_and_last(groups):
    """Swap one wire between the first (smallest) and last (largest) B-set."""
    first, last = set(groups[0]), set(groups[-1])
    x, y = min(first), min(last)
    first.symmetric_difference_update({x, y})
    last.symmetric_difference_update({x, y})
    return (frozenset(first),) + groups[1:-1] + (frozenset(last),)


def flip_first_cell(construct):
    """Wrap matrices._construct so that its output has cell (1, 1) flipped:
    still symmetric on equal sums, but row 1 and column 1 miss their sums."""
    return _flip_cell(construct, 0, 0)


def flip_off_diagonal_cell(construct):
    """Wrap matrices._construct so that its output has cell (1, 2) flipped:
    no longer symmetric on equal sums (nor realizing them)."""
    return _flip_cell(construct, 0, 1)


def _flip_cell(construct, i, j):
    def flipped(r, c):
        out = construct(r, c)
        out[i][j] ^= 1
        return out
    return flipped


@pytest.fixture
def matrix26():
    return matrix_from_text(MATRIX_26_TEXT)
