"""Partitions, hook lengths, symmetric-group characters, dimensions."""
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from haarmoments.partitions import (character, class_size, compose, conjugate,
                                    cycle_type, dim_symmetric, dim_unitary,
                                    dim_unitary_at, hook_lengths, identity,
                                    inverse, partitions_of, schur_expansion)


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


@pytest.mark.parametrize("p,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7),
                                     (6, 11), (7, 15)])
def test_partition_counts(p, count):
    assert len(partitions_of(p)) == count


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()


def test_permutation_helpers():
    assert identity(3) == (0, 1, 2)
    f = (1, 2, 0)
    g = (1, 0, 2)
    # (f∘g)(x) = f[g[x]]
    assert compose(f, g) == (2, 1, 0)
    assert compose(f, inverse(f)) == identity(3)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type(()) == ()


def test_class_sizes_s3_s4():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((2, 2)) == 3
    assert class_size((4,)) == 6
    for p in range(1, 8):
        assert sum(class_size(c) for c in partitions_of(p)) == factorial(p)


def test_hook_lengths():
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert sorted(hook_lengths((3, 2))) == [1, 1, 2, 3, 4]


@pytest.mark.parametrize("shape,dim", [
    ((3,), 1), ((2, 1), 2), ((1, 1, 1), 1),
    ((4,), 1), ((3, 1), 3), ((2, 2), 2), ((2, 1, 1), 3), ((1, 1, 1, 1), 1),
])
def test_dim_symmetric(shape, dim):
    assert dim_symmetric(shape) == dim


S3_TABLE = {
    # classes:        (1,1,1)  (2,1)  (3,)
    (3,):            (1,       1,     1),
    (2, 1):          (2,       0,    -1),
    (1, 1, 1):       (1,      -1,     1),
}

S4_TABLE = {
    # classes:     (1,1,1,1)  (2,1,1)  (2,2)  (3,1)  (4,)
    (4,):            (1,        1,      1,     1,     1),
    (3, 1):          (3,        1,     -1,     0,    -1),
    (2, 2):          (2,        0,      2,    -1,     0),
    (2, 1, 1):       (3,       -1,     -1,     0,     1),
    (1, 1, 1, 1):    (1,       -1,      1,     1,    -1),
}


def test_character_table_s3():
    classes = ((1, 1, 1), (2, 1), (3,))
    for shape, row in S3_TABLE.items():
        assert tuple(character(shape, c) for c in classes) == row


def test_character_table_s4():
    classes = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    for shape, row in S4_TABLE.items():
        assert tuple(character(shape, c) for c in classes) == row


def test_character_orthogonality_p5():
    shapes = partitions_of(5)
    for f in shapes:
        for g in shapes:
            inner = sum(class_size(c) * character(f, c) * character(g, c)
                        for c in shapes)
            assert inner == (factorial(5) if f == g else 0)


def test_character_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="same p"):
        character((2, 1), (2,))


def _fixed_tabloids(nu, ct):
    """Brute force: the nu-tabloids (row of each point) fixed by a
    permutation of cycle type ct."""
    perm, start = [], 0
    for length in ct:
        perm += [start + (k + 1) % length for k in range(length)]
        start += length
    word = [r for r, size in enumerate(nu) for _ in range(size)]
    return sum(all(t[perm[x]] == t[x] for x in range(len(t)))
               for t in set(permutations(word)))


def test_youngs_rule_ties_border_strips_to_horizontal_strips():
    # M^nu has character sum_f K_{f,nu} chi_f: the Kostka numbers from
    # horizontal strips against the characters from border strips
    for p in range(1, 7):
        shapes = partitions_of(p)
        for nu in shapes:
            kostka = schur_expansion("h", nu)
            for ct in shapes:
                assert sum(k * character(f, ct) for f, k in kostka.items()) \
                    == _fixed_tabloids(nu, ct), (nu, ct)


def test_characters_at_p20():
    p = 20
    for f in partitions_of(p):
        assert character(f, (1,) * p) == dim_symmetric(f)
    hooks = {(p - k,) + (1,) * k: (-1) ** k for k in range(p)}
    assert schur_expansion("p", (p,)) == hooks
    assert character((p - 3, 1, 1, 1), (p,)) == -1
    assert character((p - 2, 2), (p,)) == 0


def _border_strips(shape, r):
    """Reference on tuples: (f, sign) for each border strip f/shape of r
    cells.  On the beta-numbers of ``shape`` padded with r zero rows, the
    one of row i moves up by r past those of rows j..i-1, with sign
    (-1)^(i-j)."""
    padded = shape + (0,) * r
    beta = [x - i for i, x in enumerate(padded)]
    taken = set(beta)
    for i, b in enumerate(beta):
        if b + r not in taken:
            j = sum(x > b + r for x in beta)
            f = (padded[:j] + (padded[i] + r - i + j,)
                 + tuple(x + 1 for x in padded[j:i]) + padded[i + 1:])
            yield f[:len(f) - f.count(0)], (-1) ** (i - j)


def _horizontal_strips(shape, r):
    """Reference on tuples: (f, 1) for each horizontal strip f/shape of r
    cells: below the first row, which takes the rest,
    shape[i-1] >= f[i] >= shape[i]."""
    padded = shape + (0,)
    grown = [((), r)]
    for above, row in zip(padded, padded[1:]):
        grown = [(rows + (row + a,), left - a) for rows, left in grown
                 for a in range(min(above - row, left) + 1)]
    for rows, left in grown:
        f = (padded[0] + left,) + rows
        yield f[:len(f) - f.count(0)], 1


@lru_cache(maxsize=None)
def _reference_expansion(kind, parts):
    """schur_expansion by the tuple strips above, largest part last."""
    if not parts:
        return {(): 1}
    strips = _border_strips if kind == "p" else _horizontal_strips
    out = {}
    for g, c in _reference_expansion(kind, parts[1:]).items():
        for f, sign in strips(g, parts[0]):
            out[f] = out.get(f, 0) + sign * c
    return {f: c for f, c in out.items() if c}


def test_schur_expansion_matches_the_tuple_strips():
    for p in range(13):
        for parts in partitions_of(p):
            for kind in "ph":
                assert schur_expansion(kind, parts) \
                    == _reference_expansion(kind, parts), (kind, parts)
    for parts in [(1,) * 20, (20,), (6, 5, 4, 2, 2, 1), (3,) * 4 + (1,) * 8,
                  (1,) * 24, (24,), (7, 5, 3, 3, 2, 1, 1, 1, 1),
                  (2,) * 12]:
        for kind in "ph":
            assert schur_expansion(kind, parts) \
                == _reference_expansion(kind, parts), (kind, parts)


@pytest.mark.parametrize("p", [8, 9, 10])
def test_character_column_orthogonality(p):
    # sum_f chi_f(c) chi_f(c') = z_c [c = c'], z_c = p! / |class of c|
    shapes = partitions_of(p)
    columns = {c: [character(f, c) for f in shapes] for c in shapes}
    for c in shapes:
        for d in shapes:
            inner = sum(x * y for x, y in zip(columns[c], columns[d]))
            assert inner == (factorial(p) // class_size(c) if c == d else 0)


def test_dim_unitary_closed_forms():
    assert str(dim_unitary((1,))) == "(n)/(1)"
    assert str(dim_unitary((2,))) == "(n^2 + n)/(2)"
    assert str(dim_unitary((1, 1))) == "(n^2 - n)/(2)"
    assert dim_unitary((2, 1)).eval_at(3) == 8  # adjoint of U(3)
    assert dim_unitary_at((1, 1), 1) == 0


def _vandermonde(shape, n):
    padded = tuple(shape) + (0,) * (n - len(shape))
    ell = [padded[i] + n - 1 - i for i in range(n)]
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= ell[i] - ell[j]
            den *= j - i
    return Fraction(num, den)


def test_dim_unitary_matches_vandermonde_ratio():
    for p in range(0, 6):
        for shape in partitions_of(p):
            start = max(len(shape), 1)
            for n in range(start, start + 4):
                assert dim_unitary(shape).eval_at(n) == _vandermonde(shape, n)


def test_dim_identity_consistency():
    for p in range(0, 8):
        for shape in partitions_of(p):
            assert character(shape, (1,) * p) == dim_symmetric(shape)
            assert sum(dim_symmetric(f) ** 2
                       for f in partitions_of(p)) == factorial(p)
