"""Shape weights by Young's rule: count tabloids instead of compositions.

The shape weights of <I,J | I,L> are w_f = sum chi_f(S∘Q∘R) over R in S_I
and S in S_J, for any Q with J[Q[a]] == L[a].  The permutation module M^nu
on the nu-tabloids (row assignments of the p points with nu_r points in row
r) has character sum_f K_{f,nu} chi_f (Young's rule; Sagan, *The Symmetric
Group*, §2.11), so

    R_nu = sum_{R,S} fix_nu(S∘Q∘R) = sum_f K_{f,nu} w_f,

fix_nu(g) being the number of nu-tabloids that g fixes.  The S_I-invariants
of the Specht module S^f have dimension K_{f,mu_I}, mu_I the block sizes of
I, so w_f = 0 unless f dominates both mu_I and mu_J.  On that set F the
Kostka matrix is unitriangular in dominance order, and back-substitution in
decreasing lexicographic order gives w_f from the R_nu, nu in F, exactly.
The column K_{.,nu} is the Schur expansion of h_nu
(``partitions.schur_expansion``), the same cached routine that gives the
characters.

The last shape of F, the one every other shape dominates, has the most
tabloids, and it needs none.  The regular character sum_f d_f chi_f(g) is
p! at g = id and 0 elsewhere, so sum_f d_f w_f = p! N_id, N_id the number of
pairs with S∘Q∘R = id.  Such an R sends each point to one whose plain label
pair (I, L) equals the point's conjugated pair (I, J), so N_id = |H|, the
product of the factorials of the pair multiplicities, when the conjugated
and plain pair multisets agree, and 0 otherwise.  The last w_f is what that
sum leaves over d_f.

R_nu itself is a count of tabloids.  Give a tabloid t its table A (points of
each I-block in each row), its table B over the labels J[x] and its table
B_L over the labels L[x].  Then

    R_nu = sum_{A,B} N_conj[A,B] * N_plain[A,B] * prod A! * prod B!,

where N_conj counts tabloids by (A, B) and N_plain by (A, B_L), so no Q is
needed.  Both are found by a dynamic program over the points, sorted by
label pair, that keeps one state per partial pair of tables: tabloids that
agree on the tables so far are counted together.  A pair of tables is one
integer, the A half in its low digits and the B half above.  The states are
grouped by how far each row is filled, so a group looks up its open rows
once and moves all its states into one target group per open row; the first
move into a target is one dict comprehension.

The sum above runs over pairs of tabloids with matching tables, and
permuting rows of equal length in both keeps the match and the weight.  So
the plain side counts only tabloids whose equal rows take their first points
in order, one per orbit, and the sum is multiplied by the orbit size, the
product of the factorials of nu's part multiplicities.  The join walks the
smaller table dict and splits each code into its halves with one divmod;
prod A! and prod B! are cached per half for the call, since a half recurs
with many others.  For nu = (p) there is one tabloid, fixed by every pair,
and R_(p) = |S_I| |S_J| needs no program.

The work grows with the number of nu-tabloids over nu in F but the last,
not with the stabilizers' orders.  ``cost`` estimates it from the block
shapes alone, TABLOID_WEIGHT compositions per tabloid, summed only until it
passes PAIR_CAP, and ``weingarten._shape_weights`` takes this route when it
is the cheaper one.  It hands over the moment's normal form, the
``CanonicalMoment`` that ``queries.canonicalize`` or the record's
constructor built, whose sorted pairs zip(I, J) and zip(I, L) the program
reads as they are: a triple that skipped the form would give wrong
weights.
Everything here is exact integer arithmetic in pure Python.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, pairwise
from math import factorial, prod
from typing import Iterator, Sequence

from .partitions import Partition, dim_symmetric, schur_expansion
from .queries import _counts, _order

# One nu-tabloid of the estimate, in double-coset compositions.  Timed warm
# in one process on a 2-vCPU host, against the tuple loop that enumerates
# every key below _counting._LOOP_MAX, on the batch-heavy and batch-symbolic
# keys (p = 7..9) with 0.07 to 16 tabloids per composition: the routes' time
# ratio was 0.5 to 2.5 times their ratio of tabloids to compositions (3.8 on
# one key of 1,920 compositions), so they broke even at 0.4 to 1.9 tabloids
# per composition.  The 25 batch-heavy keys have at most 0.12, and the
# batch-symbolic keys at least 1.46.  That was measured against the
# per-point program that grouped states replaced; the present kernel's cost
# per tabloid is in BENCH_counting.json (``warm_heavy``, ``us_per_tabloid``),
# and the weight is kept until the estimate counts the program's states.
TABLOID_WEIGHT = 2

# The cap on the cheaper route's work, in compositions, above which
# ``weingarten`` refuses a query; ``cost`` sums only until it passes it.
PAIR_CAP = 10**8


def dominating(a: Partition, b: Partition) -> Iterator[Partition]:
    """The partitions of p that dominate both a and b (partitions of p), in
    decreasing lexicographic order.  They are generated row by row, and a
    row is given up as soon as a prefix sum falls below both bounds."""
    p = sum(a)
    bound = [max(x, y) for x, y in zip(accumulate(a + (0,) * len(b)),
                                        accumulate(b + (0,) * len(a)))]

    def gen(prefix: list[int], total: int, cap: int) -> Iterator[Partition]:
        if total == p:
            yield tuple(prefix)
            return
        need = bound[len(prefix)]
        for part in range(min(cap, p - total), 0, -1):
            if total + part < need:
                break
            prefix.append(part)
            yield from gen(prefix, total + part, part)
            prefix.pop()

    return gen([], 0, p)


@lru_cache(maxsize=4096)
def cost(mu_a: Partition, mu_b: Partition) -> int:
    """TABLOID_WEIGHT times the number of nu-tabloids over the shapes nu
    that dominate both block shapes, but the last: the estimated work of
    this route in compositions.  The sum stops once it passes PAIR_CAP, so
    a result above the cap is a lower bound; it passes the smaller of the
    cap and any composition count exactly when the full sum does, which is
    all the route choice and the refusal need."""
    p = sum(mu_a)
    total = 0
    for nu, _ in pairwise(dominating(mu_a, mu_b)):
        total += TABLOID_WEIGHT * (
            factorial(p) // prod(map(factorial, nu)))
        if total > PAIR_CAP:
            break
    return total


def shape_weights(I: Sequence[int], J: Sequence[int],
                  L: Sequence[int]) -> dict[Partition, int]:
    """The nonzero shape weights {f: w_f} of the normal form <I,J | I,L>
    (a ``queries.CanonicalMoment``): only shapes f that dominate both block
    shapes can have one.  The form numbers rows and columns from 1 and
    sorts both pair lists, zip(I, J) and zip(I, L), and the program reads
    them as they are."""
    conj, plain = list(zip(I, J)), list(zip(I, L))
    *upper, last = dominating(_shape(I), _shape(J))
    out: dict[Partition, int] = {}
    for nu in upper:
        kostka = schur_expansion("h", nu)
        out[nu] = _fixed_tabloids(conj, plain, nu, I[-1]) - sum(
            kostka.get(f, 0) * w for f, w in out.items())
    # the last shape from the regular character: sum_f d_f w_f = p! N_id
    regular = factorial(len(I)) * _order(plain) if plain == conj else 0
    rest = sum(dim_symmetric(f) * w for f, w in out.items())
    out[last] = (regular - rest) // dim_symmetric(last)
    return {f: w for f, w in out.items() if w}


def _shape(values: Sequence[int]) -> Partition:
    """The block sizes of ``values`` as a partition."""
    return tuple(sorted(_counts(values).values(), reverse=True))


def _fixed_tabloids(conj, plain, nu: Partition, a_blocks: int) -> int:
    """R_nu = sum_{A,B} N_conj[A,B] N_plain[A,B] prod A! prod B!, for pairs
    (i, j) with rows i in 1..a_blocks and columns j from 1."""
    if len(nu) == 1:
        # one tabloid, which every pair fixes: R = |S_I| |S_J|
        return prod(map(_order, zip(*conj)))
    base = len(conj) + 1
    by_conj = _table_counts(conj, nu, a_blocks, base, False)
    if plain == conj:
        by_plain, orbit = by_conj, 1
    else:
        # permuting rows of equal length in both tabloids of a matched pair
        # keeps the match and its weight, so the plain side counts one
        # tabloid per orbit, times the orbit's size
        by_plain = _table_counts(plain, nu, a_blocks, base, True)
        orbit = _order(nu)
    if len(by_plain) < len(by_conj):
        by_conj, by_plain = by_plain, by_conj
    # prod digit! per table half, cached: an A half recurs with many B
    # halves and a B half with many A halves
    split = base ** (a_blocks * len(nu))
    halves: dict[int, int] = {}

    def weight(table: int) -> int:
        w, code = 1, table
        while code:
            code, digit = divmod(code, base)
            if digit > 1:
                w *= factorial(digit)
        halves[table] = w
        return w

    total = 0
    cached = halves.get
    get = by_plain.get
    for code, c in by_conj.items():
        d = get(code)
        if d:
            b, a = divmod(code, split)
            total += (c * d * (cached(a) or weight(a))
                      * (cached(b) or weight(b)))
    return total * orbit


def _table_counts(pairs, nu: Partition, a_blocks: int, base: int,
                  ordered: bool) -> dict[int, int]:
    """The nu-tabloids of points labelled by ``pairs`` (i, j), counted by
    their tables A[i][r] and B[j][r], i and j from 1.  A pair of tables is
    coded as one integer in base ``base``: digit A[i][r] at place
    (i - 1)*len(nu) + r and B[j][r] at place (a_blocks + j - 1)*len(nu) + r.
    The states are grouped by the fill of each row, {fill: (rows with room,
    {code: count})}, the fill coded in the same base with row r at place r:
    a group reads once which rows have room, and moves all its codes into
    one target group per row.
    If ``ordered``, rows of equal length take their first points in order,
    so one tabloid of each orbit under permutations of those rows counts."""
    rows = len(nu)
    places = [base ** r for r in range(rows)]
    # row r waits for row r - 1 of the same length to start
    waits = [ordered and r > 0 and nu[r - 1] == nu[r] for r in range(rows)]
    groups = {0: ([r for r in range(rows) if not waits[r]], {0: 1})}
    for i, j in pairs:
        steps = [places[r] * (base ** ((i - 1) * rows)
                              + base ** ((a_blocks + j - 1) * rows))
                 for r in range(rows)]
        nxt: dict[int, tuple[list[int], dict[int, int]]] = {}
        for fill, (room, states) in groups.items():
            for r in room:
                step = steps[r]
                to = fill + places[r]
                target = nxt.get(to)
                if target is None:
                    filled = to // places[r] % base
                    opens = room
                    if filled == nu[r]:
                        opens = [x for x in room if x != r]
                    if filled == 1 and r + 1 < rows and waits[r + 1]:
                        opens = opens + [r + 1]
                    nxt[to] = (opens, {code + step: count
                                       for code, count in states.items()})
                else:
                    merged = target[1]
                    get = merged.get
                    for code, count in states.items():
                        key = code + step
                        merged[key] = get(key, 0) + count
        groups = nxt
    [(_, states)] = groups.values()
    return states
