"""The tabloid kernel's R_nu against two independent counts.

R_nu = sum over R in S_I and S in S_J of fix_nu(S∘Q∘R), the number of
nu-tabloids that S∘Q∘R fixes.  ``_tabloids._fixed_tabloids`` finds it by a
dynamic program over table pairs.  Here it is checked against the defining
sum, with fix_nu counted from the cycle type, on random small keys, and
against the per-point program it replaced on the benchmark's batch-heavy
keys.
"""
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from haarmoments import _tabloids
from haarmoments.partitions import compose, cycle_type
from haarmoments.queries import CanonicalMoment


def _pairs(I, J, Q):
    """The kernel's inputs, as ``_tabloids.shape_weights`` reads them off
    the normal form of <I,J | I,J_Q>."""
    m = CanonicalMoment(len(I), len(I), I, J, tuple(J[b] for b in Q))
    conj, plain = list(zip(m.I, m.J)), list(zip(m.I, m.L))
    shapes = _tabloids._shape(m.I), _tabloids._shape(m.J)
    return conj, plain, m.I[-1], shapes


@lru_cache(maxsize=None)
def _fix(nu: tuple, ct: tuple) -> int:
    """The nu-tabloids fixed by a permutation of cycle type ct: each cycle
    lies in one row, so count the ways to put the cycles into rows that
    they fill exactly."""
    if not ct:
        return int(not any(nu))
    first, rest = ct[0], ct[1:]
    return sum(_fix(nu[:r] + (room - first,) + nu[r + 1:], rest)
               for r, room in enumerate(nu) if room >= first)


def _fixing(values):
    p = len(values)
    return [r for r in permutations(range(p))
            if all(values[r[x]] == values[x] for x in range(p))]


def _brute_fixed_tabloids(I, J, Q, nu) -> int:
    QR = [compose(Q, R) for R in _fixing(I)]
    types = Counter(cycle_type(compose(S, g)) for S in _fixing(J) for g in QR)
    return sum(c * _fix(nu, ct) for ct, c in types.items())


@st.composite
def _keys(draw):
    p = draw(st.integers(1, 6))
    labels = st.integers(1, draw(st.integers(1, p)))
    I = draw(st.lists(labels, min_size=p, max_size=p))
    J = draw(st.lists(labels, min_size=p, max_size=p))
    Q = draw(st.permutations(range(p)))
    return tuple(I), tuple(J), tuple(Q)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_keys())
def test_fixed_tabloids_match_the_defining_sum_property(key):
    I, J, Q = key
    assume(len(_fixing(I)) * len(_fixing(J)) <= 10000)
    conj, plain, a_blocks, (mu_I, mu_J) = _pairs(I, J, Q)
    for nu in _tabloids.dominating(mu_I, mu_J):
        assert _tabloids._fixed_tabloids(conj, plain, nu, a_blocks) == \
            _brute_fixed_tabloids(I, J, Q, nu), (I, J, Q, nu)


def test_fix_counts_tabloids():
    # the identity fixes every tabloid, a p-cycle only the one-row tabloid
    for nu in ((3, 2, 1), (2, 2), (4,)):
        p = sum(nu)
        tabloids = factorial(p)
        for part in nu:
            tabloids //= factorial(part)
        assert _fix(nu, (1,) * p) == tabloids
        assert _fix(nu, (p,)) == int(len(nu) == 1)
    assert _fix((2, 2), (2, 2)) == 2


# The per-point program that grouped states replaced: one state per
# (row fill, table pair), the fill in the code's low digits.

def _reference_fixed_tabloids(conj, plain, nu, a_blocks) -> int:
    base = len(conj) + 1
    by_conj = _reference_table_counts(conj, nu, a_blocks, base)
    by_plain = by_conj if plain == conj else _reference_table_counts(
        plain, nu, a_blocks, base)
    total = 0
    for code, c in by_conj.items():
        d = by_plain.get(code)
        if d:
            weight = 1
            while code:
                code, digit = divmod(code, base)
                weight *= factorial(digit)
            total += c * d * weight
    return total


def _reference_table_counts(pairs, nu, a_blocks, base) -> dict[int, int]:
    rows = len(nu)
    low = base ** rows
    states = {0: 1}
    for i, j in pairs:
        steps = [base ** r + low * (base ** (i * rows + r)
                                    + base ** ((a_blocks + j) * rows + r))
                 for r in range(rows)]
        nxt: dict[int, int] = {}
        for code, count in states.items():
            fill = code % low
            for r in range(rows):
                if fill // base ** r % base < nu[r]:
                    key = code + steps[r]
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return {code // low: count for code, count in states.items()}


# The 25 batch-heavy keys of the benchmark's seed 3: I, J and Q, one digit
# per point.
HEAVY_KEYS = [
    "1112121 1112123 3012654",
    "1111112 1223122 1302456",
    "122222112 123422154 063714528",
    "112131212 123233221 123645708",
    "12211111 12343214 10256437",
    "12112212 12342123 14207563",
    "121322121 121334422 105786342",
    "12131211 12223124 10423756",
    "121222333 121134242 051642387",
    "122111131 112324516 620384175",
    "121232313 112321323 243016758",
    "123121122 112232433 260347185",
    "122111313 112344234 342506178",
    "1122112 1112113 0162345",
    "12221112 12223131 14206357",
    "12222223 12312112 14032756",
    "11222221 12341211 30467215",
    "1222122 1121113 0216345",
    "111111231 122345637 841065327",
    "1222223 1232222 1345026",
    "111212123 121234231 012843675",
    "121122221 121342533 436021758",
    "1111112 1212132 1350246",
    "12211232 12321122 12304567",
    "112113113 122132113 403126578",
]


def test_fixed_tabloids_match_the_per_point_program_on_heavy_keys():
    cases = 0
    for key in HEAVY_KEYS:
        I, J, Q = (tuple(map(int, word)) for word in key.split())
        conj, plain, a_blocks, (mu_I, mu_J) = _pairs(I, J, Q)
        for nu in _tabloids.dominating(mu_I, mu_J):
            assert _tabloids._fixed_tabloids(conj, plain, nu, a_blocks) == \
                _reference_fixed_tabloids(conj, plain, nu, a_blocks), (key, nu)
            cases += 1
    assert cases == 143
