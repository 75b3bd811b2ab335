import functools
import random
from collections import Counter

import pytest

from rigidpack import linalg
from rigidpack.generators import complete_graph, gnp_graph
from rigidpack.linalg import FOLD, PRIME, PRIME_BITS, SLOT_BITS, RowBasis
from rigidpack.matroid import pack_rigid
from rigidpack.rigidity import Realization, rigidity_matrix_row


def bareiss_rank(rows):
    """Fraction-free integer elimination; exact rank over the rationals."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def basis_rank(rows):
    """Rank over GF(PRIME) of a list of equal-length rows, through RowBasis."""
    basis = RowBasis(len(rows[0]) if rows else 0)
    for r in rows:
        basis.insert(r)
    return len(basis)


def random_matrix(rng, rows, cols, bound=100):
    return [[rng.randrange(bound) for _ in range(cols)] for _ in range(rows)]


def test_zero_matrix_rank():
    assert basis_rank([[0, 0, 0]] * 3) == 0


def test_identity_pattern_rank():
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert basis_rank(rows) == 4


def test_rank_matches_rational_oracle():
    rng = random.Random(2024)
    for _ in range(25):
        nrows = rng.randrange(1, 12)
        ncols = rng.randrange(1, 10)
        rows = random_matrix(rng, nrows, ncols)
        # plant dependencies: duplicate and scaled rows
        if nrows >= 3:
            rows[-1] = rows[0][:]
            rows[-2] = [3 * x for x in rows[1]]
        assert basis_rank(rows) == bareiss_rank(rows)


def test_rank_50x30_random():
    rng = random.Random(7)
    rows = random_matrix(rng, 50, 30)
    assert basis_rank(rows) == bareiss_rank(rows)


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(11)
    rows = random_matrix(rng, 8, 6)
    base = basis_rank(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert basis_rank(shuffled) == base
    scaled = [[(x * 12345) % PRIME for x in r] for r in rows]
    assert basis_rank(scaled) == base


def test_rank_bounded_by_dimensions():
    rng = random.Random(3)
    for _ in range(10):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 9)
        assert basis_rank(random_matrix(rng, nrows, ncols)) <= min(nrows, ncols)


def test_submodularity_over_row_sets():
    rng = random.Random(13)
    rows = random_matrix(rng, 10, 6)
    universe = list(range(10))

    def rank_of(sel):
        return basis_rank([rows[i] for i in sel])

    for _ in range(50):
        a = set(rng.sample(universe, rng.randrange(11)))
        b = set(rng.sample(universe, rng.randrange(11)))
        assert rank_of(a | b) + rank_of(a & b) <= rank_of(a) + rank_of(b)


def test_basis_rank_edge_cases():
    rng = random.Random(4)
    rows = random_matrix(rng, 5, 4)
    assert basis_rank([]) == 0
    assert basis_rank([rows[2]]) == (1 if any(rows[2]) else 0)
    assert basis_rank(rows) == bareiss_rank(rows)
    # a duplicated row contributes once
    assert basis_rank([rows[1], rows[1]]) == basis_rank([rows[1]])


def test_row_basis_incremental_matches_batch():
    rng = random.Random(21)
    rows = random_matrix(rng, 12, 7)
    basis = RowBasis(7)
    kept = [i for i, r in enumerate(rows) if basis.insert(r)]
    assert len(basis) == bareiss_rank(rows)
    # greedy prefix property: kept rows are independent, skipped ones dependent
    for i, r in enumerate(rows):
        sub = rows[: i + 1]
        if i in kept:
            assert bareiss_rank(sub) == bareiss_rank(rows[:i]) + 1


def test_row_basis_residue_detects_dependence():
    basis = RowBasis(3)
    basis.insert([1, 2, 3])
    basis.insert([0, 1, 1])
    assert any(basis.residue([5, 0, 0]))
    combo = [(1 * 1 + 0 * 2) % PRIME, (2 + 4) % PRIME, (3 + 4) % PRIME]
    assert not any(basis.residue(combo))


def test_row_basis_remove_consistency():
    rng = random.Random(31)
    nmem, ncols = 24, 8
    raw = {m: [rng.randrange(PRIME) for _ in range(ncols)] for m in range(nmem)}
    basis = RowBasis(ncols, track_width=nmem)
    live = []
    for step in range(400):
        if live and rng.random() < 0.4:
            victim = rng.choice(live)
            basis.remove(victim)
            live.remove(victim)
        else:
            m = rng.randrange(nmem)
            if m in basis.index_of:
                continue
            if basis.insert(raw[m], m):
                live.append(m)
        assert sorted(basis.index_of) == sorted(live)
        assert len(basis) == len(live) == bareiss_rank([raw[m] for m in live])


def dependent_circuit(basis, row):
    """The row's circuit, after a probe that finds the row dependent (circuit's precondition)."""
    assert not basis.extends(row)
    return basis.circuit(row)


def test_row_basis_insert_rejects_a_live_member():
    basis = RowBasis(3, track_width=3)
    assert basis.insert([1, 0, 0], 7)
    for row in ([0, 1, 0], [2, 0, 0]):  # independent or dependent alike
        with pytest.raises(ValueError, match="already live"):
            basis.insert(row, 7)
    assert len(basis) == 1 and basis.index_of == {7: 0}
    assert basis.extends([1, 1, 0])
    assert dependent_circuit(basis, [3, 0, 0]) == {7}
    basis.remove(7)
    assert len(basis) == 0 and sorted(basis.free_slots) == [0, 1, 2]
    assert basis.insert([0, 1, 0], 7)  # a removed member may come back


def test_row_basis_circuit_is_fundamental():
    rng = random.Random(41)
    ncols, nmem = 5, 12
    raw = {m: [rng.randrange(PRIME) for _ in range(ncols)] for m in range(nmem)}
    basis = RowBasis(ncols, track_width=nmem)
    live = [m for m in range(8) if basis.insert(raw[m], m)]
    probe = [0] * ncols
    support = live[:3]
    for m in support:
        for j in range(ncols):
            probe[j] = (probe[j] + (m + 2) * raw[m][j]) % PRIME
    circ = basis.circuit(probe)
    assert circ == set(support)
    # five live rows span GF(PRIME)^5, so every other row is dependent
    assert dependent_circuit(basis, raw[11]) == brute_circuit({m: raw[m] for m in live}, raw[11])


def rank_mod_p(rows):
    """Plain Gaussian elimination over GF(PRIME) on lists: the reference rank."""
    m = [[x % PRIME for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], PRIME - 2, PRIME)
        m[r] = [x * inv % PRIME for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % PRIME for x, y in zip(m[i], m[r])]
        r += 1
    return r


def brute_circuit(live_rows, probe):
    """Fundamental circuit by rank alone: y is in it iff live - y + probe is independent."""
    full = len(live_rows)
    if rank_mod_p(list(live_rows.values()) + [probe]) > full:
        return None
    return {y for y in live_rows
            if rank_mod_p([r for m, r in live_rows.items() if m != y] + [probe]) == full}


def mixed_rows(rng, n, d):
    """Rigidity rows of K_n (sparse, 2d entries each), dense rows, and planted combinations."""
    realization = Realization.random(n, d, seed=rng.randrange(1 << 30))
    rows = [rigidity_matrix_row(realization, n, u, v) for u in range(n) for v in range(u + 1, n)]
    ncols = d * n
    rows += [[rng.randrange(PRIME) for _ in range(ncols)] for _ in range(ncols // 2)]
    for _ in range(4):
        a, b = rng.sample(range(len(rows)), 2)
        x = rng.randrange(1, PRIME)
        rows.append([(p + x * q) % PRIME for p, q in zip(rows[a], rows[b])])
    return rows


def assert_triangular(basis):
    """Every kept row's top nonzero slot is its own pivot, where it holds exactly 1."""
    for pivot, row in basis.rows.items():
        assert row.bit_length() == SLOT_BITS * pivot + 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_basis_differential(seed, monkeypatch):
    rng = random.Random(seed)
    n, d = 6, 2
    raw = mixed_rows(rng, n, d)
    ncols = d * n
    # member ids run past the slot count: slots are recycled
    basis = RowBasis(ncols, track_width=ncols)
    live: dict[int, list[int]] = {}

    def no_insert(*args, **kwargs):
        raise AssertionError("remove re-inserted a row")

    def no_reduce(*args, **kwargs):
        raise AssertionError("insert reduced a row whose reduction was saved")

    def remove(victim):
        with monkeypatch.context() as patched:
            patched.setattr(RowBasis, "insert", no_insert)
            basis.remove(victim)
        del live[victim]
        assert_triangular(basis)

    def insert(m):
        kept = basis.insert(raw[m], m)
        assert kept == (rank_mod_p(list(live.values()) + [raw[m]]) > len(live))
        if kept:
            live[m] = raw[m]
        assert_triangular(basis)

    for _ in range(160):
        op = rng.random()
        if live and op < 0.2:
            remove(rng.choice(sorted(live)))
        elif op < 0.5:
            insert(rng.choice([m for m in range(len(raw)) if m not in live]))
        elif op < 0.75:
            # a probe that finds its row independent saves the reduction for
            # the next insert of the same row, which reduces nothing; any
            # insert or remove must drop it
            m = rng.choice([m for m in range(len(raw)) if m not in live])
            expected = brute_circuit(live, raw[m])
            assert basis.extends(raw[m]) == (expected is None)
            if expected is None:
                way = rng.randrange(3)
                if way == 1:
                    # a different row first, one that makes the queried row dependent
                    x = rng.randrange(2, PRIME)
                    raw.append([x * v % PRIME for v in raw[m]])
                    insert(len(raw) - 1)
                elif way == 2 and live:
                    remove(rng.choice(sorted(live)))
                if way == 0:
                    with monkeypatch.context() as patched:
                        patched.setattr(RowBasis, "_reduce", no_reduce)
                        insert(m)
                else:
                    insert(m)
                # kept, or a multiple of a row that is: dependent either way
                assert dependent_circuit(basis, raw[m]) == brute_circuit(live, raw[m])
            else:
                assert basis.circuit(raw[m]) == expected
        else:
            if live and rng.random() < 0.5:
                # a combination of live rows, so the query is dependent
                probe = [0] * ncols
                for m in rng.sample(sorted(live), rng.randrange(1, len(live) + 1)):
                    x = rng.randrange(1, PRIME)
                    probe = [(p + x * q) % PRIME for p, q in zip(probe, live[m])]
            else:
                probe = raw[rng.randrange(len(raw))]
            expected = brute_circuit(live, probe)
            assert basis.extends(probe) == (expected is None)
            if expected is not None:
                assert basis.circuit(probe) == expected
        assert sorted(basis.index_of) == sorted(live)
        # rows independent over GF(PRIME) are independent over the rationals
        assert len(basis) == len(live) == bareiss_rank(list(live.values()))
        assert len(set(basis.index_of.values())) == len(live)
        assert_triangular(basis)


def decoded(packed, width):
    """The first width slots of a packed part, each reduced mod PRIME."""
    mask = (1 << SLOT_BITS) - 1
    return [((packed >> (SLOT_BITS * i)) & mask) % PRIME for i in range(width)]


def values(basis):
    """Everything a tracking basis holds, as values mod PRIME."""
    return ({p: decoded(r, basis.ncols) for p, r in basis.rows.items()},
            {p: decoded(t, basis.track_width) for p, t in basis.tracks.items()},
            dict(basis.index_of), list(basis.slot_member), sorted(basis.free_slots))


def assert_tracking_exact(basis, raw):
    """Every kept row is the sum of its tracking coefficients times the live
    members' raw rows, and a free slot holds no coefficient."""
    for pivot, row in basis.rows.items():
        coefs = decoded(basis.tracks[pivot], basis.track_width)
        expected = [0] * basis.ncols
        for slot, member in enumerate(basis.slot_member):
            if member < 0:
                assert coefs[slot] == 0
                continue
            expected = [(x + coefs[slot] * y) % PRIME for x, y in zip(expected, raw[member])]
        assert decoded(row, basis.ncols) == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_basis_exchange(seed):
    # exchange swaps a live member for a dependent row whose circuit holds
    # it, rewriting tracking parts only; with any other member it refuses
    # and changes nothing
    rng = random.Random(seed)
    n, d = 6, 2
    raw = mixed_rows(rng, n, d)
    ncols = d * n
    basis = RowBasis(ncols, track_width=ncols)
    live = {}
    for m in rng.sample(range(len(raw)), len(raw)):
        if basis.insert(raw[m], m):
            live[m] = raw[m]
    outcomes = Counter()
    for _ in range(60):
        op = rng.random()
        if op < 0.15:
            basis.remove(rng.choice(sorted(live)))
            live = {m: raw[m] for m in basis.index_of}
            continue
        if op < 0.5:
            # a combination of a few live rows: a small circuit, so most
            # members are outside it
            probe = [0] * ncols
            for m in rng.sample(sorted(live), rng.randrange(1, 4)):
                x = rng.randrange(1, PRIME)
                probe = [(p + x * q) % PRIME for p, q in zip(probe, live[m])]
            raw.append(probe)
            m = len(raw) - 1
        else:
            m = rng.choice([m for m in range(len(raw)) if m not in live])
        expected = brute_circuit(live, raw[m])
        if expected is None:
            assert basis.insert(raw[m], m)
            live[m] = raw[m]
            continue
        old = rng.choice(sorted(live))
        before = values(basis)
        with pytest.raises(ValueError, match="already live"):
            basis.exchange(raw[m], old, old)
        kept = basis.exchange(raw[m], m, old)
        outcomes[kept] += 1
        assert kept == (old in expected)
        after = values(basis)
        if kept:
            # the structural rows and pivots are unchanged, and m takes old's slot
            assert after[0] == before[0]
            assert after[2] == {**{k: v for k, v in before[2].items() if k != old},
                                m: before[2][old]}
            del live[old]
            live[m] = raw[m]
        else:
            assert after == before
        assert sorted(basis.index_of) == sorted(live)
        assert_triangular(basis)
        assert_tracking_exact(basis, raw)
        # circuits afterwards are the fundamental circuits of the live rows
        q = raw[rng.randrange(len(raw))]
        circuit = brute_circuit(live, q)
        assert basis.extends(q) == (circuit is None)
        if circuit is not None:
            assert basis.circuit(q) == circuit
    assert outcomes[True] > 10 and outcomes[False] > 10


def test_row_basis_exchange_counts_pending_updates():
    # Member 0 is e_0 + e_1 (pivot 1) and member 1 is e_0 (pivot 0); the
    # pivot-1 row is raw0 - raw1, so it holds member 1's slot.  Each later
    # member x * e_0 replaces the one in that slot: its expansion hits only
    # the pivot-0 row, so the pivot-1 row takes one tracking update per
    # exchange and is never used as a multiplier; it is canonicalised at
    # its FOLD-th pending update, and every slot stays inside the bound.
    rng = random.Random(9)
    basis = RowBasis(2, track_width=2)
    raw = {0: [1, 1], 1: [1, 0]}
    assert basis.insert(raw[0], 0) and basis.insert(raw[1], 1)
    peak = 0
    for m in range(2, FOLD + 8):
        raw[m] = [rng.randrange(1, PRIME), 0]
        assert basis.exchange(raw[m], m, m - 1)
        updates = basis.pending.get(1, 0)
        peak = max(peak, updates)
        assert updates < FOLD
        bound = (1 << PRIME_BITS) + updates * (1 << (2 * PRIME_BITS))
        assert slots_below(basis.tracks[1], 2, bound)
        assert values(basis)[0] == {1: [0, 1], 0: [1, 0]}
    # one update from the insert of member 1, then FOLD + 6 exchanges
    assert peak == FOLD - 1 and basis.pending[1] == 7
    assert basis.index_of == {0: 0, m: 1}
    assert_tracking_exact(basis, raw)
    assert dependent_circuit(basis, [5, 7]) == {0, m}


@pytest.mark.parametrize("graph,d", [
    *(pytest.param(gnp_graph(14, 0.6, seed=s), 2, id=f"gnp14-seed{s}-d2") for s in range(4)),
    *(pytest.param(gnp_graph(16, 0.7, seed=s), 3, id=f"gnp16-seed{s}-d3") for s in range(4)),
    pytest.param(complete_graph(17), 4, id="K17-d4"),
])
def test_row_basis_stays_triangular_through_partition(graph, d, monkeypatch):
    # every insert and exchange that a packing makes, on the tracked partition
    # bases and on the plain bases of the re-check, leaves every kept row
    # with its pivot as its top nonzero slot; 3 of the 9 hosts are short
    calls = {"insert": 0, "exchange": 0}

    def checked(op):
        method = getattr(RowBasis, op)

        def run(basis, *args):
            result = method(basis, *args)
            calls[op] += 1
            assert_triangular(basis)
            return result

        monkeypatch.setattr(RowBasis, op, run)

    checked("insert")
    checked("exchange")
    pack_rigid(graph, d, 2, seed=1)
    assert calls["insert"] > graph.n and calls["exchange"] > 0


@functools.cache
def slot_ones(width):
    """1 in the lowest bit of each of width slots."""
    return int.from_bytes((b"\x01" + bytes(SLOT_BITS // 8 - 1)) * width, "little")


def slots_below(packed, width, bound):
    """Whether a packed value has width slots, each below bound (<= 2^SLOT_BITS).

    Adding 2^SLOT_BITS - bound to every slot makes a slot carry into the next
    only when a slot at or below it reaches the bound (the lowest such slot
    carries), and x ^ add ^ (x + add) holds the carry into every bit, so one
    sum tests every slot at once.
    """
    ones = slot_ones(width)
    add = ones * ((1 << SLOT_BITS) - bound)
    carries = packed ^ add ^ (packed + add)
    return packed >> (SLOT_BITS * width) == 0 and not carries & (ones << SLOT_BITS)


def test_row_basis_slot_bound_under_pending_updates():
    # Column 0 is shared and never a pivot; columns 1..units belong to the
    # unit rows, the next `dense` to the dense rows and the top `head` to
    # the head rows.  The raw rows, in member order: head row i is 1 at
    # column ncols-1-i with entries on columns 0..units; then e_1 and
    # e_c + a_c e_0 + b_c e_1 for c = 2..units; then the dense rows on
    # columns 0..units+dense.  Pivots are highest slots, so the head rows
    # pivot at the top columns, and each unit row takes its own column and
    # clears it from the head rows, which no later insert uses as a
    # multiplier: their updates pile up un-canonicalised until the FOLD-th.
    # A unit row is reduced by e_1, so it holds a_c in slot 0 and -b_c in
    # the tracking slot of e_1, and each clearing adds a product to both of
    # those shared slots.  Removing the unit members (e_1 last) downdates
    # every surviving row through the removed row, which again adds a
    # product to both shared slots, more than FOLD times in all.
    #
    # a_c and -b_c are close to PRIME.  Head rows 0 and 1 hold small
    # entries v on the unit columns, so their clearing coefficients
    # PRIME - v are close to PRIME, and every product they take in the
    # insert phase is close to 2^(2 * PRIME_BITS).  Head rows 2 and 3 hold
    # entries v close to PRIME: a head row's tracking slot of unit member c
    # then holds PRIME - v, so removing c downdates it by v times the
    # removed row, and their products are the large ones in the remove phase.
    rng = random.Random(5)
    head, units, dense = 4, FOLD + 3, 4
    assert FOLD < units < 2 * FOLD
    ncols = 1 + units + dense + head

    def small():
        return rng.randrange(1, 1 << 8)

    raw = []
    for i in range(head):
        row = [0] * ncols
        row[ncols - 1 - i] = 1
        row[0] = rng.randrange(PRIME)
        for c in range(1, units + 1):
            row[c] = small() if i < 2 else PRIME - small()
        raw.append(row)
    for c in range(1, units + 1):
        row = [0] * ncols
        row[c] = 1
        if c > 1:
            row[0], row[1] = PRIME - small(), small()
        raw.append(row)
    raw += [[rng.randrange(PRIME) for _ in range(1 + units + dense)] + [0] * head
            for _ in range(dense)]
    basis = RowBasis(ncols, track_width=ncols)
    # a slot at or above this holds more than FOLD // 2 products
    high = (1 << PRIME_BITS) + (FOLD // 2) * (1 << (2 * PRIME_BITS))
    peak, noncanonical = 0, False
    stressed = [False, False]  # some structural / tracking slot reached high
    checked: list[dict[int, int]] = [{}, {}]

    def check_slots():
        # every update or fold makes a new int, so a part that is the object
        # checked last time is skipped; the copies keep those objects alive
        nonlocal peak, noncanonical
        pending = basis.pending
        peak = max(peak, *pending.values(), 0)
        assert peak <= FOLD
        for i, parts in enumerate((basis.rows, basis.tracks)):
            last = checked[i]
            for pivot, part in parts.items():
                if part is last.get(pivot):
                    continue
                updates = pending.get(pivot, 0)
                assert slots_below(part, ncols,
                                   (1 << PRIME_BITS) + updates * (1 << (2 * PRIME_BITS)))
                assert part.bit_length() <= SLOT_BITS * ncols
                noncanonical = noncanonical or not slots_below(part, ncols, PRIME)
                stressed[i] = stressed[i] or not slots_below(part, ncols, high)
            checked[i] = dict(parts)

    for m, row in enumerate(raw):
        assert basis.insert(row, m)
        check_slots()
    # rows 0..3 took `units` updates: canonicalised at the FOLD-th, then 3
    # more; before that fold the shared slots of rows 0 and 1 came close to
    # the bound, well past `high`
    assert peak == FOLD - 1
    assert [basis.pending[ncols - 1 - i] for i in range(head)] == [units - FOLD] * head
    assert noncanonical
    assert stressed == [True, True]
    # queries still see the exact basis: every raw row's circuit is itself
    for m, row in enumerate(raw):
        assert dependent_circuit(basis, row) == {m}
    live = dict(enumerate(raw))
    probe = [(a + 3 * b) % PRIME for a, b in zip(raw[0], raw[7])]
    assert dependent_circuit(basis, probe) == {0, 7}
    # every row has since served as a multiplier, so every row is canonical
    assert not basis.pending
    for pivot, row in basis.rows.items():
        for part in (row, basis.tracks[pivot]):
            assert slots_below(part, ncols, PRIME)
    # each removal downdates every row that stays: the last 8 take FOLD + 3
    # each (the highest slot goes first, which keeps remove's scan short),
    # and the shared slots of rows 2 and 3 pass `high` before their fold
    peak, stressed[:] = 0, [False, False]
    for m in reversed(range(head, head + units)):
        basis.remove(m)
        del live[m]
        check_slots()
    assert peak == FOLD - 1
    assert sorted(basis.pending.values()) == [units - FOLD] * len(live) == [3] * 8
    assert stressed == [True, True]
    for m, row in live.items():
        assert dependent_circuit(basis, row) == {m}
    a, b = head + units + 1, head + units + 3
    probe = [(x + 5 * y) % PRIME for x, y in zip(raw[a], raw[b])]
    assert dependent_circuit(basis, probe) == brute_circuit(live, probe) == {a, b}


def test_fold_is_the_largest_count_a_slot_holds():
    # the slot bound of the module notes, read off the constants alone:
    # one canonical entry plus FOLD products below 2^(2 * PRIME_BITS)
    entry, product, slot = 1 << PRIME_BITS, 1 << (2 * PRIME_BITS), 1 << SLOT_BITS
    assert entry + FOLD * product < slot <= entry + (FOLD + 1) * product
    assert PRIME == entry - 1
    assert entry <= 1 << (8 * linalg._ENTRY_BYTES) <= slot


def test_row_basis_folds_wide_sums():
    # Every sum below has more than 2 * FOLD products, so it passes two fold
    # points, and unit rows with PRIME - 1 in every tail slot make each
    # product about 2^(2 * PRIME_BITS): a sum of FOLD + 1 of them overflows
    # its slot unfolded.
    k = 2 * FOLD + 4  # unit rows e_m, m < k; columns k..k+2 are the tail
    ncols = k + 3
    raw = {m: [0] * m + [1] + [0] * (k - m - 1) + [PRIME - 1] * 3 for m in range(k)}
    basis = RowBasis(ncols, track_width=k + 2)
    for m, row in raw.items():
        assert basis.insert(row, m)
    live = dict(raw)

    # The references are closed forms, since plain elimination over k rows
    # of k + 3 columns is far too slow: each unit row clears its own column
    # from every other row, which leaves the others on the columns of the
    # absent units and the 3-column tail, where rank_mod_p takes the rank.
    def closed_rank(absent, others):
        """Rank of the unit rows of every m < k but ``absent``, plus ``others``."""
        residues = []
        for r in others:
            s = sum(r[:k]) - sum(r[m] for m in absent)
            # r - sum of r[m] * (unit row m); each unit row is -1 on the tail
            residues.append([r[m] for m in absent] + [(t + s) % PRIME for t in r[k:]])
        return k - len(absent) + rank_mod_p(residues)

    def live_rank():
        return closed_rank((), [r for m, r in live.items() if m >= k])

    def closed_circuit(probe):
        """``brute_circuit(live, probe)`` while every unit row is live."""
        extras = {m: r for m, r in live.items() if m >= k}

        def rank_without(y):
            others = [r for m, r in extras.items() if m != y]
            return closed_rank((y,) if y < k else (), others + [probe])

        full = len(live)
        if closed_rank((), [*extras.values(), probe]) > full:
            return None
        return {y for y in live if rank_without(y) == full}

    def combination(members, x=1):
        """x times the sum of the unit rows of members."""
        row = [0] * k + [(PRIME - x) * len(members) % PRIME] * 3
        for m in members:
            row[m] = x
        return row

    assert live_rank() == k
    # the probe's _reduce: k - 3 products (PRIME - 1)^2 land in each tail slot
    most = set(range(3, k))
    probe = combination(most)
    assert dependent_circuit(basis, probe) == closed_circuit(probe) == most
    # from here on the live rows stay independent (live_rank), so a
    # combination's circuit is exactly the members it combines

    # a dense row hitting every unit row, whose reduced pivot entry is
    # PRIME - 1; clearing its pivot k puts PRIME - 1 into the tracking slot
    # of member k in every unit row
    raw[k] = [1] * k + [PRIME - 1 - k, 12345, 678]
    assert basis.insert(raw[k], k)
    live[k] = raw[k]
    assert live_rank() == k + 1
    # circuit's tracking sum: its coefficients are the row's own entries
    # at the pivots, PRIME - 1 here, so k - 3 products (PRIME - 1)^2 land
    # in member k's slot
    assert dependent_circuit(basis, combination(most, PRIME - 1)) == most

    # insert's tracking sum: a dense row with reduced pivot entry 1 hitting
    # every unit row with coefficient PRIME - 1 adds k products
    # (PRIME - 1)^2 in member k's slot again
    row = [1] * k + [0, 0, 0]
    row[k + 1] = (1 - basis.residue(row)[k + 1]) % PRIME
    raw[k + 1] = row
    assert basis.insert(row, k + 1)
    live[k + 1] = row
    assert live_rank() == k + 2
    for m in (0, k, k + 1):
        assert dependent_circuit(basis, raw[m]) == {m}
    probe = [(a + 7 * b) % PRIME for a, b in zip(raw[k + 1], combination(range(k // 2)))]
    assert dependent_circuit(basis, probe) == set(range(k // 2)) | {k + 1}
    basis.remove(k)
    del live[k]
    assert live_rank() == k + 1
    assert dependent_circuit(basis, combination(range(1, k))) == set(range(1, k))
    assert basis.extends(raw[k])
