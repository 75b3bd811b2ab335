"""Exact linear algebra over a fixed prime field.

Everything downstream (rigidity rank queries, matroid partition) reduces to
row elimination over GF(PRIME).  The modulus is the Mersenne prime 2^31 - 1
(``PRIME_BITS`` = 31; every width below derives from it and ``SLOT_BITS``).
A random specialization of an m-row generic matrix loses rank with
probability at most m / PRIME, about m / 2^31 (Schwartz-Zippel), which is
not negligible on its own: ``rigidity`` and ``matroid`` confirm or reseed
every short verdict under a second, independent realization, so a
reported short verdict is wrong with probability at most about
(m / 2^31)^2.

Rows are "packed": one big integer holds one field entry per SLOT_BITS-wide
slot, so a row operation is one scalar multiply and one add on a CPython
big int, which runs in C.  Elimination only ever *adds* multiples of rows
(coefficients are negated mod PRIME first), so slot values stay
nonnegative.  Slots are brought back into [0, PRIME) all at once by SWAR
Mersenne folding: 2^31 = 1 (mod PRIME), so x = (x & M31) + (x >> 31) in
every slot, applied through per-slot masks until no slot reaches 2^31
(``_canonical``).  Kept rows get by with two folds (``_fold``, below).

`RowBasis` is the incremental eliminator used everywhere.  Its invariants:

* **Reduced row-echelon form.**  Every kept row is 1 at its own pivot
  column and 0 (mod PRIME) at the pivot of every other kept row.  A query
  row q is reduced as q - sum q[p] * row_p over the pivots p in q's
  support, with q's own entries as the coefficients, so a sparse query
  touches only the kept rows its support hits: at most 2d for a rigidity
  row, whatever the size of the basis.
* **Slot bound.**  Every value that is tested for zero or read as a
  pivot is canonical (every slot in [0, PRIME)): the sums of ``_sum`` and
  every new row, ``_canonical(work * inv)``.  A kept row with pending
  updates is instead *folded*: two unconditional Mersenne folds
  (``_fold``).  One fold leaves a slot below 2^41 + 2^31, the second adds
  back at most 2^10, so a folded slot is congruent to its value and at
  most 2^31 + 2^10, but not always below PRIME.  A product c * r of a
  coefficient c < PRIME and a folded row r has slots below 2^62 + 2^41,
  and 2^31 + 2^10 + 1023 * (2^62 + 2^41) < 2^72, so a 72-bit slot holds
  one folded entry plus any 1023 such products.  Two rules keep every
  slot inside that bound.  Every sum of products (the reduction in
  ``_reduce`` and the tracking sums in ``insert``, ``circuit`` and
  ``exchange``) starts from a canonical value and is canonicalised after
  every FOLD = 1023 products (``_sum``).  Kept rows take updates c * r
  without folding (the pivot clearing of ``insert``, the tracking updates
  of ``exchange`` and the downdate of ``remove``), so after u of them a
  slot is below 2^31 + 2^10 + u * (2^62 + 2^41).  Each part counts its
  own updates, ``pending`` the structural part and ``track_pending`` the
  tracking part (``exchange`` updates only the latter).  A part is folded
  where it is read: ``_sum`` folds it before it multiplies it, so a
  reduction folds only structural parts and a circuit read only tracking
  parts.  Both parts of a row are folded as soon as either count reaches
  FOLD.  Every slot read of a kept row goes through ``% PRIME``, and a
  fold leaves a pivot's 1 and the zeros above it alone, so a folded row
  serves as its canonical form would.
* **Triangular rows.**  Every kept row's top nonzero slot is its own
  pivot, where it holds exactly 1 (``rows[p].bit_length() == SLOT_BITS * p
  + 1``), so a row at pivot p spans p + 1 slots, not ``ncols``.  ``insert``
  pivots a new row on its highest nonzero slot P.  It then clears column P
  from the rows nonzero there, and those have pivots above P; the multiple
  it adds lies at or below P, so it leaves every such row's top slot alone.
  ``remove`` downdates through the holder with the lowest pivot q, whose
  row lies at or below q, below every other holder's pivot, for the same
  reason.
* **Recycled tracking slots.**  With ``track_width`` > 0 every kept row
  carries the coefficients expressing it in the raw rows of the live
  members ([A | I] elimination), one tracking slot per live member.  A
  member takes a free slot when its row is kept and gives it back when it
  is removed, so ``track_width`` has to cover the live members (at most the
  rank), not every member id.  Removal is a downdate: the row with the
  lowest pivot among those holding the member's slot clears that slot from
  every other row and is dropped.
* **Exchanges.**  ``exchange`` swaps a live member x at slot s for a
  dependent row y whose circuit holds x.  The span does not change, and
  the reduced row-echelon form of a span is unique, so no structural row,
  pivot or top slot changes either.  With E the tracking part of y's
  expansion and alpha = E[s] != 0, raw[x] = (y - sum of E[s'] raw[m_s'] over
  s' != s) / alpha; so a kept row with beta at slot s takes beta / alpha *
  (e_s - E) in its tracking part only, and y takes slot s.  If alpha is 0,
  x is not in y's circuit and nothing changes.
* **A refused insert changes nothing.**  ``insert`` reduces its row before
  it touches the basis, and a row that reduces to zero returns False
  there: no slot is taken and no member recorded.  Its reduction only
  folds the structural parts it reads, which changes no value mod PRIME.
  So an insert is also the independence probe: the partition asks each
  part to take an element, the part with the most room first, and reads
  the answer.
* **Circuits of dependent rows only.**  ``circuit`` assumes its row is
  dependent: a row that ``insert`` refused, as the basis stands.  In
  reduced row-echelon form such a row is the sum of its own entries at
  the pivot columns times the kept rows there, so ``circuit`` reads those
  entries as coefficients and sums only the tracking parts
  (``_expansion``, which ``exchange`` shares); it makes no structural
  reduction.
* **Residues.**  ``residue`` returns a reduced row whose entries depend on
  the pivots chosen; only whether it is zero carries meaning.
* **The witness.**  A tracked basis certifies its own members
  (``certify``).  With R the structural rows, T their tracking parts and
  Raw the live members' raw rows, T * Raw = R.  Each kept row is exactly 1
  at its top slot, its pivot, so R has full rank, and then so has Raw:
  the live members are independent.  ``certify`` checks the shape (the
  live members are the expected set, ``rows`` and ``tracks`` hold the same
  pivots, one per live member, each row's top slot is 1, no tracking part
  is nonzero at a free slot) exactly, and T * Raw = R by Freivalds' check:
  for a random y with one nonzero entry per kept row, (y^T T) * Raw = y^T R.
  A state with T * Raw != R passes with probability at most
  1 / (PRIME - 1) per draw, and a correct state always passes.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Callable, Collection, Sequence

PRIME_BITS = 31
PRIME = (1 << PRIME_BITS) - 1

SLOT_BITS = 72
_SLOT_BYTES = SLOT_BITS // 8
_SLOT_MASK = (1 << SLOT_BITS) - 1
# a canonical entry (< 2^PRIME_BITS) fits the low bytes of its slot
_ENTRY_BYTES = (PRIME_BITS + 7) // 8
# products a slot holds on top of one folded entry (module notes): with
# F = 2^PRIME_BITS + 2^(SLOT_BITS - 2 * PRIME_BITS) the largest folded slot,
# the largest f with F + f * 2^PRIME_BITS * F < 2^SLOT_BITS
FOLD = (1 << (SLOT_BITS - 2 * PRIME_BITS)) - 1


class RowBasis:
    """Incremental reduced row-echelon basis over GF(PRIME) with packed rows.

    ``rows`` maps each pivot column to the structural part of its kept row
    and ``tracks`` to the tracking part; ``pending`` and ``track_pending``
    count, per pivot, the updates made to each part since it was last
    folded (see the module notes).
    ``index_of`` maps each live member to its tracking slot.  A dependent
    row yields its fundamental circuit by reading the tracking slots of
    its expansion in the kept rows.
    """

    __slots__ = ("ncols", "track_width", "width", "rows", "tracks", "pending",
                 "track_pending", "index_of", "slot_member", "free_slots",
                 "_ones", "_low", "_high")

    def __init__(self, ncols: int, track_width: int = 0):
        self.ncols = ncols
        self.track_width = track_width
        self.width = ncols + track_width
        self.rows: dict[int, int] = {}
        self.tracks: dict[int, int] = {}
        self.pending: dict[int, int] = {}
        self.track_pending: dict[int, int] = {}
        self.index_of: dict[int, int] = {}
        self.slot_member = [-1] * track_width
        self.free_slots = list(range(track_width - 1, -1, -1))
        # per-slot masks, wide enough for the structural and the tracking part
        self._ones = int.from_bytes(
            (b"\x01" + bytes(_SLOT_BYTES - 1)) * max(ncols, track_width), "little")
        self._low = self._ones * PRIME
        self._high = self._ones * ((1 << (SLOT_BITS - PRIME_BITS)) - 1)

    def __len__(self) -> int:
        return len(self.rows)

    def _canonical(self, x: int) -> int:
        """Every slot of x reduced into [0, PRIME) by Mersenne folding."""
        low, high, ones = self._low, self._high, self._ones
        hi = (x >> PRIME_BITS) & high
        while hi:
            x = (x & low) + hi
            hi = (x >> PRIME_BITS) & high
        # every slot is now at most PRIME; send PRIME itself to 0
        top = ((x + ones) >> PRIME_BITS) & ones
        return x - top * PRIME if top else x

    def _fold(self, x: int) -> int:
        """x with every slot brought to at most 2^31 + 2^10 by two Mersenne
        folds: congruent, but not always canonical (module notes)."""
        low, high = self._low, self._high
        x = (x & low) + ((x >> PRIME_BITS) & high)
        return (x & low) + ((x >> PRIME_BITS) & high)

    def _clean(self, pivot: int) -> None:
        """Fold each part of a kept row that has pending updates."""
        if self.pending.pop(pivot, 0):
            self.rows[pivot] = self._fold(self.rows[pivot])
        if self.track_pending.pop(pivot, 0):
            self.tracks[pivot] = self._fold(self.tracks[pivot])

    def _sum(self, acc: int, terms: list[tuple[int, int]], parts: dict[int, int],
             pending: dict[int, int]) -> int:
        """acc + sum of coef * parts[p] over terms, canonicalised every FOLD products.

        acc must be canonical; a part with ``pending`` updates is folded
        before it is multiplied (module notes).  The result is canonical.
        """
        for lo in range(0, len(terms), FOLD):
            for p, coef in terms[lo : lo + FOLD]:
                if p in pending:
                    del pending[p]
                    parts[p] = self._fold(parts[p])
                acc += coef * parts[p]
            acc = self._canonical(acc)
        return acc

    def _reduce(self, entries: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
        """(canonical reduced structural row, [(pivot, coefficient)] of the rows used)."""
        if len(entries) != self.ncols:
            raise ValueError(f"row has {len(entries)} entries, basis has {self.ncols} columns")
        work = 0
        hits = []
        rows = self.rows
        for c in compress(range(self.ncols), entries):
            v = entries[c] % PRIME
            if v:
                work |= v << (SLOT_BITS * c)
                if c in rows:
                    hits.append((c, PRIME - v))
        return self._sum(work, hits, rows, self.pending), hits

    def insert(self, entries: Sequence[int], member: int | None = None) -> bool:
        """Reduce and keep the row if independent; returns False on dependence.

        A tracking basis needs the member id of every row it is given, and
        that member must not be live.  A refused row leaves every value,
        member and free slot as it was (module notes).
        """
        if self.track_width and member is None:
            raise ValueError("a tracking basis needs a member id for each row")
        if not self.track_width and member is not None:
            raise ValueError("member ids need track_width > 0")
        if member in self.index_of:
            raise ValueError(f"member {member} is already live")
        work, hits = self._reduce(entries)
        if not work:
            return False
        pivot = (work.bit_length() - 1) // SLOT_BITS
        shift = SLOT_BITS * pivot
        inv = pow((work >> shift) & _SLOT_MASK, -1, PRIME)
        row = self._canonical(work * inv)
        rows, tracks = self.rows, self.tracks
        pending, track_pending = self.pending, self.track_pending
        tracked = self.track_width > 0
        if tracked:
            if not self.free_slots:
                raise ValueError("more independent rows than tracking slots")
            slot = self.free_slots.pop()
            track = self._sum(inv << (SLOT_BITS * slot),
                              [(p, coef * inv % PRIME) for p, coef in hits], tracks,
                              track_pending)
            self.index_of[member] = slot
            self.slot_member[slot] = member
        # clear the new pivot column from every other kept row
        for p, other in rows.items():
            c = ((other >> shift) & _SLOT_MASK) % PRIME
            if c:
                c = PRIME - c
                rows[p] = other + c * row
                updates = pending[p] = pending.get(p, 0) + 1
                if tracked:
                    # each part is also folded where it is read, so either
                    # count may be the larger
                    tracks[p] += c * track
                    track_pending[p] = track_pending.get(p, 0) + 1
                    updates = max(updates, track_pending[p])
                if updates == FOLD:
                    self._clean(p)
        rows[pivot] = row
        if tracked:
            tracks[pivot] = track
        return True

    def residue(self, entries: Sequence[int]) -> list[int]:
        """A reduced form of the row (structural slots); all-zero iff dependent."""
        work, _ = self._reduce(entries)
        raw = work.to_bytes(self.ncols * _SLOT_BYTES, "little")
        return [int.from_bytes(raw[i : i + _ENTRY_BYTES], "little")
                for i in range(0, len(raw), _SLOT_BYTES)]

    def _expansion(self, entries: Sequence[int]) -> int:
        """The canonical tracking part of a dependent row's expansion in the kept rows."""
        # a dependent row is the sum of row[p] * rows[p] over the pivots p,
        # since every kept row is 1 at its own pivot and 0 at the others'
        rows = self.rows
        hits = []
        for c in compress(range(self.ncols), entries):
            if c in rows:
                v = entries[c] % PRIME
                if v:
                    hits.append((c, v))
        return self._sum(0, hits, self.tracks, self.track_pending)

    def circuit(self, entries: Sequence[int]) -> set[int]:
        """Members with nonzero coefficient in the expansion of a dependent row.

        The row must be dependent on the basis (``insert`` refuses it); on
        an independent row the result means nothing.  Only valid with
        tracking enabled.
        """
        if not self.track_width:
            raise ValueError("circuit queries need track_width > 0")
        track = self._expansion(entries)
        # bit PRIME_BITS of a canonical slot plus PRIME is set iff the slot is nonzero
        flags = ((track + self._low) >> PRIME_BITS) & self._ones
        selectors = flags.to_bytes(self.track_width * _SLOT_BYTES, "little")[::_SLOT_BYTES]
        return set(compress(self.slot_member, selectors))

    def exchange(self, entries: Sequence[int], member: int, old: int) -> bool:
        """Swap the live member ``old`` for a dependent row; False if ``old``
        is not in the row's circuit, and then nothing changes.

        The span is unchanged, so the structural rows stay as they are (module
        notes): only the tracking parts are rewritten, and the new member
        takes ``old``'s slot.
        """
        if not self.track_width:
            raise ValueError("exchange needs track_width > 0")
        if member in self.index_of:
            raise ValueError(f"member {member} is already live")
        slot = self.index_of[old]
        shift = SLOT_BITS * slot
        track = self._expansion(entries)
        alpha = (track >> shift) & _SLOT_MASK
        if not alpha:
            return False
        # raw[old] = (row - sum of the other slots' terms) / alpha, so a kept
        # row with beta at the slot takes beta / alpha * (e_slot - expansion)
        step = self._canonical(track * (PRIME - 1) + (1 << shift))
        inv = pow(alpha, -1, PRIME)
        tracks, track_pending = self.tracks, self.track_pending
        for p, other in tracks.items():
            beta = ((other >> shift) & _SLOT_MASK) % PRIME
            if beta:
                tracks[p] = other + beta * inv % PRIME * step
                updates = track_pending[p] = track_pending.get(p, 0) + 1
                if updates == FOLD:
                    self._clean(p)
        del self.index_of[old]
        self.index_of[member] = slot
        self.slot_member[slot] = member
        return True

    def certify(self, members: Collection[int], row: Callable[[int], Sequence[int]],
                rng: random.Random) -> bool:
        """Whether the live members are exactly ``members`` and their raw rows
        ``row(m)`` are independent, from the basis's own witness (module notes).

        ``rng`` draws the check's vector.  Like a reduction, the check only
        folds the parts it reads.  Only valid with tracking enabled.
        """
        if not self.track_width:
            raise ValueError("certify needs track_width > 0")
        rows, tracks, index_of = self.rows, self.tracks, self.index_of
        if (index_of.keys() != set(members) or rows.keys() != tracks.keys()
                or len(rows) != len(index_of)):
            return False
        if any(r >> (SLOT_BITS * p) != 1 for p, r in rows.items()):
            return False
        y = [(p, rng.randrange(1, PRIME)) for p in rows]
        expected = self._sum(0, y, rows, self.pending)
        coefs = self._sum(0, y, tracks, self.track_pending)
        live = 0
        for slot in index_of.values():
            live |= _SLOT_MASK << (SLOT_BITS * slot)
        if coefs & ~live:
            return False  # a tracking part is nonzero at a free slot
        raw: dict[int, int] = {}
        terms = []
        for m, slot in index_of.items():
            c = (coefs >> (SLOT_BITS * slot)) & _SLOT_MASK
            if c:
                entries = row(m)
                raw[m] = sum((entries[j] % PRIME) << (SLOT_BITS * j)
                             for j in compress(range(self.ncols), entries))
                terms.append((m, c))
        return self._sum(0, terms, raw, {}) == expected

    def remove(self, member: int) -> None:
        """Drop a member's row by downdating the basis; nothing is re-inserted.

        Of the kept rows holding the member's tracking slot, the one with
        the lowest pivot clears that slot from every other row and is
        dropped; its row lies below the other holders' pivots, so every row
        stays triangular.  The others stay 1 at their pivots and 0 at each
        other's, and now express themselves in the remaining members only,
        so they span exactly the rows of the members that stay (the live
        rows are independent).  Partitions apply their paths by ``exchange``
        and never remove; tests and the benchmark's spans still use it.
        """
        if not self.track_width:
            raise ValueError("removal needs track_width > 0")
        slot = self.index_of.pop(member)
        shift = SLOT_BITS * slot
        holders = []
        for p, track in self.tracks.items():
            c = ((track >> shift) & _SLOT_MASK) % PRIME
            if c:
                holders.append((p, c))
        (drop, lead), *rest = sorted(holders)  # the lowest pivot (module notes)
        self._clean(drop)
        row, track = self.rows[drop], self.tracks[drop]
        inv = pow(lead, -1, PRIME)
        rows, tracks = self.rows, self.tracks
        pending, track_pending = self.pending, self.track_pending
        for p, c in rest:
            f = PRIME - c * inv % PRIME
            rows[p] += f * row
            tracks[p] += f * track
            pending[p] = pending.get(p, 0) + 1
            track_pending[p] = track_pending.get(p, 0) + 1
            if max(pending[p], track_pending[p]) == FOLD:
                self._clean(p)
        del rows[drop], tracks[drop]
        self.slot_member[slot] = -1
        self.free_slots.append(slot)
