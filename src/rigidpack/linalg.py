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
every slot, applied through per-slot masks until no slot reaches 2^31.

`RowBasis` is the incremental eliminator used everywhere.  Its invariants:

* **Reduced row-echelon form.**  Every kept row is 1 at its own pivot
  column and 0 (mod PRIME) at the pivot of every other kept row.  A query
  row q is reduced as q - sum q[p] * row_p over the pivots p in q's
  support, with q's own entries as the coefficients, so a sparse query
  touches only the kept rows its support hits: at most 2d for a rigidity
  row, whatever the size of the basis.
* **Slot bound.**  A row is canonical (every slot in [0, PRIME)) when it is
  kept.  A product c * r of a coefficient c < PRIME and a canonical row r
  has slots below 2^62, and 2^31 + 1023 * 2^62 < 1024 * 2^62 = 2^72, so a
  72-bit slot holds one canonical entry plus any 1023 such products.  Two
  rules keep every slot inside that bound.  Every sum of products (the
  reduction in ``_reduce`` and the tracking sums in ``insert``,
  ``circuit`` and ``exchange``) starts from a canonical value and is canonicalised after
  every FOLD = 1023 products (``_sum``).  Kept rows take updates c * r
  without folding (the pivot clearing of ``insert``, the tracking updates
  of ``exchange`` and the downdate of ``remove``), so after u of them a
  slot is below 2^31 + u * 2^62; the row (structural and tracking part) is
  canonicalised as soon as its ``pending`` count reaches FOLD, and when it
  is next used as a multiplier.
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
* **One reduction per placed row.**  The independence probe ``extends``
  reduces its row; when the row is independent it saves the reduced row
  and the pivots it hit.  The next ``insert`` of the same row object (the
  apply step of an augmenting path) uses them instead of reducing the row
  again.  Every ``insert``, ``exchange`` and ``remove`` drops the saved
  reduction, so it is never used against a changed basis; other queries
  only canonicalise kept rows, which changes no value mod PRIME.  Rows are
  treated as immutable.
* **Circuits of dependent rows only.**  ``circuit`` assumes its row is
  dependent, which the caller has learnt from a probe.  In reduced
  row-echelon form such a row is the sum of its own entries at the pivot
  columns times the kept rows there, so ``circuit`` reads those entries as
  coefficients and sums only the tracking parts (``_expansion``, which
  ``exchange`` shares); it makes no structural reduction.
* **Residues.**  ``residue`` returns a reduced row whose entries depend on
  the pivots chosen; only whether it is zero carries meaning.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

PRIME_BITS = 31
PRIME = (1 << PRIME_BITS) - 1

SLOT_BITS = 72
_SLOT_BYTES = SLOT_BITS // 8
_SLOT_MASK = (1 << SLOT_BITS) - 1
# a canonical entry (< 2^PRIME_BITS) fits the low bytes of its slot
_ENTRY_BYTES = (PRIME_BITS + 7) // 8
# products a slot holds on top of one canonical entry (module notes): the
# largest f with 2^PRIME_BITS + f * 2^(2 * PRIME_BITS) < 2^SLOT_BITS
FOLD = (1 << (SLOT_BITS - 2 * PRIME_BITS)) - 1


class RowBasis:
    """Incremental reduced row-echelon basis over GF(PRIME) with packed rows.

    ``rows`` maps each pivot column to the structural part of its kept row
    and ``tracks`` to the tracking part; ``pending`` counts, per pivot, the
    updates made since the row was last canonical (see the module notes).
    ``index_of`` maps each live member to its tracking slot.  A dependent
    row yields its fundamental circuit by reading the tracking slots of
    its expansion in the kept rows.
    """

    __slots__ = ("ncols", "track_width", "width", "rows", "tracks", "pending",
                 "index_of", "slot_member", "free_slots", "_saved", "_ones", "_low",
                 "_high")

    def __init__(self, ncols: int, track_width: int = 0):
        self.ncols = ncols
        self.track_width = track_width
        self.width = ncols + track_width
        self.rows: dict[int, int] = {}
        self.tracks: dict[int, int] = {}
        self.pending: dict[int, int] = {}
        self.index_of: dict[int, int] = {}
        self.slot_member = [-1] * track_width
        self.free_slots = list(range(track_width - 1, -1, -1))
        # (row, reduced row, hits) of the last probe that found its row
        # independent; dropped by every insert, exchange and remove
        self._saved: tuple[Sequence[int], int, list[tuple[int, int]]] | None = None
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

    def _clean(self, pivot: int) -> None:
        """Canonicalise a kept row that has pending updates."""
        if self.pending.pop(pivot, 0):
            self.rows[pivot] = self._canonical(self.rows[pivot])
            if self.track_width:
                self.tracks[pivot] = self._canonical(self.tracks[pivot])

    def _sum(self, acc: int, terms: list[tuple[int, int]], parts: dict[int, int]) -> int:
        """acc + sum of coef * parts[p] over terms, canonicalised every FOLD products.

        acc and every part it adds must be canonical; so is the result.
        """
        for lo in range(0, len(terms), FOLD):
            for p, coef in terms[lo : lo + FOLD]:
                acc += coef * parts[p]
            acc = self._canonical(acc)
        return acc

    def _reduce(self, entries: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
        """(canonical reduced structural row, [(pivot, coefficient)] of the rows used)."""
        if len(entries) != self.ncols:
            raise ValueError(f"row has {len(entries)} entries, basis has {self.ncols} columns")
        work = 0
        hits = []
        rows, pending = self.rows, self.pending
        for c in compress(range(self.ncols), entries):
            v = entries[c] % PRIME
            if v:
                work |= v << (SLOT_BITS * c)
                if c in rows:
                    hits.append((c, PRIME - v))
                    if c in pending:
                        self._clean(c)
        return self._sum(work, hits, rows), hits

    def insert(self, entries: Sequence[int], member: int | None = None) -> bool:
        """Reduce and keep the row if independent; returns False on dependence.

        A tracking basis needs the member id of every row it is given, and
        that member must not be live.  The reduction saved by the last
        ``extends`` probe is reused when that probe was for this same row
        object.
        """
        if self.track_width and member is None:
            raise ValueError("a tracking basis needs a member id for each row")
        if not self.track_width and member is not None:
            raise ValueError("member ids need track_width > 0")
        if member in self.index_of:
            raise ValueError(f"member {member} is already live")
        saved, self._saved = self._saved, None
        if saved is not None and saved[0] is entries:
            _, work, hits = saved
        else:
            work, hits = self._reduce(entries)
        if not work:
            return False
        pivot = (work.bit_length() - 1) // SLOT_BITS
        shift = SLOT_BITS * pivot
        inv = pow((work >> shift) & _SLOT_MASK, -1, PRIME)
        row = self._canonical(work * inv)
        rows, tracks, pending = self.rows, self.tracks, self.pending
        tracked = self.track_width > 0
        if tracked:
            if not self.free_slots:
                raise ValueError("more independent rows than tracking slots")
            slot = self.free_slots.pop()
            track = self._sum(inv << (SLOT_BITS * slot),
                              [(p, coef * inv % PRIME) for p, coef in hits], tracks)
            self.index_of[member] = slot
            self.slot_member[slot] = member
        # clear the new pivot column from every other kept row
        for p, other in rows.items():
            c = ((other >> shift) & _SLOT_MASK) % PRIME
            if c:
                c = PRIME - c
                rows[p] = other + c * row
                if tracked:
                    tracks[p] += c * track
                updates = pending[p] = pending.get(p, 0) + 1
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

    def extends(self, entries: Sequence[int]) -> bool:
        """Whether the row is independent of the basis.

        An independent row's reduction is saved for the ``insert`` of the
        same row object that may follow (module notes).
        """
        work, hits = self._reduce(entries)
        if work:
            self._saved = (entries, work, hits)
        return bool(work)

    def _expansion(self, entries: Sequence[int]) -> int:
        """The canonical tracking part of a dependent row's expansion in the kept rows."""
        # a dependent row is the sum of row[p] * rows[p] over the pivots p,
        # since every kept row is 1 at its own pivot and 0 at the others'
        rows, pending = self.rows, self.pending
        hits = []
        for c in compress(range(self.ncols), entries):
            if c in rows:
                v = entries[c] % PRIME
                if v:
                    hits.append((c, v))
                    if c in pending:
                        self._clean(c)
        return self._sum(0, hits, self.tracks)

    def circuit(self, entries: Sequence[int]) -> set[int]:
        """Members with nonzero coefficient in the expansion of a dependent row.

        The row must be dependent on the basis (``extends`` is False); on
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
        self._saved = None
        # raw[old] = (row - sum of the other slots' terms) / alpha, so a kept
        # row with beta at the slot takes beta / alpha * (e_slot - expansion)
        step = self._canonical(track * (PRIME - 1) + (1 << shift))
        inv = pow(alpha, -1, PRIME)
        tracks, pending = self.tracks, self.pending
        for p, other in tracks.items():
            beta = ((other >> shift) & _SLOT_MASK) % PRIME
            if beta:
                tracks[p] = other + beta * inv % PRIME * step
                updates = pending[p] = pending.get(p, 0) + 1
                if updates == FOLD:
                    self._clean(p)
        del self.index_of[old]
        self.index_of[member] = slot
        self.slot_member[slot] = member
        return True

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
        self._saved = None
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
        rows, tracks, pending = self.rows, self.tracks, self.pending
        for p, c in rest:
            f = PRIME - c * inv % PRIME
            rows[p] += f * row
            tracks[p] += f * track
            updates = pending[p] = pending.get(p, 0) + 1
            if updates == FOLD:
                self._clean(p)
        del rows[drop], tracks[drop]
        self.slot_member[slot] = -1
        self.free_slots.append(slot)
