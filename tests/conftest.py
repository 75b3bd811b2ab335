import pytest

from rigidpack.linalg import SLOT_BITS, RowBasis
from rigidpack.rigidity import Realization, RigidityPartitionState


@pytest.fixture
def unlucky(monkeypatch):
    """``unlucky(*salts)`` scripts an unlucky realization at each given salt.

    Such a realization puts every vertex on a line, coords (x_v, 0, ...), so
    R_d reads as R_1 there.  Every other salt draws as usual.  The returned
    list records the salt of every realization drawn from then on.
    """
    draw = Realization.random.__func__

    def script(*salts):
        drawn = []

        def scripted(cls, n, d, seed, salt=0):
            drawn.append(salt)
            real = draw(cls, n, d, seed, salt)
            if salt not in salts:
                return real
            return cls(d, tuple((c[0],) + (0,) * (d - 1) for c in real.coords), seed, salt)

        monkeypatch.setattr(Realization, "random", classmethod(scripted))
        return drawn

    return script


def _bump_a_tracking_slot(basis, members):
    # T * Raw = R fails: one live member's coefficient in one kept row is off by 1
    pivot = next(iter(basis.tracks))
    basis.tracks[pivot] += 1 << (SLOT_BITS * basis.index_of[min(members)])


def _double_a_row(basis, members):
    # top slot 2: T * Raw = R still holds, but R is no longer known to have full rank
    pivot = next(iter(basis.rows))
    basis._clean(pivot)
    basis.rows[pivot] *= 2
    basis.tracks[pivot] *= 2


def _add_a_member(basis, members):
    basis.index_of[max(members) + 1] = len(basis.slot_member)


def _drop_a_member(basis, members):
    slot = basis.index_of.pop(min(members))
    basis.slot_member[slot] = -1


def _fill_a_free_slot(basis, members):
    # no live member holds the slot, so only the free-slot check sees it
    pivot = next(iter(basis.tracks))
    basis.tracks[pivot] += 5 << (SLOT_BITS * basis.free_slots[-1])


_FAULTS = {
    "tracking-slot-plus-one": _bump_a_tracking_slot,
    "top-slot-two": _double_a_row,
    "member-added": _add_a_member,
    "member-dropped": _drop_a_member,
    "free-slot-coefficient": _fill_a_free_slot,
}


@pytest.fixture
def basis_faults():
    """Kind -> ``fault(basis, members)``, each breaking one condition of
    ``RowBasis.certify`` in a finished tracked basis."""
    return dict(_FAULTS)


@pytest.fixture
def corruptions():
    """Kind -> ``install(patch)``: every rigid partition state that certifies
    a part while ``patch`` (a monkeypatch context) is active is first
    corrupted that way.  Only finished states certify, and each kind breaks
    one condition of the witness (``RowBasis.certify``).  For a free slot to
    exist in a full part, "free-slot-coefficient" also gives every state
    one spare tracking slot, which no member ever takes.
    """

    def installer(kind):
        fault = _FAULTS[kind]

        def install(patch):
            certify = RigidityPartitionState.certify
            init = RigidityPartitionState.__init__

            def corrupted(self, members):
                fault(self.basis, members)
                return certify(self, members)

            def spare(self, oracle):
                init(self, oracle)
                self.basis = RowBasis(self.basis.ncols, self.basis.track_width + 1)

            patch.setattr(RigidityPartitionState, "certify", corrupted)
            if kind == "free-slot-coefficient":
                patch.setattr(RigidityPartitionState, "__init__", spare)

        return install

    return {kind: installer(kind) for kind in _FAULTS}
