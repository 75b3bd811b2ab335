import pytest

from rigidpack.rigidity import Realization


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
