import numpy as np

from skewvn import matcore


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_frob_scales_exactly():
    rng = np.random.default_rng(19)
    m = random_complex(rng, 5, 5)
    assert matcore.frob(m) == float(np.linalg.norm(m, "fro"))
    for k in (600, -600):
        assert matcore.frob(m * 2.0**k) == matcore.frob(m) * 2.0**k
    assert matcore.frob(np.zeros((3, 3))) == 0.0
