import numpy as np
import pytest

from qseal.rng import derive_rng


def draws(*labels):
    return derive_rng(0, *labels).integers(0, 2 ** 62, size=4).tolist()


class TestDeriveRng:
    def test_builtin_stream_is_pinned(self):
        # value of the stream before numpy labels were canonicalized
        assert derive_rng(0, "a", 3).random() == 0.7544896677956716

    @pytest.mark.parametrize("builtin,scalar", [
        (3, np.int64(3)),
        (3, np.uint8(3)),
        (0.5, np.float64(0.5)),
        (True, np.bool_(True)),
        ("a", np.str_("a")),
    ], ids=["int64", "uint8", "float64", "bool", "str"])
    def test_numpy_scalar_label_matches_builtin(self, builtin, scalar):
        assert draws("x", builtin) == draws("x", scalar)

    def test_distinct_labels_give_distinct_streams(self):
        assert draws("x", 3) != draws("x", 4)
        assert draws("x", 3) != draws("x", "3")
        assert draws("x", 3) != derive_rng(1, "x", 3).integers(0, 2 ** 62, size=4).tolist()
