"""Pin BLAS to one thread before numpy loads anywhere; shared fixtures."""

import os

for var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from amr2text.bpe import train_bpe  # noqa: E402
from toydata import toy_pairs  # noqa: E402


@pytest.fixture(scope="session")
def toy64():
    """64 deterministic synthetic AMR/text pairs."""
    return toy_pairs(64, seed=0)


@pytest.fixture(scope="session")
def toy_bpe_models(toy64):
    """(encoder model over linearizations, decoder model over en+de text)."""
    from amr2text.graph import parse_penman
    from amr2text.linearize import linearize_for_language

    lin_lines = [
        " ".join(linearize_for_language(parse_penman(p.amr)).tokens) for p in toy64
    ]
    text_lines = [p.texts["en"] for p in toy64] + [p.texts["de"] for p in toy64]
    enc = train_bpe(lin_lines, num_merges=120, protect_roles=True)
    dec = train_bpe(text_lines, num_merges=120)
    return enc, dec


@pytest.fixture
def rng():
    return np.random.default_rng(0)
