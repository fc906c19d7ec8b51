"""Text-artifact tripwire for the prep chain on data/toy.

Runs README quickstart stages 1-3 through ``cli.main``: linearize the
training graphs (no language token) and the test graphs for en and de,
train the encoder and decoder BPE models at 150 merges, and build the
corpus.  Also re-serializes the training and test graphs with
``parse-amr``, plain and indented.  Pins the SHA-256 of every token,
feature, model, examples and PENMAN file it writes.  None of these
artifacts involves floating point, so the digests hold on any machine.
"""

import hashlib
import os

from amr2text.cli import main

TOY = os.path.join(os.path.dirname(__file__), "..", "data", "toy")


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_prep_chain_artifacts(tmp_path):
    _run("linearize", "--in", f"{TOY}/train.amr", "--out", tmp_path / "graphs.lin")
    for lang in ("en", "de"):
        _run("linearize", "--in", f"{TOY}/test.amr", "--out", tmp_path / f"test.{lang}.lin",
             "--lang", lang)
    _run("train-bpe", "--in", tmp_path / "graphs.lin", "--merges", 150, "--protect-roles",
         "--languages", "en,de", "--out-dir", tmp_path / "enc-bpe")
    _run("train-bpe", "--in", f"{TOY}/train.en.txt", "--in", f"{TOY}/train.de.txt",
         "--merges", 150, "--languages", "en,de", "--out-dir", tmp_path / "dec-bpe")
    _run("build-corpus", "--manifest", f"{TOY}/manifest.tsv",
         "--enc-bpe", tmp_path / "enc-bpe" / "bpe.model",
         "--dec-bpe", tmp_path / "dec-bpe" / "bpe.model",
         "--languages", "en,de", "--out-dir", tmp_path / "corpus")
    got = {name: _sha256(tmp_path / name) for name in PINNED}
    assert got == PINNED


# Taken on data/toy with the README's settings; the encoder model stops at
# 112 merges because no adjacent pair is left.
PINNED = {
    "graphs.lin": "91c3ed62fdb55ba48202d8ebfb5a7a2f9e84336bef5296764455b4c153550961",
    "graphs.lin.feat": "a1bcfed97df6c233ad38d42638cbefc2119c5817aa0c3c6fcf41d092f5804d5d",
    "test.en.lin": "c6a52d4d88f351553d0947fe0f84a438c241f32b5e1b73635cccb537b25ee316",
    "test.en.lin.feat": "4bea0e08c821a63cfcad2118cbd32aeff455ad3302fa31e6687cb3748c4c3f04",
    "test.de.lin": "1c5aafb73485d868c449039e90c528fbd75744a677421d8e878e91ab14e85421",
    "test.de.lin.feat": "4bea0e08c821a63cfcad2118cbd32aeff455ad3302fa31e6687cb3748c4c3f04",
    "enc-bpe/bpe.model": "ede524afd4e7a409d95ae09c68affedd677cf6d7a7c953cb28782533f25e967d",
    "dec-bpe/bpe.model": "15d95c0910bff6a2f9ca97b4aefd1870d6f85fb2c0f1dfd52693144e78943222",
    "corpus/train.examples": "d9ea306d946cde37d0d4aae122412bdb37cdb3f753817bc808e3c484e630b003",
    "corpus/valid.examples": "e7312a472c45cbe430791447205af2a0bd6ea3355fde32a872adbe6b66adcb63",
    "corpus/test.examples": "ab92afde759198e4e42371215bfac7fbc8091ae36c0cae82d1291ad3ae2093c1",
}


def test_parse_amr_artifacts(tmp_path):
    for split in ("train", "test"):
        for layout, extra in (("plain", ()), ("indent", ("--indent",))):
            _run("parse-amr", "--in", f"{TOY}/{split}.amr",
                 "--out-dir", tmp_path / f"{split}.{layout}", *extra)
    got = {name: _sha256(tmp_path / name) for name in PINNED_PENMAN}
    assert got == PINNED_PENMAN


# Taken on data/toy; canonical PENMAN, one graph per line or indented.
PINNED_PENMAN = {
    "train.plain/parsed.amr": "ac17640a175ccf8626a60a90adb84d0001c8954c8d22740790185899de663890",
    "train.indent/parsed.amr": "27c0b9ba9c11bd790366e2a7191b628b339cfde627ff7ae4a86ec9fd5ba6ae32",
    "test.plain/parsed.amr": "4d9be385dc760b55595bab8650d1cd1b2fbe55a4ab714df3bf49a72f11dd1786",
    "test.indent/parsed.amr": "f550f28ef1d1390b1da46b69942b5e5f6b9d057e0bac4babf95981244b37f3b8",
}
