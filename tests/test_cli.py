"""Command-line interface tests: exit codes, config handling, light commands.

Pretraining is exercised end to end by the acceptance tests.  The README
quickstart chain (linearize, train-bpe, build-corpus, train, generate,
evaluate, attention-dump) runs here on data/toy with a tiny model and a few updates.
"""

import argparse
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from amr2text import cli
from amr2text.bpe import decode as bpe_decode
from amr2text.bpe import load_bpe
from amr2text.corpus import encode_linearized, load_examples
from amr2text.generation import BeamConfig, beam_search
from amr2text.linearize import read_linearized
from amr2text.model import EncoderInput, ModelConfig, load_checkpoint, read_arrays
from amr2text.cli import DEFAULTS, main
from oracles import read_attention_dump

TOY = os.path.join(os.path.dirname(__file__), "..", "data", "toy")

AMRS = [
    "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))",
    "(s / see-01 :ARG0 (d / dog) :ARG1 (c / cat :mod (s2 / small)))",
]


@pytest.fixture
def amr_file(tmp_path):
    p = tmp_path / "in.amr"
    p.write_text("\n".join(AMRS) + "\n", encoding="utf-8")
    return str(p)


def run(*argv):
    return main(list(argv))


def test_parse_amr_round_trip(tmp_path, amr_file, capsys):
    out = tmp_path / "out"
    assert run("parse-amr", "--in", amr_file, "--out-dir", str(out)) == 0
    parsed = (out / "parsed.amr").read_text(encoding="utf-8").splitlines()
    assert parsed == AMRS
    assert (out / "run.config.txt").exists()
    assert "parsed 2 graphs" in capsys.readouterr().out


def test_parse_amr_indent_mode(tmp_path, amr_file):
    out = tmp_path / "out"
    assert run("parse-amr", "--in", amr_file, "--indent", "--out-dir", str(out)) == 0
    text = (out / "parsed.amr").read_text(encoding="utf-8")
    assert "\n    " in text  # multi-line layout


def test_usage_errors_exit_1(tmp_path, amr_file, capsys):
    assert run("parse-amr", "--no-such-flag") == 1
    assert run("no-such-command") == 1
    assert run("parse-amr", "--in", amr_file, "--out-dir", str(tmp_path / "o"),
               "--set", "nonsense.key=1") == 1
    assert run("parse-amr", "--in", amr_file, "--out-dir", str(tmp_path / "o"),
               "--set", "beam.size") == 1  # missing '='
    assert run("parse-amr", "--in", amr_file, "--out-dir", str(tmp_path / "o"),
               "--set", "beam.size=abc") == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_data_errors_exit_2(tmp_path, capsys):
    assert run("parse-amr", "--in", str(tmp_path / "missing.amr"),
               "--out-dir", str(tmp_path / "o")) == 2
    bad = tmp_path / "bad.amr"
    bad.write_text("(w / want-01 :ARG0 (b / boy)\n", encoding="utf-8")
    assert run("parse-amr", "--in", str(bad), "--out-dir", str(tmp_path / "o")) == 2
    assert "data error:" in capsys.readouterr().err


# PENMAN text whose second graph has a cycle, or whose first graph has a
# target where a role belongs, and where each error is reported.
BAD_PENMAN = {
    "cycle": (AMRS[0] + "\n(x / a :ARG0 (z / b :ARG1 x))\n",
              "graph 2: cycle through x -> z -> x"),
    "misplaced-node": ("(w / want-01 :ARG0 b (b / boy))\n",
                       "graph 1: expected role, found open-paren '(' (at offset 21)"),
}


@pytest.mark.parametrize("case", sorted(BAD_PENMAN))
@pytest.mark.parametrize("command", ["parse-amr", "linearize", "pretrain-encoder",
                                     "overlap-stats"])
def test_penman_errors_name_file_and_graph(tmp_path, capsys, command, case):
    text, where = BAD_PENMAN[case]
    amr = tmp_path / "bad.amr"
    amr.write_text(text, encoding="utf-8")
    bpe_argv, bpe_dir = _bpe_args(tmp_path)
    assert run(*bpe_argv) == 0
    bpe, out = str(bpe_dir / "bpe.model"), str(tmp_path / "out")
    argv = {
        "parse-amr": ["--in", str(amr), "--out-dir", out],
        "linearize": ["--in", str(amr), "--out", str(tmp_path / "bad.lin")],
        "pretrain-encoder": ["--amr", str(amr), "--bpe", bpe, "--seed", "1", "--out-dir", out],
        "overlap-stats": ["--amr", str(amr), "--bpe", bpe, "--target",
                          f"en={tmp_path / 'text.txt'}", "--bleu", "en=1"],
    }[command]
    capsys.readouterr()
    assert run(command, *argv) == 2
    assert capsys.readouterr().err == f"data error: {amr}: {where}\n"


def test_missing_required_seed_is_usage_error(tmp_path):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    assert run("human-eval-sheet", "--hyp", str(hyp), "--ref", str(ref),
               "--out-dir", str(tmp_path / "o")) == 1


def _bpe_args(tmp_path, *extra):
    corpus = tmp_path / "text.txt"
    corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
    out = tmp_path / "bpe"
    return ["train-bpe", "--in", str(corpus), "--out-dir", str(out), *extra], out


def _read_config(out_dir):
    cfg = {}
    with open(os.path.join(out_dir, "run.config.txt"), encoding="utf-8") as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cfg[key] = value
    return cfg


def test_config_precedence_file_set_flag(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("bpe.merges=5\nbeam.size=7\n", encoding="utf-8")

    argv, out = _bpe_args(tmp_path, "--config", str(conf))
    assert run(*argv) == 0
    echoed = _read_config(out)
    assert echoed["bpe.merges"] == "5"
    assert echoed["beam.size"] == "7"

    argv, out = _bpe_args(tmp_path, "--config", str(conf), "--set", "bpe.merges=8")
    assert run(*argv) == 0
    assert _read_config(out)["bpe.merges"] == "8"

    argv, out = _bpe_args(
        tmp_path, "--config", str(conf), "--set", "bpe.merges=8", "--merges", "9"
    )
    assert run(*argv) == 0
    assert _read_config(out)["bpe.merges"] == "9"


def test_unknown_config_file_key_rejected(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("not.a.key=1\n", encoding="utf-8")
    argv, _ = _bpe_args(tmp_path, "--config", str(conf))
    assert run(*argv) == 1


# Every config key with the type of its default: the dataclass fields of
# TrainConfig, ModelConfig, BeamConfig and NoiseSpec the CLI exposes, plus
# the keys no dataclass holds.
DEFAULT_KEY_TYPES = {
    "beam.alpha": float, "beam.max_len": int, "beam.min_len": int, "beam.size": int,
    "bpe.merges": int, "bpe.protect_roles": bool,
    "corpus.derive_n": int, "corpus.split_mode": str,
    "eval.tokenize": bool,
    "model.d_depth": int, "model.d_model": int, "model.d_pos": int,
    "model.d_subgraph": int, "model.d_word": int, "model.dec_layers": int,
    "model.depth_buckets": int, "model.enc_layers": int, "model.ffn_dim": int,
    "model.max_positions": int, "model.n_heads": int, "model.subgraph_buckets": int,
    "noise.mask_prob": float, "noise.rounds": int, "noise.shuffle": bool,
    "noise.span_lambda": float, "noise.span_mass": float,
    "overlap.token_level": bool,
    "sheet.min_words": int, "sheet.n_high": int, "sheet.n_low": int,
    "train.base_lr": float, "train.checkpoint_every": int, "train.dropout": float,
    "train.label_smoothing": float, "train.layerdrop": float,
    "train.max_tokens_per_batch": int, "train.max_updates": int,
    "train.warmup_steps": int,
}


def test_default_keys_and_types_are_pinned():
    assert len(DEFAULT_KEY_TYPES) == 38
    assert {key: type(value) for key, value in DEFAULTS.items()} == DEFAULT_KEY_TYPES


@pytest.mark.parametrize(
    "key,value", [("corpus.split_mode", "nope")]
)
def test_bad_choice_rejected_before_any_work(tmp_path, monkeypatch, capsys, key, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with a bad setting")

    monkeypatch.setattr(cli, "train_bpe", no_work)
    argv, out = _bpe_args(tmp_path, "--set", f"{key}={value}")
    assert run(*argv) == 1
    assert not out.exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", "c", "--seed", "1", "--set", "train.warmup_steps=0"],
    ["generate", "--model", "m.ckpt", "--input", "in.lin", "--set", "beam.min_len=20",
     "--max-len", "12"],
], ids=["train", "generate"])
def test_bad_value_rejected_before_any_work(tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with a bad setting")

    monkeypatch.setattr(cli, "load_bpe", no_work)
    monkeypatch.setattr(cli, "load_checkpoint", no_work)
    out = tmp_path / "out"
    assert run(*argv, "--enc-bpe", "e", "--dec-bpe", "d", "--out-dir", str(out)) == 1
    assert not out.exists()  # no run.config.txt either
    assert "bad setting" in capsys.readouterr().err


def test_effective_config_lists_all_keys(tmp_path):
    argv, out = _bpe_args(tmp_path)
    assert run(*argv) == 0
    echoed = _read_config(out)
    for key in DEFAULTS:
        assert key in echoed
    assert echoed["subcommand"] == "train-bpe"


def test_train_bpe_writes_model(tmp_path):
    argv, out = _bpe_args(tmp_path, "--merges", "10")
    assert run(*argv) == 0
    text = (out / "bpe.model").read_text(encoding="utf-8")
    assert text.startswith("bpe v1 10\n") or text.startswith("bpe v1 ")


def test_linearize_round_trip(tmp_path, amr_file):
    out = tmp_path / "lin.tok"
    assert run("linearize", "--in", amr_file, "--out", str(out), "--lang", "en") == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("<lang:en> ( want-01")
    feats = (tmp_path / "lin.tok.feat").read_text(encoding="utf-8").splitlines()
    assert len(feats) == 2
    assert all(":" in pair for pair in feats[0].split())


def test_linearize_rejects_unknown_language(tmp_path, amr_file):
    assert run("linearize", "--in", amr_file, "--out", str(tmp_path / "x"),
               "--lang", "xx") == 2


def test_evaluate_prints_signature(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("the cat sat on the mat\n", encoding="utf-8")
    ref.write_text("the cat sat on the mat\n", encoding="utf-8")
    assert run("evaluate", "--hyp", str(hyp), "--ref", str(ref)) == 0
    out = capsys.readouterr().out
    assert out.startswith("BLEU = 100.00")
    assert "BP = 1.000" in out


def test_evaluate_writes_report_with_out_dir(tmp_path):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("the cat sat\n", encoding="utf-8")
    ref.write_text("the cat sat down\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run("evaluate", "--hyp", str(hyp), "--ref", str(ref),
               "--out-dir", str(out)) == 0
    assert (out / "bleu.txt").read_text(encoding="utf-8").startswith("BLEU = ")


def test_evaluate_line_mismatch_is_data_error(tmp_path):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    assert run("evaluate", "--hyp", str(hyp), "--ref", str(ref)) == 2


def test_human_eval_sheet(tmp_path):
    n = 30
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text(
        "".join(f"hypothesis number {i} with plenty of words\n" for i in range(n)),
        encoding="utf-8",
    )
    ref.write_text(
        "".join(f"reference number {i} with plenty of words\n" for i in range(n)),
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run("human-eval-sheet", "--hyp", str(hyp), "--ref", str(ref),
               "--seed", "0", "--n-high", "4", "--n-low", "4",
               "--out-dir", str(out)) == 0
    lines = (out / "sheet.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id\thypothesis\treference"
    assert len(lines) == 9


def test_rerun_is_byte_identical(tmp_path, amr_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        lin = out / "lin.tok"
        os.makedirs(out)
        assert run("linearize", "--in", amr_file, "--out", str(lin),
                   "--lang", "de", "--out-dir", str(out)) == 0
    for name in ("lin.tok", "lin.tok.feat"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_bpe_deterministic(tmp_path):
    os.makedirs(tmp_path / "a")
    os.makedirs(tmp_path / "b")
    argv_a, out_a = _bpe_args(tmp_path / "a")
    argv_b, out_b = _bpe_args(tmp_path / "b")
    assert run(*argv_a) == 0
    assert run(*argv_b) == 0
    assert (out_a / "bpe.model").read_bytes() == (out_b / "bpe.model").read_bytes()


def test_overlap_stats_command(tmp_path, amr_file, capsys):
    targets = {}
    for lang, words in (("en", "boy"), ("de", "junge"), ("it", "ragazzo")):
        p = tmp_path / f"{lang}.txt"
        p.write_text(f"the {words} wants\nthe {words} sees\n", encoding="utf-8")
        targets[lang] = p
    corpus = tmp_path / "all.txt"
    corpus.write_text(
        "".join(p.read_text(encoding="utf-8") for p in targets.values()),
        encoding="utf-8",
    )
    bpe_out = tmp_path / "bpe"
    assert run("train-bpe", "--in", str(corpus), "--out-dir", str(bpe_out),
               "--languages", "en,de,it") == 0
    out = tmp_path / "o"
    assert run(
        "overlap-stats", "--amr", amr_file, "--bpe", str(bpe_out / "bpe.model"),
        "--target", f"en={targets['en']}", "--target", f"de={targets['de']}",
        "--target", f"it={targets['it']}",
        "--bleu", "en=30", "--bleu", "de=20", "--bleu", "it=10",
        "--out-dir", str(out),
    ) == 0
    table = capsys.readouterr().out
    assert "pearson" in table
    assert (out / "overlap.tsv").exists()


def test_overlap_stats_bad_bleu_value(tmp_path, amr_file):
    assert run(
        "overlap-stats", "--amr", amr_file, "--bpe", "x",
        "--target", "en=/nope", "--bleu", "en=notanumber",
    ) == 1


def test_overlap_stats_target_and_bleu_name_the_same_languages(tmp_path, amr_file, capsys):
    """A language given to only one of --target and --bleu is a usage error
    naming it; a --bleu language outside the registry is rejected like a
    --target one."""
    targets = [f"--target={lang}=/nope" for lang in ("en", "de", "fr", "es")]
    bleus = [f"--bleu={lang}=10" for lang in ("en", "de", "fr", "it")]
    assert run("overlap-stats", "--amr", amr_file, "--bpe", "x", *targets, *bleus) == 1
    assert capsys.readouterr().err == (
        "error: --target and --bleu name different languages: es,it\n"
    )
    assert run("overlap-stats", "--amr", amr_file, "--bpe", "x", *targets, *bleus,
               "--bleu", "zz=5") == 2
    assert "'zz'" in capsys.readouterr().err


# --- quickstart chain --------------------------------------------------------

TINY_MODEL = """\
model.d_model = 32
model.n_heads = 2
model.ffn_dim = 48
model.enc_layers = 1
model.dec_layers = 1
model.max_positions = 40
model.d_word = 16
model.d_pos = 8
model.d_depth = 4
model.d_subgraph = 4
train.base_lr = 0.002
train.warmup_steps = 2
train.max_updates = 4
train.checkpoint_every = 2
train.dropout = 0.0
train.layerdrop = 0.0
"""
MAX_LEN = 12


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """Files of the README quickstart, stages 1-6 without the human-eval sheet."""
    w = tmp_path_factory.mktemp("quickstart")
    paths = {
        "enc_bpe": str(w / "enc-bpe" / "bpe.model"),
        "dec_bpe": str(w / "dec-bpe" / "bpe.model"),
        "model": str(w / "run" / "best.ckpt"),
        "test_lin": str(w / "test.en.lin"),
        "w": w,
    }
    (w / "train.cfg").write_text(TINY_MODEL, encoding="utf-8")
    steps = [
        ["linearize", "--in", f"{TOY}/train.amr", "--out", str(w / "graphs.lin")],
        ["train-bpe", "--in", str(w / "graphs.lin"), "--merges", "60", "--protect-roles",
         "--languages", "en,de", "--out-dir", str(w / "enc-bpe")],
        ["train-bpe", "--in", f"{TOY}/train.en.txt", "--in", f"{TOY}/train.de.txt",
         "--merges", "60", "--languages", "en,de", "--out-dir", str(w / "dec-bpe")],
        ["build-corpus", "--manifest", f"{TOY}/manifest.tsv", "--enc-bpe", paths["enc_bpe"],
         "--dec-bpe", paths["dec_bpe"], "--languages", "en,de", "--out-dir", str(w / "corpus")],
        ["train", "--corpus", str(w / "corpus"), "--enc-bpe", paths["enc_bpe"],
         "--dec-bpe", paths["dec_bpe"], "--seed", "1", "--config", str(w / "train.cfg"),
         "--out-dir", str(w / "run")],
        ["linearize", "--in", f"{TOY}/test.amr", "--out", paths["test_lin"], "--lang", "en"],
    ]
    for beam in (5, 1):
        steps.append(
            ["generate", "--model", paths["model"], "--input", paths["test_lin"],
             "--enc-bpe", paths["enc_bpe"], "--dec-bpe", paths["dec_bpe"],
             "--beam", str(beam), "--max-len", str(MAX_LEN), "--out-dir", str(w / f"gen{beam}")]
        )
    steps.append(["evaluate", "--hyp", str(w / "gen5" / "hypotheses.txt"),
                  "--ref", f"{TOY}/test.en.txt", "--out-dir", str(w / "bleu")])
    steps.append(
        ["attention-dump", "--model", paths["model"], "--input", paths["test_lin"],
         "--line", "0", "--enc-bpe", paths["enc_bpe"], "--dec-bpe", paths["dec_bpe"],
         "--max-len", str(MAX_LEN), "--out-dir", str(w / "attn")]
    )
    for argv in steps:
        assert run(*argv) == 0, argv
    return paths


def _library_beam(paths, line: int, beam: int):
    enc, dec = load_bpe(paths["enc_bpe"]), load_bpe(paths["dec_bpe"])
    lin = read_linearized(paths["test_lin"], paths["test_lin"] + ".feat")[line]
    ids, depth, sub = encode_linearized(lin, enc)
    enc_in = EncoderInput(np.asarray(ids), np.asarray(depth), np.asarray(sub))
    cfg = BeamConfig(size=beam, max_len=MAX_LEN, min_len=DEFAULTS["beam.min_len"])
    best, _ = beam_search(load_checkpoint(paths["model"]), enc_in, cfg, dec.bos_id, dec.eos_id)
    return best, ids, dec


@pytest.mark.parametrize("beam", [5, 1])
def test_quickstart_generate_matches_library_search(quickstart, beam):
    out = quickstart["w"] / f"gen{beam}"
    hyps = (out / "hypotheses.txt").read_text(encoding="utf-8").splitlines()
    scores = (out / "scores.txt").read_text(encoding="utf-8").splitlines()
    assert len(hyps) == len(scores) == 8
    for line in range(len(hyps)):
        best, _, dec = _library_beam(quickstart, line, beam)
        assert hyps[line] == bpe_decode(dec, best.generated(dec.eos_id))
        assert scores[line] == f"{best.score:.6f}\t{best.logprob:.6f}"


def test_quickstart_evaluate_writes_bleu(quickstart):
    line = (quickstart["w"] / "bleu" / "bleu.txt").read_text(encoding="utf-8")
    assert line.startswith("BLEU = ") and "hyp_len = " in line


def test_quickstart_attention_dump_grid(quickstart):
    columns, rows, grid = read_attention_dump(quickstart["w"] / "attn" / "attention.tsv")
    best, src_ids, dec = _library_beam(quickstart, 0, DEFAULTS["beam.size"])
    assert grid.shape == (len(best.ids) - 1, len(src_ids)) == (len(rows), len(columns))
    assert rows == [dec.piece(i) for i in best.ids[1:]]
    np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-4)


@pytest.mark.parametrize("command", ["generate", "attention-dump"])
def test_max_len_beyond_positions_exits_2_before_decoding(quickstart, command, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("decoded a line with an unreachable max_len")

    monkeypatch.setattr(cli, "beam_search", no_search)
    out = quickstart["w"] / f"too-long-{command}"
    argv = [command, "--model", quickstart["model"], "--input", quickstart["test_lin"],
            "--enc-bpe", quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"],
            "--max-len", "41", "--out-dir", str(out)]
    assert run(*argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "attention-dump"])
def test_missing_explicit_features_file_exits_2(quickstart, command):
    """An explicit --features path must exist."""
    out = quickstart["w"] / f"no-features-{command}"
    argv = [command, "--model", quickstart["model"], "--input", quickstart["test_lin"],
            "--features", str(quickstart["w"] / "no-such.feat"),
            "--enc-bpe", quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"],
            "--max-len", str(MAX_LEN), "--out-dir", str(out)]
    assert run(*argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "attention-dump"])
def test_missing_default_features_file_exits_2(quickstart, command, tmp_path):
    """Without --features, INPUT.feat must exist: no decoding on invented zero ids."""
    tokens_only = tmp_path / "test.en.lin"
    tokens_only.write_bytes(Path(quickstart["test_lin"]).read_bytes())
    out = tmp_path / "out"
    argv = [command, "--model", quickstart["model"], "--input", str(tokens_only),
            "--enc-bpe", quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"],
            "--max-len", str(MAX_LEN), "--out-dir", str(out)]
    assert run(*argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("case", ["no-lang", "other-lang"])
def test_generate_checks_every_line_language_before_work(quickstart, case, tmp_path,
                                                         monkeypatch):
    """A bad language token on the last line fails before any line is decoded."""
    def no_search(*args, **kwargs):
        raise AssertionError("decoded a line before checking every line's language")

    monkeypatch.setattr(cli, "beam_search", no_search)
    tokens = Path(quickstart["test_lin"]).read_text(encoding="utf-8").splitlines()
    feats = Path(quickstart["test_lin"] + ".feat").read_text(encoding="utf-8").splitlines()
    assert tokens[-1].startswith("<lang:en> ")
    if case == "no-lang":
        tokens[-1] = tokens[-1].split(" ", 1)[1]
        feats[-1] = feats[-1].split(" ", 1)[1]
        lang_flag = []
    else:
        tokens[-1] = "<lang:de> " + tokens[-1].split(" ", 1)[1]
        lang_flag = ["--lang", "en"]
    lin = tmp_path / "mixed.lin"
    lin.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    (tmp_path / "mixed.lin.feat").write_text("\n".join(feats) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["generate", "--model", quickstart["model"], "--input", str(lin),
            "--enc-bpe", quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"],
            "--max-len", str(MAX_LEN), *lang_flag, "--out-dir", str(out)]
    assert run(*argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("case", ["too-long", "id-past-vocab"])
def test_generate_checks_every_line_fits_the_encoder_before_work(quickstart, case, tmp_path,
                                                                 monkeypatch, capsys):
    """A last line the encoder cannot read fails, naming the line, before any decoding."""
    def no_search(*args, **kwargs):
        raise AssertionError("decoded a line before checking every line fits the encoder")

    monkeypatch.setattr(cli, "beam_search", no_search)
    tokens = Path(quickstart["test_lin"]).read_text(encoding="utf-8").splitlines()
    feats = Path(quickstart["test_lin"] + ".feat").read_text(encoding="utf-8").splitlines()
    enc_bpe = Path(quickstart["enc_bpe"])
    if case == "too-long":  # the model has 40 positions
        tokens[-1] += " boy" * 40
        feats[-1] += " 0:0" * 40
    else:  # a protected piece one past the vocabulary the model was trained with
        model_text = enc_bpe.read_text(encoding="utf-8")
        size = load_bpe(enc_bpe).vocab_size
        enc_bpe = tmp_path / "bpe.model"
        enc_bpe.write_text(model_text.replace("#protected\n", f":zzz {size}\n#protected\n:zzz\n"),
                           encoding="utf-8")
        tokens[-1] = tokens[-1].replace(":ARG0", ":zzz", 1)
    lin = tmp_path / "bad.lin"
    lin.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    (tmp_path / "bad.lin.feat").write_text("\n".join(feats) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["generate", "--model", quickstart["model"], "--input", str(lin),
            "--enc-bpe", str(enc_bpe), "--dec-bpe", quickstart["dec_bpe"],
            "--max-len", str(MAX_LEN), "--out-dir", str(out)]
    assert run(*argv) == 2
    assert not out.exists()
    assert f"line {len(tokens)}:" in capsys.readouterr().err


def test_train_buckets_features_past_the_last_row(quickstart):
    """Toy graphs reach depth 2; one depth bucket (rows 0 and 1) must still train."""
    w = quickstart["w"]
    assert max(max(ex.src_depth_ids) for ex in load_examples(w / "corpus" / "train.examples")) == 2
    out = w / "one-depth-bucket"
    assert run("train", "--corpus", str(w / "corpus"), "--enc-bpe", quickstart["enc_bpe"],
               "--dec-bpe", quickstart["dec_bpe"], "--seed", "1", "--config", str(w / "train.cfg"),
               "--set", "train.max_updates=2", "--set", "model.depth_buckets=1",
               "--out-dir", str(out)) == 0
    assert load_checkpoint(out / "best.ckpt").config.depth_buckets == 1


@pytest.mark.parametrize("command", ["pretrain-encoder", "pretrain-decoder"])
def test_pretraining_log_streams_and_rerun_overwrites(quickstart, command):
    w = quickstart["w"]
    if command == "pretrain-encoder":
        inputs = ["--amr", f"{TOY}/train.amr", "--bpe", quickstart["enc_bpe"], "--rounds", "1"]
    else:
        inputs = ["--text", f"en={TOY}/train.en.txt", "--bpe", quickstart["dec_bpe"]]
    argv = [command, *inputs, "--seed", "1", "--config", str(w / "train.cfg"),
            "--out-dir", str(w / command)]
    log_path = w / command / "pretrain.log"
    assert run(*argv) == 0
    log = log_path.read_text(encoding="utf-8")
    assert run(*argv) == 0
    assert log_path.read_text(encoding="utf-8") == log
    rows = [line.split("\t") for line in log.splitlines()]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    # Only encoder pretraining validates, at every checkpoint_every (2) updates.
    validated = [row[0] for row in rows if row[3]]
    assert validated == (["2", "4"] if command == "pretrain-encoder" else [])
    # The checkpoint header is the architecture: no training rate is recorded.
    ckpt = "encoder.ckpt" if command == "pretrain-encoder" else "decoder.ckpt"
    header, _ = read_arrays(w / command / ckpt)
    assert list(header) == [f.name for f in fields(ModelConfig)]


@pytest.mark.parametrize("index", [["--layer", "1"], ["--layer", "-2"], ["--head", "2"],
                                   ["--head", "-3"]], ids="=".join)
def test_attention_dump_index_outside_model_exits_2_before_decoding(quickstart, index,
                                                                    monkeypatch):
    """The quickstart model has one decoder layer and two heads."""
    def no_search(*args, **kwargs):
        raise AssertionError("decoded a line for a layer or head the model lacks")

    monkeypatch.setattr(cli, "beam_search", no_search)
    out = quickstart["w"] / f"attn{''.join(index)}"
    argv = ["attention-dump", "--model", quickstart["model"], "--input", quickstart["test_lin"],
            "--enc-bpe", quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"],
            "--max-len", str(MAX_LEN), *index, "--out-dir", str(out)]
    assert run(*argv) == 2
    assert not out.exists()


def test_attention_dump_accepts_negative_layer_and_head(quickstart):
    out = quickstart["w"] / "attn-negative"
    assert run("attention-dump", "--model", quickstart["model"],
               "--input", quickstart["test_lin"], "--enc-bpe", quickstart["enc_bpe"],
               "--dec-bpe", quickstart["dec_bpe"], "--max-len", str(MAX_LEN),
               "--layer", "-1", "--head", "-2", "--out-dir", str(out)) == 0
    assert (out / "attention.tsv").exists()


@pytest.mark.parametrize("case", ["train", "valid", "pretrain-encoder", "pretrain-decoder"])
def test_empty_training_data_exits_2_before_work(quickstart, case, tmp_path):
    """An empty train.examples or valid.examples, an --amr file with no
    graphs, or an empty --text file."""
    w = quickstart["w"]
    if case == "pretrain-encoder":
        amr = tmp_path / "empty.amr"
        amr.write_text("# no graphs here\n\n", encoding="utf-8")
        argv = ["pretrain-encoder", "--amr", str(amr), "--bpe", quickstart["enc_bpe"]]
    elif case == "pretrain-decoder":
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        argv = ["pretrain-decoder", "--text", f"en={tmp_path / 'empty.txt'}",
                "--bpe", quickstart["dec_bpe"]]
    else:
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("train", "valid"):
            examples = b"" if name == case else (w / "corpus" / f"{name}.examples").read_bytes()
            (corpus / f"{name}.examples").write_bytes(examples)
        argv = ["train", "--corpus", str(corpus), "--enc-bpe", quickstart["enc_bpe"],
                "--dec-bpe", quickstart["dec_bpe"]]
    out = tmp_path / "out"
    assert run(*argv, "--seed", "1", "--config", str(w / "train.cfg"), "--out-dir", str(out)) == 2
    assert not out.exists()


def test_language_given_twice_is_usage_error_before_work(quickstart, amr_file, tmp_path,
                                                        capsys):
    """Both values of a repeated LANG=VALUE language would otherwise reach
    the run as the last one alone."""
    w = quickstart["w"]
    out = tmp_path / "out"
    assert run("pretrain-decoder", "--text", f"en={TOY}/train.en.txt",
               "--text", f"en={TOY}/valid.en.txt", "--bpe", quickstart["dec_bpe"],
               "--seed", "1", "--config", str(w / "train.cfg"), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "error: --text gives 'en' more than once\n"
    assert not out.exists()
    assert run("overlap-stats", "--amr", amr_file, "--bpe", "x", "--target", "en=/a",
               "--bleu", "en=1", "--bleu", "en=2", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "error: --bleu gives 'en' more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["train", "valid"])
def test_train_rejects_targets_without_bos_before_work(quickstart, case, tmp_path):
    """Every target of train.examples (or valid.examples) starts with id 7,
    not the decoder BPE's bos."""
    w = quickstart["w"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("train", "valid"):
        lines = (w / "corpus" / f"{name}.examples").read_text(encoding="utf-8").splitlines()
        if name == case:  # the target is the last column; its first id is bos
            lines = [re.sub(r"\t\d+( [^\t]*)$", r"\t7\1", line) for line in lines]
            assert all(line.split("\t")[-1].startswith("7 ") for line in lines)
        (corpus / f"{name}.examples").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", "--corpus", str(corpus), "--enc-bpe", quickstart["enc_bpe"],
               "--dec-bpe", quickstart["dec_bpe"], "--seed", "1",
               "--config", str(w / "train.cfg"), "--out-dir", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("case", ["long-source", "target-id"])
def test_train_checks_examples_against_the_model_before_work(quickstart, case, tmp_path,
                                                             capsys):
    """The first valid.examples source is longer than max_positions (40), or
    the second train.examples target holds an id past the decoder vocabulary."""
    w = quickstart["w"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    name, n = ("valid", 1) if case == "long-source" else ("train", 2)
    for split in ("train", "valid"):
        (corpus / f"{split}.examples").write_bytes((w / "corpus" / f"{split}.examples").read_bytes())
    path = corpus / f"{name}.examples"
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = lines[n - 1].split("\t")
    if case == "long-source":
        cols[1:4] = [" ".join([col.split()[0]] * 41) for col in cols[1:4]]
        expected = "enc_pos_emb: input length 41 exceeds max_positions 40"
    else:
        vocab = load_bpe(quickstart["dec_bpe"]).vocab_size
        tgt = [int(i) for i in cols[4].split()]
        tgt[1] = vocab
        cols[4] = " ".join(map(str, tgt))
        low = min(tgt[:-1])  # the teacher-forced prefix drops eos
        expected = f"dec_word_emb: ids span [{low}, {vocab}] but table has {vocab} rows"
    lines[n - 1] = "\t".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("train", "--corpus", str(corpus), "--enc-bpe", quickstart["enc_bpe"],
               "--dec-bpe", quickstart["dec_bpe"], "--seed", "1",
               "--config", str(w / "train.cfg"), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"data error: {path}: example {n}: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["enc-merge", "dec-merge", "dec-not-utf8", "ckpt-header"])
def test_generate_model_file_errors_name_the_file(quickstart, case, tmp_path, capsys):
    """A broken bpe.model or checkpoint fails with its own path in the message."""
    paths = {"enc": Path(quickstart["enc_bpe"]), "dec": Path(quickstart["dec_bpe"]),
             "ckpt": Path(quickstart["model"])}
    kind = case.split("-")[0]
    bad = tmp_path / paths[kind].name
    if kind == "ckpt":
        blob = paths[kind].read_bytes()
        assert b"\nd_model=32\n" in blob
        bad.write_bytes(blob.replace(b"\nd_model=32\n", b"\nd_model=x\n", 1))
        expected = f"{bad}: bad header value: invalid literal for int() with base 10: 'x'"
    elif case == "dec-not-utf8":
        lines = paths[kind].read_bytes().split(b"\n")
        lines[4] = b"\xff \xfe"
        bad.write_bytes(b"\n".join(lines))
        expected = f"{bad}: line 5: not UTF-8 text"
    else:
        lines = paths[kind].read_text(encoding="utf-8").split("\n")
        lines[4] += " extra"
        bad.write_text("\n".join(lines), encoding="utf-8")
        expected = f"{bad}: line 5: merge line must be 'left right'"
    paths[kind] = bad
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("generate", "--model", str(paths["ckpt"]), "--input", quickstart["test_lin"],
               "--enc-bpe", str(paths["enc"]), "--dec-bpe", str(paths["dec"]),
               "--max-len", str(MAX_LEN), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"data error: {expected}\n"
    assert not out.exists()


def test_build_corpus_rejects_a_language_the_manifest_lacks(quickstart, tmp_path, capsys):
    out = tmp_path / "corpus"
    capsys.readouterr()
    assert run("build-corpus", "--manifest", f"{TOY}/manifest.tsv",
               "--enc-bpe", quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"],
               "--languages", "en,fr", "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {TOY}/manifest.tsv: no entries for --languages fr\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,key", [
    (["human-eval-sheet", "--n-high", "-1", "--n-low", "5"], "sheet.n_high"),
    (["human-eval-sheet", "--n-low", "-1"], "sheet.n_low"),
    (["human-eval-sheet", "--min-words", "-1"], "sheet.min_words"),
    (["pretrain-encoder", "--rounds", "0"], "noise.rounds"),
    (["build-corpus", "--split-mode", "derive", "--derive-n", "0"], "corpus.derive_n"),
    (["build-corpus", "--split-mode", "derive", "--derive-n", "-1"], "corpus.derive_n"),
    (["train-bpe", "--merges", "-1"], "bpe.merges"),
], ids=["n-high", "n-low", "min-words", "rounds", "derive-n-0", "derive-n-neg", "merges"])
def test_out_of_range_count_exits_1_before_work(quickstart, tmp_path, capsys, flags, key):
    """Integer keys that no dataclass holds are range-checked with the rest
    of the config: a bad value is a usage error and no --out-dir is made."""
    inputs = {
        "human-eval-sheet": ["--hyp", f"{TOY}/test.en.txt", "--ref", f"{TOY}/test.en.txt",
                             "--seed", "0"],
        "pretrain-encoder": ["--amr", f"{TOY}/train.amr", "--bpe", quickstart["enc_bpe"],
                             "--seed", "1", "--updates", "1"],
        "build-corpus": ["--manifest", f"{TOY}/manifest.tsv", "--enc-bpe",
                         quickstart["enc_bpe"], "--dec-bpe", quickstart["dec_bpe"]],
        "train-bpe": ["--in", f"{TOY}/train.en.txt"],
    }[flags[0]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*flags, *inputs, "--out-dir", str(out)) == 1
    assert not out.exists()
    assert f"bad value for {key}" in capsys.readouterr().err


def test_finetune_from_pretrained_checkpoints(quickstart, tmp_path):
    """train --encoder-ckpt/--decoder-ckpt loads both halves and keeps the
    configured learning-rate schedule: with no LR keys, the defaults."""
    w = quickstart["w"]
    arch = "".join(line for line in TINY_MODEL.splitlines(True) if line.startswith("model."))
    (tmp_path / "arch.cfg").write_text(arch, encoding="utf-8")
    tiny = ["--seed", "1", "--config", str(tmp_path / "arch.cfg"), "--updates", "1"]
    assert run("pretrain-encoder", "--amr", f"{TOY}/train.amr", "--bpe", quickstart["enc_bpe"],
               "--rounds", "1", *tiny, "--out-dir", str(tmp_path / "enc-pre")) == 0
    assert run("pretrain-decoder", "--text", f"en={TOY}/train.en.txt",
               "--bpe", quickstart["dec_bpe"], *tiny, "--out-dir", str(tmp_path / "dec-pre")) == 0
    enc_ckpt = str(tmp_path / "enc-pre" / "encoder.ckpt")
    dec_ckpt = str(tmp_path / "dec-pre" / "decoder.ckpt")
    out = tmp_path / "run"
    assert run("train", "--corpus", str(w / "corpus"), "--enc-bpe", quickstart["enc_bpe"],
               "--dec-bpe", quickstart["dec_bpe"], "--encoder-ckpt", enc_ckpt,
               "--decoder-ckpt", dec_ckpt, *tiny, "--out-dir", str(out)) == 0
    names = list(load_checkpoint(out / "final.ckpt").tensors)
    n_enc = sum(name.startswith("enc") for name in names)
    n_dec = sum(name.startswith("dec") for name in names)
    assert n_enc and n_dec
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[:2] == [f"enc: {n_enc} tensors from {enc_ckpt}",
                          f"dec: {n_dec} tensors from {dec_ckpt}"]
    echoed = _read_config(out)
    for key in ("train.base_lr", "train.warmup_steps"):
        assert echoed[key] == str(DEFAULTS[key])


def test_readme_lists_the_keys_no_dataclass_holds():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = readme.split("The keys no dataclass holds are", 1)[1].strip().split("\n\n", 1)[0]
    dataclass_keys = {key for section in cli.SECTIONS for _, key in cli._keyed_fields(section)}
    assert set(re.findall(r"`(\w+\.\w+)`", listed)) == set(DEFAULTS) - dataclass_keys


# (subcommand, flag arguments, config key, echoed value): every dedicated flag.
FLAGS = [
    ("train-bpe", ["--merges", "7"], "bpe.merges", "7"),
    ("train-bpe", ["--protect-roles"], "bpe.protect_roles", "True"),
    ("build-corpus", ["--split-mode", "derive"], "corpus.split_mode", "derive"),
    ("build-corpus", ["--derive-n", "5"], "corpus.derive_n", "5"),
    ("pretrain-encoder", ["--rounds", "2"], "noise.rounds", "2"),
    ("pretrain-encoder", ["--mask-prob", "0.25"], "noise.mask_prob", "0.25"),
    ("pretrain-encoder", ["--span-lambda", "2.5"], "noise.span_lambda", "2.5"),
    ("pretrain-encoder", ["--span-mass", "0.5"], "noise.span_mass", "0.5"),
    ("pretrain-encoder", ["--no-shuffle"], "noise.shuffle", "False"),
    ("pretrain-encoder", ["--updates", "2"], "train.max_updates", "2"),
    ("pretrain-decoder", ["--updates", "2"], "train.max_updates", "2"),
    ("train", ["--updates", "2"], "train.max_updates", "2"),
    ("generate", ["--beam", "2"], "beam.size", "2"),
    ("generate", ["--alpha", "0.5"], "beam.alpha", "0.5"),
    ("generate", ["--max-len", "9"], "beam.max_len", "9"),
    ("generate", ["--min-len", "2"], "beam.min_len", "2"),
    ("evaluate", ["--no-tokenize"], "eval.tokenize", "False"),
    ("overlap-stats", ["--token-level"], "overlap.token_level", "True"),
    ("human-eval-sheet", ["--n-high", "3"], "sheet.n_high", "3"),
    ("human-eval-sheet", ["--n-low", "3"], "sheet.n_low", "3"),
    ("human-eval-sheet", ["--min-words", "2"], "sheet.min_words", "2"),
    ("attention-dump", ["--beam", "2"], "beam.size", "2"),
    ("attention-dump", ["--alpha", "0.5"], "beam.alpha", "0.5"),
    ("attention-dump", ["--max-len", "9"], "beam.max_len", "9"),
]


def _flag_base_argv(paths, command):
    """Small, fast arguments for each subcommand; settings use --set, not flags."""
    w = paths["w"]
    tiny = ["--seed", "1", "--config", str(w / "train.cfg"), "--set", "train.max_updates=1"]
    decode = ["--model", paths["model"], "--input", paths["test_lin"],
              "--enc-bpe", paths["enc_bpe"], "--dec-bpe", paths["dec_bpe"],
              "--set", "beam.max_len=12"]
    sample = ["--hyp", f"{TOY}/test.en.txt", "--ref", f"{TOY}/test.en.txt"]
    return {
        "train-bpe": ["--in", f"{TOY}/train.en.txt"],
        "build-corpus": ["--manifest", f"{TOY}/manifest.tsv", "--enc-bpe", paths["enc_bpe"],
                         "--dec-bpe", paths["dec_bpe"], "--set", "corpus.derive_n=4"],
        "pretrain-encoder": ["--amr", f"{TOY}/train.amr", "--bpe", paths["enc_bpe"],
                             "--set", "noise.rounds=1", *tiny],
        "pretrain-decoder": ["--text", f"en={TOY}/train.en.txt", "--bpe", paths["dec_bpe"],
                             *tiny],
        "train": ["--corpus", str(w / "corpus"), "--enc-bpe", paths["enc_bpe"],
                  "--dec-bpe", paths["dec_bpe"], *tiny],
        "generate": decode,
        "evaluate": sample,
        "overlap-stats": ["--amr", f"{TOY}/test.amr", "--bpe", paths["dec_bpe"],
                          "--target", f"en={TOY}/test.en.txt",
                          "--target", f"de={TOY}/test.de.txt",
                          "--target", f"it={TOY}/test.en.txt",
                          "--bleu", "en=30", "--bleu", "de=20", "--bleu", "it=10"],
        "human-eval-sheet": [*sample, "--seed", "1", "--set", "sheet.n_high=2",
                             "--set", "sheet.n_low=2", "--set", "sheet.min_words=1"],
        "attention-dump": decode,
    }[command]


def test_flag_table_lists_every_flag():
    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        (command, action.option_strings[0], action.dest)
        for command, parser in subcommands.choices.items()
        for action in parser._actions
        if action.dest in DEFAULTS
    }
    assert flags == {(command, flag[0], key) for command, flag, key, _ in FLAGS}


@pytest.mark.parametrize("command,flag,key,value", FLAGS, ids=[
    f"{command}{flag[0]}" for command, flag, _, _ in FLAGS
])
def test_flag_lands_in_run_config(quickstart, command, flag, key, value):
    assert str(DEFAULTS[key]) != value
    out = quickstart["w"] / "flags" / f"{command}{flag[0]}"
    argv = [command, *_flag_base_argv(quickstart, command), *flag, "--out-dir", str(out)]
    assert run(*argv) == 0
    assert _read_config(out)[key] == value
