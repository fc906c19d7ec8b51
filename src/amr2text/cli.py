"""Command-line entry point exposing the pipeline as subcommands.

Settings resolve once, in three layers over DEFAULTS: an optional
key=value config file (--config), then repeatable --set key=value
overrides, then dedicated flags, each of which sets one key (--beam sets
beam.size); no subcommand changes a key afterwards.  The keys are the
fields of TrainConfig, ModelConfig, BeamConfig and NoiseSpec plus a few no
dataclass holds.  Unknown keys, values outside a key's choices and values
a section's dataclass rejects fail before any work.
Subcommands that write files place everything under --out-dir together
with the effective configuration (run.config.txt).  Exit codes: 0
success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import evaluation
from .bpe import decode as bpe_decode
from .bpe import load_bpe, save_bpe, train_bpe
from .corpus import (
    concat_multilingual,
    dataset_fingerprint,
    encode_linearized,
    ingest,
    load_examples,
    load_manifest,
    save_examples,
    split_store,
)
from .generation import BeamConfig, attention_dump, beam_search, check_max_len
from .graph import PenmanError, iter_penman_blocks, parse_penman, serialize_penman
from .langs import DEFAULT_LANGUAGES, check_language, is_lang_token, parse_lang_token
from .linearize import (
    LinearizedAmr,
    linearize_for_language,
    prepend_language_token,
    read_linearized,
    write_linearized,
)
from .model import (
    EncoderInput,
    ModelConfig,
    build,
    check_decoder_input,
    check_encoder_input,
    load_checkpoint,
    save_checkpoint,
)
from .pretraining import NoiseSpec, pretrain_decoder, pretrain_encoder
from .training import TrainConfig, initialize_for_finetune, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Config keys are "<section>.<field>" for each field of these dataclasses,
# except the fields the CLI sets itself: seeds and vocabulary sizes.
SECTIONS = {"train": TrainConfig, "model": ModelConfig, "beam": BeamConfig, "noise": NoiseSpec}
_CLI_SET = {"train.seed", "noise.seed", "model.enc_vocab", "model.dec_vocab"}
CHOICES = {"corpus.split_mode": ("common-test", "derive")}
# The least value of each integer key that no dataclass checks.
MINIMUMS = {"noise.rounds": 1, "corpus.derive_n": 1, "bpe.merges": 0,
            "sheet.n_high": 0, "sheet.n_low": 0, "sheet.min_words": 0}


def _keyed_fields(section: str):
    """(field, config key) for each field of the section's dataclass that is a key."""
    for f in fields(SECTIONS[section]):
        if f"{section}.{f.name}" not in _CLI_SET:
            yield f, f"{section}.{f.name}"


DEFAULTS = {key: f.default for section in SECTIONS for f, key in _keyed_fields(section)}
DEFAULTS.update({
    "noise.rounds": 4,
    "bpe.merges": 1000,
    "bpe.protect_roles": False,
    "corpus.split_mode": "common-test",
    "corpus.derive_n": 1000,
    "eval.tokenize": True,
    "overlap.token_level": False,
    "sheet.n_high": 25,
    "sheet.n_low": 25,
    "sheet.min_words": 5,
})
KNOWN_KEYS = {
    key: (_bool if isinstance(value, bool) else type(value))
    for key, value in DEFAULTS.items()
}


def _section(cfg: dict, section: str, **fixed):
    """The section's dataclass from its config keys plus the fields the CLI sets."""
    return SECTIONS[section](**{f.name: cfg[key] for f, key in _keyed_fields(section)}, **fixed)


def _load_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = text.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}")
    return raw


def resolve_config(args) -> dict:
    """Merge defaults <- config file <- --set items <- flags, then check the result."""
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(_load_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    cfg = dict(DEFAULTS)
    for key, value in raw.items():
        if key not in KNOWN_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            cfg[key] = KNOWN_KEYS[key](value)
        except ValueError:
            raise UsageError(f"bad value for {key}: {value!r}")
    # dedicated flags store under their config key; None means not given
    for key, value in vars(args).items():
        if key in KNOWN_KEYS and value is not None:
            cfg[key] = value
    for key, choices in CHOICES.items():
        if cfg[key] not in choices:
            raise UsageError(
                f"bad value for {key}: {cfg[key]!r} (choose from {', '.join(choices)})"
            )
    for key, least in MINIMUMS.items():
        if cfg[key] < least:
            raise UsageError(f"bad value for {key}: {cfg[key]} (must be at least {least})")
    # Every section is checked here, before any work; the fields the CLI
    # sets itself get valid placeholders.
    try:
        _section(cfg, "train", seed=0).validate()
        _section(cfg, "model", enc_vocab=1, dec_vocab=1).validate()
        _section(cfg, "noise", seed=0).validate()
        _section(cfg, "beam")  # BeamConfig checks itself on construction
    except ValueError as err:
        raise UsageError(f"bad setting: {err}") from None
    return cfg


def _echo_config(out_dir, subcommand: str, cfg: dict, facts: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.config.txt"), "w", encoding="utf-8") as f:
        f.write(f"subcommand={subcommand}\n")
        for key in sorted(facts):
            f.write(f"{key}={facts[key]}\n")
        for key in sorted(cfg):
            f.write(f"{key}={cfg[key]}\n")


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _load_graphs(path: str):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    graphs = []
    for n, block in enumerate(iter_penman_blocks(text), start=1):
        try:
            graphs.append(parse_penman(block))
        except PenmanError as err:
            raise type(err)(f"{path}: graph {n}: {err}") from None
    return graphs


def _lang_map(items: list[str], flag: str, convert=str) -> dict:
    """Repeated ``LANG=VALUE`` flag values as {lang: convert(VALUE)}; a
    language given twice is a usage error."""
    out = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"{flag} expects LANG=VALUE, got {item!r}")
        lang, value = item.split("=", 1)
        check_language(lang)
        if lang in out:
            raise UsageError(f"{flag} gives {lang!r} more than once")
        try:
            out[lang] = convert(value)
        except ValueError:
            raise UsageError(f"bad {flag} value for {lang!r}: {value!r}") from None
    if not out:
        raise UsageError(f"at least one {flag} is required")
    return out


def _with_lang(lin: LinearizedAmr, lang: str | None) -> LinearizedAmr:
    if lin.tokens and is_lang_token(lin.tokens[0]):
        have = parse_lang_token(lin.tokens[0])
        if lang is not None and have != lang:
            raise ValueError(
                f"input line already carries language token for {have!r}, asked for {lang!r}"
            )
        return lin
    if lang is None:
        raise ValueError("input lines carry no language token; pass --lang")
    return prepend_language_token(lin, lang)


def _encoder_input(lin: LinearizedAmr, enc_model) -> tuple[EncoderInput, list[int]]:
    ids, depth, sub = encode_linearized(lin, enc_model)
    enc_in = EncoderInput(
        piece_ids=np.asarray(ids, dtype=np.int64),
        depth_ids=np.asarray(depth, dtype=np.int64),
        subgraph_ids=np.asarray(sub, dtype=np.int64),
    )
    return enc_in, list(ids)


# --- subcommands -----------------------------------------------------------


def cmd_parse_amr(args, cfg) -> int:
    graphs = _load_graphs(args.input)
    _echo_config(args.out_dir, "parse-amr", cfg, {"in": args.input})
    out_path = os.path.join(args.out_dir, "parsed.amr")
    if args.indent:
        blocks = [serialize_penman(g, indent=True) for g in graphs]
        _write_lines(out_path, [b + "\n" if i + 1 < len(blocks) else b for i, b in enumerate(blocks)])
    else:
        _write_lines(out_path, [serialize_penman(g) for g in graphs])
    print(f"parsed {len(graphs)} graphs -> {out_path}")
    return 0


def cmd_linearize(args, cfg) -> int:
    graphs = _load_graphs(args.input)
    lins = [linearize_for_language(g, args.lang) for g in graphs]
    features = args.features or args.out + ".feat"
    write_linearized(args.out, features, lins)
    out_dir = args.out_dir or (os.path.dirname(os.path.abspath(args.out)))
    _echo_config(
        out_dir,
        "linearize",
        cfg,
        {"in": args.input, "out": args.out, "features": features, "lang": args.lang or ""},
    )
    print(f"linearized {len(lins)} graphs -> {args.out}")
    return 0


def cmd_train_bpe(args, cfg) -> int:
    lines: list[str] = []
    for path in args.input:
        lines.extend(_read_lines(path))
    languages = (
        frozenset(args.languages.split(",")) if args.languages else DEFAULT_LANGUAGES
    )
    model = train_bpe(
        lines,
        num_merges=cfg["bpe.merges"],
        languages=languages,
        protect_roles=cfg["bpe.protect_roles"],
    )
    _echo_config(
        args.out_dir,
        "train-bpe",
        cfg,
        {"in": ",".join(args.input), "languages": ",".join(sorted(languages))},
    )
    out_path = os.path.join(args.out_dir, "bpe.model")
    save_bpe(model, out_path)
    print(f"trained {len(model.merges)} merges, vocab {model.vocab_size} -> {out_path}")
    return 0


def cmd_build_corpus(args, cfg) -> int:
    entries = load_manifest(args.manifest)
    if args.languages:
        missing = sorted(set(args.languages.split(",")) - {e.language for e in entries})
        if missing:
            raise ValueError(f"{args.manifest}: no entries for --languages {','.join(missing)}")
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    result = ingest(entries, enc_model, dec_model)
    split_by_lang = {
        lang: split_store(store, cfg["corpus.split_mode"], cfg["corpus.derive_n"])
        for lang, store in result.stores.items()
    }
    languages = args.languages.split(",") if args.languages else sorted(split_by_lang)
    _echo_config(
        args.out_dir,
        "build-corpus",
        cfg,
        {"manifest": args.manifest, "languages": ",".join(languages)},
    )
    report: list[str] = []
    for name in ("train", "valid", "test"):
        subset = {
            lang: split_by_lang[lang][name]
            for lang in languages
            if split_by_lang.get(lang, {}).get(name)
        }
        examples = concat_multilingual(subset, sorted(subset)) if subset else []
        if name == "train" and not examples:
            raise ValueError("no training examples after splitting")
        path = os.path.join(args.out_dir, f"{name}.examples")
        save_examples(path, examples)
        report.append(f"{name}.count={len(examples)}")
        report.append(f"{name}.fingerprint={dataset_fingerprint(examples)}")
        for lang in sorted(subset):
            report.append(f"{name}.count.{lang}={len(subset[lang])}")
    for lang in sorted(result.dropped):
        report.append(f"dropped.{lang}={result.dropped[lang]}")
    _write_lines(os.path.join(args.out_dir, "report.txt"), report)
    print("; ".join(report[:6]))
    return 0


def cmd_pretrain_encoder(args, cfg) -> int:
    enc_model = load_bpe(args.bpe)
    corpus = [linearize_for_language(g) for g in _load_graphs(args.amr)]
    if not corpus:
        raise ValueError(f"{args.amr} holds no graphs")
    tcfg = _section(cfg, "train", seed=args.seed)
    mcfg = _section(cfg, "model", enc_vocab=enc_model.vocab_size, dec_vocab=enc_model.vocab_size)
    params = build(mcfg, args.seed)
    _echo_config(
        args.out_dir, "pretrain-encoder", cfg, {"amr": args.amr, "seed": args.seed}
    )
    _, result = pretrain_encoder(
        params, corpus, enc_model, _section(cfg, "noise", seed=args.seed), tcfg,
        rounds=cfg["noise.rounds"], log_path=os.path.join(args.out_dir, "pretrain.log"),
    )
    ckpt = os.path.join(args.out_dir, "encoder.ckpt")
    save_checkpoint(result.best_params, ckpt)
    _write_lines(
        os.path.join(args.out_dir, "report.txt"),
        [f"best_step={result.best_step}", f"best_valid_loss={result.best_valid_loss:.6f}"],
    )
    print(
        f"denoising loss {result.best_valid_loss:.4f} at step {result.best_step} -> {ckpt}"
    )
    return 0


def cmd_pretrain_decoder(args, cfg) -> int:
    text_paths = _lang_map(args.text, "--text")
    dec_model = load_bpe(args.bpe)
    corpora = {lang: _read_lines(path) for lang, path in text_paths.items()}
    for lang, lines in corpora.items():
        if not lines:
            raise ValueError(f"no monolingual lines for {lang!r}")
    tcfg = _section(cfg, "train", seed=args.seed)
    mcfg = _section(cfg, "model", enc_vocab=dec_model.vocab_size, dec_vocab=dec_model.vocab_size)
    params = build(mcfg, args.seed)
    _echo_config(
        args.out_dir,
        "pretrain-decoder",
        cfg,
        {"text": ",".join(sorted(corpora)), "seed": args.seed},
    )
    params, perplexities, _ = pretrain_decoder(
        params, corpora, dec_model, tcfg, log_path=os.path.join(args.out_dir, "pretrain.log")
    )
    ckpt = os.path.join(args.out_dir, "decoder.ckpt")
    save_checkpoint(params, ckpt)
    report = [f"perplexity.{lang}={perplexities[lang]:.4f}" for lang in sorted(perplexities)]
    _write_lines(os.path.join(args.out_dir, "report.txt"), report)
    print("; ".join(report) + f" -> {ckpt}")
    return 0


def cmd_train(args, cfg) -> int:
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    train_path = os.path.join(args.corpus, "train.examples")
    valid_path = os.path.join(args.corpus, "valid.examples")
    train_set, valid_set = load_examples(train_path), load_examples(valid_path)
    tcfg = _section(cfg, "train", seed=args.seed)
    mcfg = _section(cfg, "model", enc_vocab=enc_model.vocab_size, dec_vocab=dec_model.vocab_size)
    for name, path, examples in (("training", train_path, train_set),
                                 ("validation", valid_path, valid_set)):
        if not examples:
            raise ValueError(f"{name} set is empty")
        for n, ex in enumerate(examples, start=1):
            try:
                ex.check_target(dec_model.bos_id, dec_model.eos_id)
                check_encoder_input(mcfg, EncoderInput(
                    np.asarray(ex.src_ids), np.asarray(ex.src_depth_ids),
                    np.asarray(ex.src_subgraph_ids)))
                check_decoder_input(mcfg, ex.tgt_ids[:-1])
            except ValueError as err:
                raise ValueError(f"{path}: example {n}: {err}") from None
    params = build(mcfg, args.seed)
    params, init_report = initialize_for_finetune(
        params,
        encoder_ckpt=args.encoder_ckpt,
        decoder_ckpt=args.decoder_ckpt,
        embeddings_path=args.embeddings,
        dec_vocab_map=dec_model.vocab if args.embeddings else None,
    )
    _echo_config(args.out_dir, "train", cfg, {"corpus": args.corpus, "seed": args.seed})
    def save_last(step, p, valid_loss):
        save_checkpoint(p, os.path.join(args.out_dir, "last.ckpt"))
        return False

    result = train(
        params,
        train_set,
        valid_set,
        tcfg,
        pad_id=dec_model.pad_id,
        on_checkpoint=save_last,
        log_path=os.path.join(args.out_dir, "train.log"),
    )
    save_checkpoint(result.best_params, os.path.join(args.out_dir, "best.ckpt"))
    save_checkpoint(result.final_params, os.path.join(args.out_dir, "final.ckpt"))
    report = init_report + [
        f"train.count={len(train_set)}",
        f"valid.count={len(valid_set)}",
        f"train.fingerprint={dataset_fingerprint(train_set)}",
        f"best_step={result.best_step}",
        f"best_valid_loss={result.best_valid_loss:.6f}",
    ]
    _write_lines(os.path.join(args.out_dir, "report.txt"), report)
    print(
        f"best valid loss {result.best_valid_loss:.4f} at step {result.best_step} "
        f"-> {os.path.join(args.out_dir, 'best.ckpt')}"
    )
    return 0


def cmd_generate(args, cfg) -> int:
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    params = load_checkpoint(args.model)
    bcfg = _section(cfg, "beam")
    check_max_len(params, bcfg.max_len)
    lins = read_linearized(args.input, args.features or args.input + ".feat")
    enc_ins = []
    for lineno, lin in enumerate(lins, start=1):
        try:
            enc_in, _ = _encoder_input(_with_lang(lin, args.lang), enc_model)
            check_encoder_input(params.config, enc_in)
        except ValueError as err:
            raise ValueError(f"{args.input}: line {lineno}: {err}") from None
        enc_ins.append(enc_in)
    _echo_config(
        args.out_dir,
        "generate",
        cfg,
        {"model": args.model, "input": args.input, "lang": args.lang or ""},
    )
    hypotheses: list[str] = []
    scores: list[str] = []
    for enc_in in enc_ins:
        best, _ = beam_search(params, enc_in, bcfg, dec_model.bos_id, dec_model.eos_id)
        hypotheses.append(bpe_decode(dec_model, best.generated(dec_model.eos_id)))
        scores.append(f"{best.score:.6f}\t{best.logprob:.6f}")
    out_path = os.path.join(args.out_dir, "hypotheses.txt")
    _write_lines(out_path, hypotheses)
    _write_lines(os.path.join(args.out_dir, "scores.txt"), scores)
    print(f"wrote {len(hypotheses)} hypotheses -> {out_path}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    report = evaluation.bleu(hyps, refs, tokenize=cfg["eval.tokenize"])
    line = report.signature()
    print(line)
    if args.out_dir:
        _echo_config(args.out_dir, "evaluate", cfg, {"hyp": args.hyp, "ref": args.ref})
        _write_lines(os.path.join(args.out_dir, "bleu.txt"), [line])
    return 0


def cmd_overlap_stats(args, cfg) -> int:
    # flag shape problems are usage errors; surface them before any file IO
    target_paths = _lang_map(args.target, "--target")
    bleus = _lang_map(args.bleu, "--bleu", float)
    unpaired = sorted(set(target_paths) ^ set(bleus))
    if unpaired:
        raise UsageError(f"--target and --bleu name different languages: {','.join(unpaired)}")
    bpe_model = load_bpe(args.bpe)
    amr_lines = [
        " ".join(linearize_for_language(g).tokens) for g in _load_graphs(args.amr)
    ]
    targets = {lang: _read_lines(path) for lang, path in target_paths.items()}
    report = evaluation.overlap_stats(
        amr_lines, targets, bpe_model, bleus, token_level=cfg["overlap.token_level"]
    )
    table = report.table()
    print(table)
    if args.out_dir:
        _echo_config(args.out_dir, "overlap-stats", cfg, {"amr": args.amr})
        _write_lines(os.path.join(args.out_dir, "overlap.tsv"), table.splitlines())
    return 0


def cmd_human_eval_sheet(args, cfg) -> int:
    scored = evaluation.score_sentences(_read_lines(args.hyp), _read_lines(args.ref))
    rows = evaluation.human_eval_sample(
        scored,
        n_high=cfg["sheet.n_high"],
        n_low=cfg["sheet.n_low"],
        min_words=cfg["sheet.min_words"],
        seed=args.seed,
    )
    _echo_config(
        args.out_dir,
        "human-eval-sheet",
        cfg,
        {"hyp": args.hyp, "ref": args.ref, "seed": args.seed},
    )
    path = os.path.join(args.out_dir, "sheet.tsv")
    evaluation.write_human_eval_sheet(rows, path)
    print(f"wrote {len(rows)} rows -> {path}")
    return 0


def cmd_attention_dump(args, cfg) -> int:
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    params = load_checkpoint(args.model)
    bcfg = _section(cfg, "beam")
    check_max_len(params, bcfg.max_len)
    for flag, index, n in (("--layer", args.layer, params.config.dec_layers),
                           ("--head", args.head, params.config.n_heads)):
        if index is not None and not -n <= index < n:
            raise ValueError(f"{flag} {index} outside {-n}..{n - 1}")
    lins = read_linearized(args.input, args.features or args.input + ".feat")
    if not 0 <= args.line < len(lins):
        raise ValueError(f"--line {args.line} outside input range 0..{len(lins) - 1}")
    lin = _with_lang(lins[args.line], args.lang)
    enc_in, src_ids = _encoder_input(lin, enc_model)
    best, _ = beam_search(params, enc_in, bcfg, dec_model.bos_id, dec_model.eos_id)
    _echo_config(
        args.out_dir,
        "attention-dump",
        cfg,
        {"model": args.model, "input": args.input, "line": args.line},
    )
    path = os.path.join(args.out_dir, "attention.tsv")
    attention_dump(
        params,
        enc_in,
        best,
        [enc_model.piece(i) for i in src_ids],
        [dec_model.piece(i) for i in best.ids[1:]],
        path,
        layer=args.layer,
        head=args.head,
    )
    print(f"wrote attention grid -> {path}")
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="amr2text", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_text: str, out_dir_required: bool = True) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value settings file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[])
        p.add_argument("--out-dir", required=out_dir_required)
        return p

    def setting(p: _Parser, option: str, key: str, **kwargs) -> None:
        # A flag for one config key, stored under the key; resolve_config applies it last.
        if "action" not in kwargs:
            kwargs.update(type=KNOWN_KEYS[key], choices=CHOICES.get(key))
        p.add_argument(option, dest=key, default=None, **kwargs)

    p = add("parse-amr", cmd_parse_amr, "parse and canonically reserialize PENMAN graphs")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--indent", action="store_true")

    p = add("linearize", cmd_linearize, "flatten graphs to token + feature files", False)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--features", help="feature file path (default: OUT.feat)")
    p.add_argument("--lang", help="prepend this language token")

    p = add("train-bpe", cmd_train_bpe, "learn a subword model from text")
    p.add_argument("--in", dest="input", action="append", required=True)
    setting(p, "--merges", "bpe.merges")
    setting(p, "--protect-roles", "bpe.protect_roles", action="store_true")
    p.add_argument("--languages", help="comma-separated language codes for specials")

    p = add("build-corpus", cmd_build_corpus, "numericalize and split a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    setting(p, "--split-mode", "corpus.split_mode")
    setting(p, "--derive-n", "corpus.derive_n")
    p.add_argument("--languages", help="comma-separated subset to include")

    p = add("pretrain-encoder", cmd_pretrain_encoder, "denoising pretraining on AMR graphs")
    p.add_argument("--amr", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--seed", type=int, required=True)
    setting(p, "--rounds", "noise.rounds")
    setting(p, "--mask-prob", "noise.mask_prob")
    setting(p, "--span-lambda", "noise.span_lambda")
    setting(p, "--span-mass", "noise.span_mass")
    setting(p, "--no-shuffle", "noise.shuffle", action="store_false")
    setting(p, "--updates", "train.max_updates")

    p = add("pretrain-decoder", cmd_pretrain_decoder, "causal LM pretraining on text")
    p.add_argument("--text", action="append", metavar="LANG=FILE", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--seed", type=int, required=True)
    setting(p, "--updates", "train.max_updates")

    p = add("train", cmd_train, "train or fine-tune the translation model")
    p.add_argument("--corpus", required=True, help="directory from build-corpus")
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--encoder-ckpt")
    p.add_argument("--decoder-ckpt")
    p.add_argument("--embeddings")
    setting(p, "--updates", "train.max_updates")

    p = add("generate", cmd_generate, "beam-search decode linearized graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="linearized token file")
    p.add_argument("--features", help="feature file (default: INPUT.feat)")
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--lang")
    setting(p, "--beam", "beam.size")
    setting(p, "--alpha", "beam.alpha")
    setting(p, "--max-len", "beam.max_len")
    setting(p, "--min-len", "beam.min_len")

    p = add("evaluate", cmd_evaluate, "corpus BLEU of hypotheses against references", False)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    setting(p, "--no-tokenize", "eval.tokenize", action="store_false")

    p = add("overlap-stats", cmd_overlap_stats, "vocabulary overlap vs BLEU", False)
    p.add_argument("--amr", required=True)
    p.add_argument("--target", action="append", metavar="LANG=FILE", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--bleu", action="append", metavar="LANG=VALUE", required=True)
    setting(p, "--token-level", "overlap.token_level", action="store_true")

    p = add("human-eval-sheet", cmd_human_eval_sheet, "sample sentences for annotation")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--seed", type=int, required=True)
    setting(p, "--n-high", "sheet.n_high")
    setting(p, "--n-low", "sheet.n_low")
    setting(p, "--min-words", "sheet.min_words")

    p = add("attention-dump", cmd_attention_dump, "cross-attention grid for one input")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="linearized token file")
    p.add_argument("--features", help="feature file (default: INPUT.feat)")
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--lang")
    p.add_argument("--line", type=int, default=0)
    setting(p, "--beam", "beam.size")
    setting(p, "--alpha", "beam.alpha")
    setting(p, "--max-len", "beam.max_len")
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--head", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args, cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (PenmanError, ValueError, OSError, RuntimeError, LookupError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
