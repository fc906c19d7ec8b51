"""Command-line entry point exposing the pipeline as subcommands.

Settings resolve in three layers: an optional key=value config file
(--config), then repeatable --set key=value overrides, then dedicated
flags.  Unknown keys are rejected.  Subcommands that write files place
everything under --out-dir together with the effective configuration
(run.config.txt).  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

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
    LANG_SENTINEL,
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
    desk_config,
    load_checkpoint,
    save_checkpoint,
)
from .pretraining import NoiseSpec, pretrain_decoder, pretrain_encoder
from .training import TrainConfig, fresh_preset, initialize_for_finetune, pretrained_preset, train


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


def _defaults() -> dict:
    out: dict = {}
    tc = TrainConfig()
    for name in (
        "base_lr",
        "warmup_steps",
        "max_updates",
        "label_smoothing",
        "dropout",
        "layerdrop",
        "checkpoint_every",
        "max_tokens_per_batch",
        "weight_decay",
    ):
        out[f"train.{name}"] = getattr(tc, name)
    out["train.preset"] = "fresh"
    mc = ModelConfig(enc_vocab=1, dec_vocab=1)
    for name in (
        "d_model",
        "n_heads",
        "ffn_dim",
        "enc_layers",
        "dec_layers",
        "max_positions",
        "depth_buckets",
        "subgraph_buckets",
        "d_word",
        "d_pos",
        "d_depth",
        "d_subgraph",
    ):
        out[f"model.{name}"] = getattr(mc, name)
    bc = BeamConfig()
    out["beam.size"] = bc.beam_size
    out["beam.alpha"] = bc.length_penalty_alpha
    out["beam.max_len"] = bc.max_len
    out["beam.min_len"] = bc.min_len
    ns = NoiseSpec()
    out["noise.mask_prob"] = ns.mask_prob
    out["noise.span_lambda"] = ns.span_lambda
    out["noise.span_mass"] = ns.span_mass
    out["noise.shuffle"] = ns.shuffle
    out["noise.rounds"] = 4
    out["bpe.merges"] = 1000
    out["bpe.protect_roles"] = False
    out["corpus.split_mode"] = "common-test"
    out["corpus.derive_n"] = 1000
    out["eval.tokenize"] = True
    out["overlap.token_level"] = False
    out["sheet.n_high"] = 25
    out["sheet.n_low"] = 25
    out["sheet.min_words"] = 5
    return out


DEFAULTS = _defaults()
KNOWN_KEYS = {
    key: (_bool if isinstance(value, bool) else type(value))
    for key, value in DEFAULTS.items()
}


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


def resolve_config(args) -> tuple[dict, set[str]]:
    """Merge defaults <- config file <- --set items; track provided keys."""
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
    return cfg, set(raw)


def _apply(cfg: dict, provided: set[str], key: str, value) -> None:
    if value is not None:
        cfg[key] = value
        provided.add(key)


def _echo_config(out_dir, subcommand: str, cfg: dict, facts: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.config.txt"), "w", encoding="utf-8") as f:
        f.write(f"subcommand={subcommand}\n")
        for key in sorted(facts):
            f.write(f"{key}={facts[key]}\n")
        for key in sorted(cfg):
            f.write(f"{key}={cfg[key]}\n")


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        base_lr=cfg["train.base_lr"],
        warmup_steps=cfg["train.warmup_steps"],
        max_updates=cfg["train.max_updates"],
        label_smoothing=cfg["train.label_smoothing"],
        dropout=cfg["train.dropout"],
        layerdrop=cfg["train.layerdrop"],
        checkpoint_every=cfg["train.checkpoint_every"],
        max_tokens_per_batch=cfg["train.max_tokens_per_batch"],
        weight_decay=cfg["train.weight_decay"],
        seed=seed,
    )


def _model_config(cfg: dict, enc_vocab: int, dec_vocab: int) -> ModelConfig:
    return desk_config(
        enc_vocab,
        dec_vocab,
        d_model=cfg["model.d_model"],
        n_heads=cfg["model.n_heads"],
        ffn_dim=cfg["model.ffn_dim"],
        enc_layers=cfg["model.enc_layers"],
        dec_layers=cfg["model.dec_layers"],
        max_positions=cfg["model.max_positions"],
        depth_buckets=cfg["model.depth_buckets"],
        subgraph_buckets=cfg["model.subgraph_buckets"],
        d_word=cfg["model.d_word"],
        d_pos=cfg["model.d_pos"],
        d_depth=cfg["model.d_depth"],
        d_subgraph=cfg["model.d_subgraph"],
    )


def _beam_config(cfg: dict) -> BeamConfig:
    return BeamConfig(
        beam_size=cfg["beam.size"],
        length_penalty_alpha=cfg["beam.alpha"],
        max_len=cfg["beam.max_len"],
        min_len=cfg["beam.min_len"],
    )


def _noise_spec(cfg: dict, seed: int) -> NoiseSpec:
    return NoiseSpec(
        mask_prob=cfg["noise.mask_prob"],
        span_lambda=cfg["noise.span_lambda"],
        span_mass=cfg["noise.span_mass"],
        shuffle=cfg["noise.shuffle"],
        seed=seed,
    )


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
    return [parse_penman(block) for block in iter_penman_blocks(text)]


def _lang_file_map(items: list[str], flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"{flag} expects LANG=PATH, got {item!r}")
        lang, path = item.split("=", 1)
        check_language(lang)
        out[lang] = path
    if not out:
        raise UsageError(f"at least one {flag} is required")
    return out


def _load_lin_inputs(input_path: str, features_path: str | None) -> list[LinearizedAmr]:
    feat = features_path or input_path + ".feat"
    if os.path.exists(feat):
        return read_linearized(input_path, feat)
    out = []
    for line in _read_lines(input_path):
        tokens = tuple(line.split())
        out.append(LinearizedAmr(tokens=tokens, alignment=(LANG_SENTINEL,) * len(tokens)))
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


def cmd_parse_amr(args, cfg, provided) -> int:
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


def cmd_linearize(args, cfg, provided) -> int:
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


def cmd_train_bpe(args, cfg, provided) -> int:
    _apply(cfg, provided, "bpe.merges", args.merges)
    _apply(cfg, provided, "bpe.protect_roles", args.protect_roles)
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


def cmd_build_corpus(args, cfg, provided) -> int:
    _apply(cfg, provided, "corpus.split_mode", args.split_mode)
    _apply(cfg, provided, "corpus.derive_n", args.derive_n)
    manifest = load_manifest(args.manifest, derive_n=cfg["corpus.derive_n"])
    if "corpus.derive_n" in provided:
        # explicit flag/setting outranks the manifest directive
        manifest = replace(manifest, derive_n=cfg["corpus.derive_n"])
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    result = ingest(manifest, enc_model, dec_model)
    mode = cfg["corpus.split_mode"]
    split_by_lang = {
        lang: split_store(store, mode, manifest.derive_n)
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


def cmd_pretrain_encoder(args, cfg, provided) -> int:
    _apply(cfg, provided, "noise.rounds", args.rounds)
    _apply(cfg, provided, "noise.mask_prob", args.mask_prob)
    _apply(cfg, provided, "noise.span_lambda", args.span_lambda)
    _apply(cfg, provided, "noise.span_mass", args.span_mass)
    _apply(cfg, provided, "noise.shuffle", args.shuffle)
    _apply(cfg, provided, "train.max_updates", args.updates)
    enc_model = load_bpe(args.bpe)
    corpus = [linearize_for_language(g) for g in _load_graphs(args.amr)]
    tcfg = _train_config(cfg, args.seed)
    params = build(_model_config(cfg, enc_model.vocab_size, enc_model.vocab_size), args.seed)
    _echo_config(
        args.out_dir, "pretrain-encoder", cfg, {"amr": args.amr, "seed": args.seed}
    )
    _, result = pretrain_encoder(
        params, corpus, enc_model, _noise_spec(cfg, args.seed), tcfg,
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


def cmd_pretrain_decoder(args, cfg, provided) -> int:
    _apply(cfg, provided, "train.max_updates", args.updates)
    dec_model = load_bpe(args.bpe)
    corpora = {
        lang: _read_lines(path)
        for lang, path in _lang_file_map(args.text, "--text").items()
    }
    tcfg = _train_config(cfg, args.seed)
    params = build(_model_config(cfg, dec_model.vocab_size, dec_model.vocab_size), args.seed)
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


def cmd_train(args, cfg, provided) -> int:
    _apply(cfg, provided, "train.max_updates", args.updates)
    _apply(cfg, provided, "train.preset", args.preset)
    pretrained = bool(args.encoder_ckpt or args.decoder_ckpt or args.embeddings)
    if "train.preset" not in provided and pretrained:
        cfg["train.preset"] = "pretrained"
    preset = (
        pretrained_preset() if cfg["train.preset"] == "pretrained" else fresh_preset()
    )
    if "train.base_lr" not in provided:
        cfg["train.base_lr"] = preset.base_lr
    if "train.warmup_steps" not in provided:
        cfg["train.warmup_steps"] = preset.warmup_steps
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    train_set = load_examples(os.path.join(args.corpus, "train.examples"))
    valid_set = load_examples(os.path.join(args.corpus, "valid.examples"))
    if not valid_set:
        raise ValueError("validation set is empty")
    tcfg = _train_config(cfg, args.seed)
    params = build(_model_config(cfg, enc_model.vocab_size, dec_model.vocab_size), args.seed)
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


def cmd_generate(args, cfg, provided) -> int:
    _apply(cfg, provided, "beam.size", args.beam)
    _apply(cfg, provided, "beam.alpha", args.alpha)
    _apply(cfg, provided, "beam.max_len", args.max_len)
    _apply(cfg, provided, "beam.min_len", args.min_len)
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    params = load_checkpoint(args.model)
    bcfg = _beam_config(cfg)
    check_max_len(params, bcfg.max_len)
    lins = _load_lin_inputs(args.input, args.features)
    _echo_config(
        args.out_dir,
        "generate",
        cfg,
        {"model": args.model, "input": args.input, "lang": args.lang or ""},
    )
    hypotheses: list[str] = []
    scores: list[str] = []
    for lin in lins:
        lin = _with_lang(lin, args.lang)
        enc_in, _ = _encoder_input(lin, enc_model)
        best, _ = beam_search(params, enc_in, bcfg, dec_model.bos_id, dec_model.eos_id)
        hypotheses.append(bpe_decode(dec_model, best.generated(dec_model.eos_id)))
        scores.append(f"{best.score:.6f}\t{best.logprob:.6f}")
    out_path = os.path.join(args.out_dir, "hypotheses.txt")
    _write_lines(out_path, hypotheses)
    _write_lines(os.path.join(args.out_dir, "scores.txt"), scores)
    print(f"wrote {len(hypotheses)} hypotheses -> {out_path}")
    return 0


def cmd_evaluate(args, cfg, provided) -> int:
    if args.no_tokenize:
        _apply(cfg, provided, "eval.tokenize", False)
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    report = evaluation.bleu(hyps, refs, tokenize=cfg["eval.tokenize"])
    line = report.signature()
    print(line)
    if args.out_dir:
        _echo_config(args.out_dir, "evaluate", cfg, {"hyp": args.hyp, "ref": args.ref})
        _write_lines(os.path.join(args.out_dir, "bleu.txt"), [line])
    return 0


def cmd_overlap_stats(args, cfg, provided) -> int:
    if args.token_level:
        _apply(cfg, provided, "overlap.token_level", True)
    # flag shape problems are usage errors; surface them before any file IO
    target_paths = _lang_file_map(args.target, "--target")
    bleus: dict[str, float] = {}
    for item in args.bleu:
        if "=" not in item:
            raise UsageError(f"--bleu expects LANG=VALUE, got {item!r}")
        lang, value = item.split("=", 1)
        try:
            bleus[lang] = float(value)
        except ValueError:
            raise UsageError(f"--bleu value for {lang!r} is not a number: {value!r}")
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


def cmd_human_eval_sheet(args, cfg, provided) -> int:
    _apply(cfg, provided, "sheet.n_high", args.n_high)
    _apply(cfg, provided, "sheet.n_low", args.n_low)
    _apply(cfg, provided, "sheet.min_words", args.min_words)
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


def cmd_attention_dump(args, cfg, provided) -> int:
    _apply(cfg, provided, "beam.size", args.beam)
    _apply(cfg, provided, "beam.alpha", args.alpha)
    _apply(cfg, provided, "beam.max_len", args.max_len)
    enc_model = load_bpe(args.enc_bpe)
    dec_model = load_bpe(args.dec_bpe)
    params = load_checkpoint(args.model)
    bcfg = _beam_config(cfg)
    check_max_len(params, bcfg.max_len)
    lins = _load_lin_inputs(args.input, args.features)
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
    p.add_argument("--merges", type=int)
    p.add_argument("--protect-roles", action="store_true", default=None)
    p.add_argument("--languages", help="comma-separated language codes for specials")

    p = add("build-corpus", cmd_build_corpus, "numericalize and split a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--split-mode", choices=("common-test", "derive"))
    p.add_argument("--derive-n", type=int)
    p.add_argument("--languages", help="comma-separated subset to include")

    p = add("pretrain-encoder", cmd_pretrain_encoder, "denoising pretraining on AMR graphs")
    p.add_argument("--amr", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int)
    p.add_argument("--mask-prob", type=float)
    p.add_argument("--span-lambda", type=float)
    p.add_argument("--span-mass", type=float)
    p.add_argument("--no-shuffle", dest="shuffle", action="store_false", default=None)
    p.add_argument("--updates", type=int)

    p = add("pretrain-decoder", cmd_pretrain_decoder, "causal LM pretraining on text")
    p.add_argument("--text", action="append", metavar="LANG=FILE", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--updates", type=int)

    p = add("train", cmd_train, "train or fine-tune the translation model")
    p.add_argument("--corpus", required=True, help="directory from build-corpus")
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--encoder-ckpt")
    p.add_argument("--decoder-ckpt")
    p.add_argument("--embeddings")
    p.add_argument("--preset", choices=("fresh", "pretrained"))
    p.add_argument("--updates", type=int)

    p = add("generate", cmd_generate, "beam-search decode linearized graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="linearized token file")
    p.add_argument("--features", help="feature file (default: INPUT.feat if present)")
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--lang")
    p.add_argument("--beam", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--min-len", type=int)

    p = add("evaluate", cmd_evaluate, "corpus BLEU of hypotheses against references", False)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--no-tokenize", action="store_true")

    p = add("overlap-stats", cmd_overlap_stats, "vocabulary overlap vs BLEU", False)
    p.add_argument("--amr", required=True)
    p.add_argument("--target", action="append", metavar="LANG=FILE", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--bleu", action="append", metavar="LANG=VALUE", required=True)
    p.add_argument("--token-level", action="store_true")

    p = add("human-eval-sheet", cmd_human_eval_sheet, "sample sentences for annotation")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-high", type=int)
    p.add_argument("--n-low", type=int)
    p.add_argument("--min-words", type=int)

    p = add("attention-dump", cmd_attention_dump, "cross-attention grid for one input")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--features")
    p.add_argument("--enc-bpe", required=True)
    p.add_argument("--dec-bpe", required=True)
    p.add_argument("--lang")
    p.add_argument("--line", type=int, default=0)
    p.add_argument("--beam", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-len", type=int)
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--head", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, provided = resolve_config(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args, cfg, provided)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (PenmanError, ValueError, OSError, RuntimeError, LookupError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
