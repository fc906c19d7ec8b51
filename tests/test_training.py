"""Optimizer, schedule, and training loop tests."""

import math

import numpy as np
import pytest

from amr2text.corpus import ParallelExample, make_batches
from amr2text.model import ModelConfig, build, load_checkpoint, save_checkpoint
from amr2text.tensor import Tensor
from amr2text.training import (
    Adam,
    ConfigMismatch,
    DivergedLoss,
    TrainConfig,
    batch_loss,
    dataset_loss,
    initialize_for_finetune,
    load_trainer_state,
    lr_at,
    save_trainer_state,
    train,
)
from oracles import ExpressionAdam


def tiny_cfg(enc_vocab=13, dec_vocab=11, **kw):
    base = dict(
        d_model=16, n_heads=2, ffn_dim=24, enc_layers=1, dec_layers=1,
        max_positions=32, d_word=6, d_pos=4, d_depth=3, d_subgraph=3,
    )
    base.update(kw)
    return ModelConfig(enc_vocab=enc_vocab, dec_vocab=dec_vocab, **base)


def toy_examples(n=8, enc_vocab=13, dec_vocab=11, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        slen = int(rng.integers(3, 8))
        tlen = int(rng.integers(2, 6))
        out.append(
            ParallelExample(
                tuple(rng.integers(5, enc_vocab, slen).tolist()),
                (0,) * slen,
                (0,) * slen,
                (1,) + tuple(rng.integers(5, dec_vocab, tlen).tolist()) + (2,),
                "en",
            )
        )
    return out


def test_lr_schedule_formula_exact():
    cfg = TrainConfig(base_lr=0.002, warmup_steps=100)
    for step in (1, 17, 50, 99, 100, 101, 1000, 40000):
        want = 0.002 * min(step**-0.5, step * 100**-1.5)
        assert lr_at(step, cfg) == want
    with pytest.raises(ValueError):
        lr_at(0, cfg)


def test_lr_peaks_at_warmup():
    cfg = TrainConfig(base_lr=1.0, warmup_steps=50)
    values = [lr_at(s, cfg) for s in range(1, 200)]
    assert int(np.argmax(values)) + 1 == 50
    assert abs(values[49] - 1.0 / math.sqrt(50)) < 1e-15
    # linear rise before, decay after
    assert all(a < b for a, b in zip(values[:49], values[1:50]))
    assert all(a > b for a, b in zip(values[49:-1], values[50:]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(label_smoothing=1.0).validate()
    TrainConfig().validate()


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 3)).astype(np.float32)
    grads = [rng.normal(size=(4, 3)).astype(np.float32) for _ in range(5)]
    p = Tensor(data.copy(), requires_grad=True)
    opt = Adam([p])

    ref = data.copy().astype(np.float64)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step(lr=0.01)
        p.zero_grad()
        g64 = g.astype(np.float64)
        m = 0.9 * m + 0.1 * g64
        v = 0.98 * v + 0.02 * g64 * g64
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.98**t)
        ref -= 0.01 * mhat / (np.sqrt(vhat) + 1e-9)
    np.testing.assert_allclose(p.data, ref.astype(np.float32), atol=1e-6)


def test_adam_in_place_step_matches_expression_bits():
    """Parameters and both moments equal the expression form's bytes over
    several steps, on mixed shapes, with one parameter never given a grad."""
    rng = np.random.default_rng(7)
    shapes = [(5, 3), (7,), (2, 3, 4), (1,), (6, 2)]
    data = [rng.normal(size=s).astype(np.float32) for s in shapes]
    ours = [Tensor(d.copy(), requires_grad=True) for d in data]
    theirs = [Tensor(d.copy(), requires_grad=True) for d in data]
    opt, ref = Adam(ours), ExpressionAdam(theirs)
    for step in range(1, 7):
        for i, (a, b) in enumerate(zip(ours, theirs)):
            g = None if i == 3 else (rng.normal(size=shapes[i]) * 10.0**-i).astype(np.float32)
            a.grad, b.grad = g, None if g is None else g.copy()
        lr = 0.01 * step**-0.5
        opt.step(lr)
        ref.step(lr)
        for a, b, m, rm, v, rv in zip(ours, theirs, opt.m, ref.m, opt.v, ref.v):
            assert a.data.tobytes() == b.data.tobytes()
            assert m.tobytes() == rm.tobytes() and v.tobytes() == rv.tobytes()
    np.testing.assert_array_equal(ours[3].data, data[3])


def test_adam_rejects_mixed_dtypes():
    params = [Tensor(np.ones(2), dtype=np.float32), Tensor(np.ones(2), dtype=np.float64)]
    with pytest.raises(ValueError, match="one parameter dtype"):
        Adam(params)


def test_adam_skips_params_without_grad():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = Adam([p])
    opt.step(0.1)
    np.testing.assert_array_equal(p.data, np.ones(3))


def test_train_loss_decreases_and_logs():
    params = build(tiny_cfg(), seed=0)
    data = toy_examples(6)
    cfg = TrainConfig(
        base_lr=0.01, warmup_steps=2, max_updates=30, label_smoothing=0.0,
        dropout=0.0, layerdrop=0.0, seed=1, checkpoint_every=10,
        max_tokens_per_batch=256,
    )
    result = train(params, data, data, cfg, pad_id=0)
    assert len(result.log) == 30
    steps = [row[0] for row in result.log]
    assert steps == list(range(1, 31))
    valids = [row[3] for row in result.log if row[3] is not None]
    assert len(valids) == 3  # steps 10, 20, 30
    assert result.log[-1][2] < result.log[0][2]  # training loss fell
    assert result.best_valid_loss == min(valids)
    assert result.best_step in (10, 20, 30)


def test_train_deterministic_across_runs():
    data = toy_examples(5)
    cfg = TrainConfig(
        base_lr=0.005, warmup_steps=2, max_updates=8, dropout=0.1, layerdrop=0.0,
        seed=3, checkpoint_every=4, max_tokens_per_batch=128,
    )
    r1 = train(build(tiny_cfg(), seed=0), data, data, cfg, pad_id=0)
    r2 = train(build(tiny_cfg(), seed=0), data, data, cfg, pad_id=0)
    assert r1.log == r2.log
    for name, t in r1.final_params.named():
        np.testing.assert_array_equal(t.data, r2.final_params[name].data)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    data = toy_examples(5)
    cfg = TrainConfig(
        base_lr=0.005, warmup_steps=2, max_updates=10, dropout=0.0, layerdrop=0.0,
        seed=3, checkpoint_every=5, max_tokens_per_batch=128,
    )
    full = train(build(tiny_cfg(), seed=0), data, data, cfg, pad_id=0)

    params = build(tiny_cfg(), seed=0)
    opt = Adam(params.parameters())
    first = train(
        params, data, data,
        TrainConfig(**{**cfg.__dict__, "max_updates": 6}),
        pad_id=0, optimizer=opt,
    )
    # The interrupted run's state goes through the files a resume reads.
    save_checkpoint(first.final_params, tmp_path / "last.ckpt")
    save_trainer_state(tmp_path / "trainer.state", step=6, opt=opt)
    reloaded = load_checkpoint(tmp_path / "last.ckpt")
    opt = Adam(reloaded.parameters())
    step = load_trainer_state(tmp_path / "trainer.state", opt)
    assert step == 6
    resumed = train(
        reloaded, data, data, cfg, pad_id=0, start_step=step, optimizer=opt,
    )
    assert [row[:3] for row in full.log] == [
        row[:3] for row in first.log + resumed.log
    ]
    for name, t in full.final_params.named():
        np.testing.assert_array_equal(t.data, resumed.final_params[name].data)


def test_trainer_state_round_trip(tmp_path):
    p = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    opt = Adam([p])
    p.grad = np.full((2, 2), 0.5, dtype=np.float32)
    opt.step(0.01)
    path = tmp_path / "trainer.state"
    save_trainer_state(path, step=17, opt=opt)
    opt2 = Adam([Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)])
    step = load_trainer_state(path, opt2)
    assert step == 17
    assert opt2.t == opt.t
    np.testing.assert_array_equal(opt2.m[0], opt.m[0])
    np.testing.assert_array_equal(opt2.v[0], opt.v[0])
    # The loaded moments are updated in place by the next step.
    opt2.params[0].grad = p.grad.copy()
    opt.step(0.01)
    opt2.step(0.01)
    np.testing.assert_array_equal(opt2.m[0], opt.m[0])
    np.testing.assert_array_equal(opt2.v[0], opt.v[0])


def test_on_checkpoint_early_stop():
    params = build(tiny_cfg(), seed=0)
    data = toy_examples(5)
    cfg = TrainConfig(
        base_lr=0.005, warmup_steps=2, max_updates=50, dropout=0.0, layerdrop=0.0,
        seed=1, checkpoint_every=5, max_tokens_per_batch=128,
    )
    seen = []

    def stop(step, params, valid_loss):
        seen.append(step)
        return len(seen) >= 2

    result = train(params, data, data, cfg, pad_id=0, on_checkpoint=stop)
    assert seen == [5, 10]
    assert result.log[-1][0] == 10


def test_diverged_loss_raises_with_last_good():
    params = build(tiny_cfg(), seed=0)
    params["enc_word_emb"].data[0, 0] = np.nan
    data = toy_examples(5)
    cfg = TrainConfig(
        base_lr=0.001, warmup_steps=1, max_updates=5, dropout=0.0, layerdrop=0.0,
        seed=1, checkpoint_every=5, max_tokens_per_batch=128, label_smoothing=0.0,
    )
    with pytest.raises(DivergedLoss) as info:
        train(params, data, data, cfg, pad_id=0)
    assert info.value.last_good is None  # no checkpoint had been taken yet


def test_train_log_file(tmp_path):
    params = build(tiny_cfg(), seed=0)
    data = toy_examples(4)
    cfg = TrainConfig(
        base_lr=0.005, warmup_steps=2, max_updates=6, dropout=0.0, layerdrop=0.0,
        seed=1, checkpoint_every=3, max_tokens_per_batch=128,
    )
    log_path = tmp_path / "train.log"
    train(params, data, data, cfg, pad_id=0, log_path=log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    fields = lines[2].split("\t")
    assert fields[0] == "3" and fields[3]  # validated step has a 4th column


def test_log_is_on_disk_when_each_checkpoint_runs(tmp_path):
    params = build(tiny_cfg(), seed=0)
    data = toy_examples(4)
    cfg = TrainConfig(
        base_lr=0.005, warmup_steps=2, max_updates=6, dropout=0.0, layerdrop=0.0,
        seed=1, checkpoint_every=2, max_tokens_per_batch=128,
    )
    log_path = tmp_path / "train.log"
    on_disk = {}

    def record(step, params, valid_loss):
        on_disk[step] = log_path.read_text(encoding="utf-8").splitlines()
        return False

    train(params, data, data, cfg, pad_id=0, on_checkpoint=record, log_path=log_path)
    assert sorted(on_disk) == [2, 4, 6]
    for step, lines in on_disk.items():
        assert [line.split("\t")[0] for line in lines] == [str(s) for s in range(1, step + 1)]


def test_fresh_run_overwrites_log_and_resume_appends(tmp_path):
    data = toy_examples(4)
    cfg = TrainConfig(
        base_lr=0.005, warmup_steps=2, max_updates=6, dropout=0.0, layerdrop=0.0,
        seed=1, checkpoint_every=3, max_tokens_per_batch=128,
    )
    log_path = tmp_path / "train.log"
    train(build(tiny_cfg(), seed=0), data, data, cfg, pad_id=0, log_path=log_path)
    first = log_path.read_text(encoding="utf-8")
    train(build(tiny_cfg(), seed=0), data, data, cfg, pad_id=0, log_path=log_path)
    assert log_path.read_text(encoding="utf-8") == first
    assert len(first.splitlines()) == 6

    params = build(tiny_cfg(), seed=0)
    opt = Adam(params.parameters())
    head = train(
        params, data, data, TrainConfig(**{**cfg.__dict__, "max_updates": 4}),
        pad_id=0, log_path=log_path, optimizer=opt,
    )
    train(
        head.final_params, data, data, cfg, pad_id=0, log_path=log_path,
        start_step=4, optimizer=opt,
    )
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[:3] for line in lines] == [
        line.split("\t")[:3] for line in first.splitlines()
    ]


def test_dataset_loss_eval_mode_and_batch_loss_agree():
    params = build(tiny_cfg(), seed=0)
    data = toy_examples(4)
    batches = make_batches(data, 256, shuffle_seed=0, pad_id=0)
    assert len(batches) == 1
    direct = batch_loss(params, batches[0], 0, 0.0).item()
    avg = dataset_loss(params, batches, pad_id=0)
    assert abs(direct - avg) < 1e-6


def test_initialize_for_finetune_sources(tmp_path):
    donor = build(tiny_cfg(), seed=5)
    enc_path, dec_path = tmp_path / "enc.ckpt", tmp_path / "dec.ckpt"
    save_checkpoint(donor, enc_path)
    save_checkpoint(donor, dec_path)
    fresh = build(tiny_cfg(), seed=9)
    out, report = initialize_for_finetune(fresh, enc_path, dec_path)
    assert out is fresh
    assert len(report) == 2 and report[0].startswith("enc:") and report[1].startswith("dec:")
    for name, t in donor.named():
        np.testing.assert_allclose(fresh[name].data, t.data, atol=1e-7)

    _, fresh_report = initialize_for_finetune(build(tiny_cfg(), seed=1))
    assert fresh_report == ["fresh: no pretrained weights loaded"]

    other = build(tiny_cfg(enc_vocab=17), seed=0)
    with pytest.raises(ConfigMismatch):
        initialize_for_finetune(other, enc_path)

