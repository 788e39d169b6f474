"""Per-layer forward and backward times at the shapes a workload trains at.

Every figure comes from calling a layer's public function on one batch of
64 ordered training pairs of fold 0 at fraction 0.6 (L = 60), with the
weights of a model built from the workload's RankerConfig.  Forward times
are one call; backward times are ``.sum().backward()`` on that call's
output, timed alone.  Each is the median of REPEATS calls after one warm-up.

The step figures come from one full training step: ``distance``,
``Node.backward`` of the loss and ``Adam.step``.  ``autodiff.tape_nodes``
counts Node objects created by one forward and loss, and
``autodiff.step_alloc_mb`` is the tracemalloc peak of one forward+backward.

``full-greedy`` trains nothing; it measures the r2 model at the same shapes
on its own records, and takes the per-task harness figures from one r2 task
(fold 0, fraction 0.6, validation capped at 256 pairs and test at 512), as
a control that a change to the greedy path should not move.  Workloads whose
ranker has no ACT time an ActLayer built from the same RankerConfig.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from necurve import ActLayer, DatasetSplit, build_ranker, ce_loss, grouped_kfold, total_loss
from necurve.autodiff import Adam, Node, concat, conv1d_causal
from necurve.curves import observed_count
from necurve.harness import evaluate, make_pair_batch, predict_pairs, train
from necurve.rankers import arch_statistics
from spans import Spans
from workloads import WORKLOADS, ranker_config

LAYER_FRACTION = 0.6  # L = 60 observed points, the desk-r2-act shape
REPEATS = 5
BATCH = 64
EVAL_BATCH = 256  # harness.evaluate's batch
CONTROL_VALIDATION, CONTROL_TEST = 256, 512


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def _timed(fn):
    began = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - began


def _forward_backward(forward, reset, repeats: int = REPEATS) -> tuple[float, float]:
    """Median ms of ``forward()`` and of ``.sum().backward()`` on its output."""
    fwd, bwd = [], []
    for rep in range(repeats + 1):
        reset()
        out, seconds = _timed(forward)
        total = out.sum()
        _, back = _timed(total.backward)
        if rep:
            fwd.append(seconds)
            bwd.append(back)
    return _median_ms(fwd), _median_ms(bwd)


def measure(workload, records, seed: int) -> dict:
    config = (workload if workload.trained else WORKLOADS["desk-r2"]).train_config(seed)
    split = grouped_kfold(records, k=config.folds, seed=config.seed)[0]
    n_obs = observed_count(len(records[0].curve), LAYER_FRACTION)
    order = np.random.default_rng([seed, 7]).permutation(len(split.train))[:BATCH]
    chunk = [split.train[i] for i in order]
    batch = make_pair_batch(chunk, n_obs)
    members = {p.left.model_id: p.left for p in split.train}
    train_records = [members[key] for key in sorted(members)]
    arch_mean, arch_sd = arch_statistics([np.asarray(r.architecture, dtype=np.float64)
                                          for r in train_records])
    domains = sorted({r.domain_id for r in train_records})
    hp_dim = len(train_records[0].hyperparameters)
    model = build_ranker(ranker_config(config, n_obs, hp_dim), domains, arch_mean, arch_sd)
    optimizer = Adam(model.params, lr=config.lr)
    rng = np.random.default_rng([seed, 2])
    enc = model.enc
    out = {}

    def ms(value: float) -> dict:
        return {"value": value, "unit": "ms"}

    # ACT: the model's own layer, or one built from the same config
    if enc.act is not None:
        act, act_params = enc.act, model.params
    else:
        act_params = {}
        act_config = ranker_config(config, n_obs, hp_dim, use_act=True)
        act = ActLayer(act_params, n_obs, df=act_config.act_df, gamma=act_config.gamma,
                       mask_mode=act_config.mask_mode, init_mode=act_config.act_init,
                       seed=act_config.seed)
    fwd, bwd = _forward_backward(lambda: act.transform(batch.curves_i),
                                 Adam(act_params).zero_grad)
    out["act.transform_fwd_ms"], out["act.transform_bwd_ms"] = ms(fwd), ms(bwd)

    # TCN on the curve difference the relative ranker feeds it
    diff = (enc.transform_curves(batch.curves_i) - enc.transform_curves(batch.curves_j)).value
    tcn_input = diff.reshape(len(chunk), 1, n_obs)
    fwd, bwd = _forward_backward(lambda: enc.tcn(Node(tcn_input), True), optimizer.zero_grad)
    out["layers.tcn_fwd_ms"], out["layers.tcn_bwd_ms"] = ms(fwd), ms(bwd)

    # conv1d_causal on each TCN layer's real input; summed over the layers
    conv_fwd = conv_bwd = 0.0
    x = tcn_input
    for (w, b), norm, dilation in zip(enc.tcn.convs, enc.tcn.norms, enc.tcn.dilations):
        layer_in = x
        fwd, bwd = _forward_backward(
            lambda: conv1d_causal(Node(layer_in), Node(w.value), dilation), lambda: None
        )
        conv_fwd, conv_bwd = conv_fwd + fwd, conv_bwd + bwd
        x = norm(conv1d_causal(Node(x), w, dilation) + b.reshape(1, -1, 1), True).relu().value
    out["autodiff.conv1d_causal_fwd_ms"] = ms(conv_fwd)
    out["autodiff.conv1d_causal_bwd_ms"] = ms(conv_bwd)

    # architecture encoder + decoder, one side of the batch
    def encode():
        embeddings, sse, _ = enc.encode_architectures(batch.arch_i)
        return concat([embeddings.reshape(-1), sse.reshape(1)])

    fwd, bwd = _forward_backward(encode, optimizer.zero_grad)
    out["rankers.encode_architectures_fwd_ms"] = ms(fwd)
    out["rankers.encode_architectures_bwd_ms"] = ms(bwd)

    # head on the features the relative ranker concatenates
    emb_i = enc.encode_architectures(batch.arch_i)[0].value
    emb_j = enc.encode_architectures(batch.arch_j)[0].value
    equal = np.array([[float(np.array_equal(a, b))] for a, b in zip(batch.arch_i, batch.arch_j)])
    features = np.concatenate([
        enc.tcn(Node(tcn_input), True).value,
        enc.hp_norm(Node(batch.hp_i - batch.hp_j), True).value,
        emb_i - emb_j * (1.0 - equal),
        enc.embed_domains(batch.domain_ids, True).value,
    ], axis=1)
    fwd, bwd = _forward_backward(lambda: enc.head(Node(features), True, rng),
                                 optimizer.zero_grad)
    out["rankers.head_fwd_ms"], out["rankers.head_bwd_ms"] = ms(fwd), ms(bwd)

    # one full training step
    def forward_loss():
        result = model.distance(batch, train=True, rng=rng)
        return result, total_loss(ce_loss(result.delta, batch.labels),
                                  result.reconstruction, config.lam)

    distance_s, backward_s, adam_s = [], [], []
    for rep in range(REPEATS + 1):
        optimizer.zero_grad()
        (_, loss), seconds = _timed(forward_loss)
        _, back = _timed(loss.backward)
        _, step = _timed(optimizer.step)
        if rep:
            distance_s.append(seconds)
            backward_s.append(back)
            adam_s.append(step)
    out["rankers.distance_fwd_ms"] = ms(_median_ms(distance_s))
    out["autodiff.backward_ms"] = ms(_median_ms(backward_s))
    out["autodiff.adam_step_ms"] = ms(_median_ms(adam_s))

    created = 0
    node_init = Node.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal created
        created += 1
        node_init(self, *args, **kwargs)

    optimizer.zero_grad()
    Node.__init__ = counting_init
    try:
        forward_loss()
    finally:
        Node.__init__ = node_init
    out["autodiff.tape_nodes"] = {"value": created, "unit": "count"}

    optimizer.zero_grad()
    tracemalloc.start()
    try:
        forward_loss()[1].backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["autodiff.step_alloc_mb"] = {"value": peak / 2**20, "unit": "MB"}

    samples = [_timed(lambda: make_pair_batch(chunk, n_obs))[1] for _ in range(20)]
    out["harness.make_pair_batch_ms"] = ms(_median_ms(samples))

    # eval-mode scoring of one evaluate() batch; few repeats, because each
    # r2+act call leaves ~0.5 GB of tape behind for the cyclic collector
    scored = (split.test + split.validation)[:EVAL_BATCH]
    samples = [_timed(lambda: predict_pairs(model, scored, n_obs, EVAL_BATCH, seed))[1]
               for _ in range(3)]
    out["harness.predict_pairs_ms"] = ms(_median_ms(samples))

    if not workload.trained:
        out.update(_control_task(split, config))
    return out


def _control_task(split, config) -> dict:
    """One r2 train + evaluate task with capped validation and test sets."""
    capped = DatasetSplit(
        train=split.train, validation=split.validation[:CONTROL_VALIDATION],
        test=split.test[:CONTROL_TEST], fold=split.fold, train_jobs=split.train_jobs,
        validation_jobs=split.validation_jobs, test_jobs=split.test_jobs,
    )
    with Spans() as spans:
        spans.wrap(Adam, "step", "adam_step")
        checkpoint, train_s = _timed(lambda: train(capped, config, LAYER_FRACTION))
    _, evaluate_s = _timed(lambda: evaluate(checkpoint, capped.test, LAYER_FRACTION))
    return {
        "harness.train_s": {"value": train_s, "unit": "s"},
        "harness.evaluate_s": {"value": evaluate_s, "unit": "s"},
        "harness.optimizer_steps": {"value": float(spans.calls["adam_step"]), "unit": "count"},
    }
