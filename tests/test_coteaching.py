"""Batching, rate schedule, subject selection, cross-updates, and full training."""

import contextlib
import dataclasses
import itertools
import math
import threading
import tracemalloc
import types

import numpy as np
import pytest

import ctss.blas
import ctss.coteaching
from ctss.blas import single_blas_thread
from ctss.config import ExperimentConfig
from ctss.coteaching import (
    CoteachConfig,
    CoteachState,
    SubjectBatcher,
    cross_update_step,
    init_coteach_state,
    per_subject_loss_sums,
    read_selection_log,
    remember_rate,
    select_small_loss_subjects,
    train_coteaching,
    write_selection_log,
)
from ctss.data import GeneratorConfig, SubjectDataset, augment_rest_class, generate_cohort, train_val_split
from ctss.errors import NumericError, ValidationError
from ctss.models import Model, ModelConfig, build_mini_resnet1d, save_checkpoint
from ctss.optim import AdamState, adam_step
from ctss.tensor import KEPT_WINDOW_VALUES, Tape, Tensor, conv_output_length, softmax_cross_entropy


def toy_cohort(n_subjects=3, trials_per_class=6, seed=0, noisy=()):
    cfg = GeneratorConfig(n_subjects=n_subjects, n_imagery_classes=2,
                          trials_per_class=trials_per_class, n_electrodes=2,
                          n_timesteps=32, snr=1.0, subject_shift_scale=0.3,
                          noisy_subject_ids=noisy, seed=seed)
    return [augment_rest_class(ds, cfg) for ds in generate_cohort(cfg)], cfg


def toy_model_config(seed=0, width=2):
    return ModelConfig(n_electrodes=2, n_timesteps=32, n_classes=3,
                       width_base=width, n_blocks=1, seed=seed)


class TestSubjectBatcher:
    def test_batch_size_is_b_times_n(self):
        cohort, _ = toy_cohort(n_subjects=14, trials_per_class=8)
        batcher = SubjectBatcher(cohort, 8, np.random.default_rng(0))
        batch = batcher.next_batch()
        assert batch.total_samples == 112
        assert batch.subject_ids == tuple(range(14))

    def test_single_subject_single_sample(self):
        cohort, _ = toy_cohort(n_subjects=2)
        batcher = SubjectBatcher(cohort[:1], 1, np.random.default_rng(0))
        assert batcher.next_batch().total_samples == 1

    def test_epoch_pass_covers_dataset_exactly(self):
        cohort, _ = toy_cohort(n_subjects=2, trials_per_class=8)
        ds = cohort[0]  # 32 trials after augmentation
        batcher = SubjectBatcher([ds], 8, np.random.default_rng(1))
        seen = []
        for _ in range(ds.n_trials // 8):
            batch = batcher.next_batch()
            seen.extend(batch.trials.data[i].tobytes() for i in range(8))
        expected = sorted(ds.trials[i].tobytes() for i in range(ds.n_trials))
        assert sorted(seen) == expected

    def test_cyclic_refill_when_exhausted(self):
        cohort, _ = toy_cohort(n_subjects=2, trials_per_class=3)  # 12 trials
        batcher = SubjectBatcher(cohort[:1], 8, np.random.default_rng(2))
        first = batcher.next_batch()
        second = batcher.next_batch()  # crosses the refill boundary
        assert first.total_samples == second.total_samples == 8

    def test_subjects_ordered_by_id(self):
        cohort, _ = toy_cohort(n_subjects=4)
        batcher = SubjectBatcher(list(reversed(cohort)), 2, np.random.default_rng(3))
        assert batcher.next_batch().subject_ids == (0, 1, 2, 3)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            SubjectBatcher([], 8, np.random.default_rng(0))

    def test_subjects_of_another_trial_shape_rejected(self):
        cohort, _ = toy_cohort(n_subjects=2)
        other = SubjectDataset(subject_id=5, trials=np.zeros((4, 2, 31)), labels=[0, 1, 2, 0])
        with pytest.raises(ValidationError, match=r"differ in shape \[E, T\]: \[\[2, 31\], \[2, 32\]\]"):
            SubjectBatcher(cohort + [other], 2, np.random.default_rng(0))


class TestRememberRate:
    def test_zero_epoch(self):
        assert remember_rate(0, 10, 0.2) == 1.0

    def test_plateau_value(self):
        assert remember_rate(10, 10, 0.2) == pytest.approx(0.8, abs=1e-15)
        assert remember_rate(40, 10, 0.2) == pytest.approx(0.8, abs=1e-15)

    def test_midway(self):
        assert remember_rate(5, 10, 0.2) == pytest.approx(0.9, abs=1e-15)

    def test_matches_closed_form_and_monotone(self):
        values = [remember_rate(t, 10, 0.2) for t in range(51)]
        for t, v in enumerate(values):
            assert v == 1.0 - min(t / 10 * 0.2, 0.2)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_tau(self):
        with pytest.raises(ValidationError):
            remember_rate(1, 10, 1.0)


class TestPerSubjectLossSums:
    def test_zero_weight_model(self):
        cohort, _ = toy_cohort(n_subjects=3)
        model = build_mini_resnet1d(toy_model_config())
        for p in model.parameters():
            p.data[:] = 0.0
        batcher = SubjectBatcher(cohort, 4, np.random.default_rng(0))
        sums = per_subject_loss_sums(model, batcher.next_batch())
        np.testing.assert_allclose(sums, 4 * math.log(3.0), atol=1e-9)

    def test_b_equals_one_gives_sample_losses(self):
        cohort, _ = toy_cohort(n_subjects=3)
        model = build_mini_resnet1d(toy_model_config(seed=5))
        batch = SubjectBatcher(cohort, 1, np.random.default_rng(1)).next_batch()
        sums = per_subject_loss_sums(model, batch)
        from ctss.models import per_sample_losses
        np.testing.assert_array_equal(sums, per_sample_losses(model, batch.trials, batch.labels))

    def test_matches_regrouped_per_sample_losses(self):
        cohort, _ = toy_cohort(n_subjects=4)
        model = build_mini_resnet1d(toy_model_config(seed=9))
        batch = SubjectBatcher(cohort, 3, np.random.default_rng(2)).next_batch()
        sums = per_subject_loss_sums(model, batch)
        from ctss.models import per_sample_losses
        losses = per_sample_losses(model, batch.trials, batch.labels)
        regrouped = losses.reshape(4, 3).sum(axis=1)
        np.testing.assert_allclose(sums, regrouped, atol=1e-12)


class TestSelectSmallLossSubjects:
    def test_example(self):
        assert select_small_loss_subjects([1.0, 3.0, 0.5, 2.0], 0.5) == [0, 2]

    def test_full_retention(self):
        assert select_small_loss_subjects([5.0, 1.0, 3.0], 1.0) == [0, 1, 2]

    def test_tie_break_to_lower_index(self):
        assert select_small_loss_subjects([2.0, 2.0, 2.0, 2.0], 0.5) == [0, 1]

    def test_matches_bruteforce_subset_minimization(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            sums = rng.normal(size=n)
            r = float(rng.uniform(0.05, 1.0))
            k = min(math.ceil(r * n), n)
            best = min(itertools.combinations(range(n), k), key=lambda c: sum(sums[i] for i in c))
            assert select_small_loss_subjects(sums, r) == sorted(best)

    def test_invalid_rate(self):
        with pytest.raises(ValidationError):
            select_small_loss_subjects([1.0], 0.0)
        with pytest.raises(ValidationError):
            select_small_loss_subjects([], 0.5)


def make_state(model_config, config):
    return init_coteach_state(model_config, config)


def fresh_adam(model):
    return AdamState(np.zeros_like(model.flat), np.zeros_like(model.flat))


class TestCrossUpdateStep:
    def test_full_retention_equals_two_plain_steps(self):
        cohort, _ = toy_cohort(n_subjects=3)
        cc = CoteachConfig(seed=3)
        state = make_state(toy_model_config(), cc)
        batch = SubjectBatcher(cohort, 4, np.random.default_rng(0)).next_batch()

        ref_f = state.model_f.clone()
        ref_g = state.model_g.clone()
        for ref in (ref_f, ref_g):
            # independent oracle: one Adam step on the mean loss over the whole batch
            tape = Tape()
            logits = ref.forward(batch.trials, tape)
            _, grad = softmax_cross_entropy(logits, batch.labels)
            tape.backward(grad.data / batch.total_samples, output=logits)
            flat_grad = np.concatenate([tape.grad(p) for p in ref.parameters()], axis=None)
            adam_step(ref.flat, flat_grad, fresh_adam(ref), 0.01)

        cross_update_step(state, batch, 0.01, 1.0)
        for p, q in zip(state.model_f.parameters(), ref_f.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        for p, q in zip(state.model_g.parameters(), ref_g.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    @staticmethod
    def per_tensor_reference(models, batches, lr, r, optimizer):
        """Cross-updates with the optimizer looping over each parameter tensor on its own.

        Returns each network's Adam moments, per tensor.
        """
        moments = [([np.zeros_like(p.data) for p in model.parameters()],
                    [np.zeros_like(p.data) for p in model.parameters()]) for model in models]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, batch in enumerate(batches, start=1):
            forwards = []
            for model in models:
                tape = Tape()
                logits = model.forward(batch.trials, tape)
                losses, grad = softmax_cross_entropy(logits, batch.labels)
                picks = select_small_loss_subjects(batch.subject_sums(losses.data), r)
                forwards.append((tape, logits, grad.data, picks))
            for model, (ms, vs), (tape, logits, grad, _), (*_, peer_picks) in zip(
                    models, moments, forwards, forwards[::-1]):
                mask = batch.sample_mask(peer_picks)
                tape.backward(grad * mask[:, None] / mask.sum(), output=logits)
                for p, m, v in zip(model.parameters(), ms, vs):
                    g = tape.grad(p)
                    if optimizer == "sgd":
                        p.data -= lr * g
                        continue
                    m *= b1
                    m += (1.0 - b1) * g
                    v *= b2
                    v += (1.0 - b2) * (g * g)
                    p.data -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        return moments

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_steps_match_per_tensor_reference(self, optimizer):
        cohort, _ = toy_cohort(n_subjects=4)
        state = make_state(toy_model_config(), CoteachConfig(optimizer=optimizer, seed=41))
        refs = [state.model_f.clone(), state.model_g.clone()]
        initial = [ref.flat.copy() for ref in refs]
        batcher = SubjectBatcher(cohort, 3, np.random.default_rng(4))
        batches = [batcher.next_batch() for _ in range(4)]
        moments = self.per_tensor_reference(refs, batches, 0.02, 0.5, optimizer)
        for batch in batches:
            cross_update_step(state, batch, 0.02, 0.5)
        for model, ref, start, adam, (ms, vs) in zip((state.model_f, state.model_g), refs, initial,
                                                      (state.adam_f, state.adam_g), moments):
            np.testing.assert_array_equal(model.flat, ref.flat)
            assert not np.array_equal(model.flat, start)
            if optimizer == "adam":
                assert adam.step == len(batches)
                np.testing.assert_array_equal(adam.m, np.concatenate(ms, axis=None))
                np.testing.assert_array_equal(adam.v, np.concatenate(vs, axis=None))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_non_finite_update_raises(self, optimizer):
        cohort, _ = toy_cohort(n_subjects=3)
        state = make_state(toy_model_config(), CoteachConfig(optimizer=optimizer, seed=43))
        batch = SubjectBatcher(cohort, 2, np.random.default_rng(6)).next_batch()
        with pytest.raises(NumericError, match=f"{optimizer}_step produced non-finite parameters"):
            cross_update_step(state, batch, math.inf, 1.0)

    def test_identical_networks_stay_identical_at_full_retention(self):
        cohort, _ = toy_cohort(n_subjects=3)
        model_f = build_mini_resnet1d(toy_model_config(seed=11))
        model_g = build_mini_resnet1d(toy_model_config(seed=11))
        state = CoteachState(model_f=model_f, model_g=model_g,
                             adam_f=fresh_adam(model_f), adam_g=fresh_adam(model_g))
        batcher = SubjectBatcher(cohort, 4, np.random.default_rng(5))
        for _ in range(4):
            cross_update_step(state, batcher.next_batch(), 0.01, 1.0)
        for p, q in zip(state.model_f.parameters(), state.model_g.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    @staticmethod
    def sgd_step_deviation(net):
        """Max deviation of one SGD cross-update of ``net`` from an independent peer-subset step."""
        cohort, _ = toy_cohort(n_subjects=4)
        cc = CoteachConfig(optimizer="sgd", seed=13)
        state = make_state(toy_model_config(), cc)
        batch = SubjectBatcher(cohort, 3, np.random.default_rng(1)).next_batch()
        lr, r = 0.05, 0.5
        model, peer = (state.model_f, state.model_g) if net == "f" else (state.model_g, state.model_f)

        before = [p.data.copy() for p in model.parameters()]
        pos_peer = select_small_loss_subjects(per_subject_loss_sums(peer, batch), r)
        assert len(pos_peer) < batch.n_subjects
        trials_peer, labels_peer = batch.subset(pos_peer)

        # independent single-network gradient of the mean loss on the peer's subjects
        probe = model.clone()
        tape = Tape()
        logits = probe.forward(trials_peer, tape)
        _, grad = softmax_cross_entropy(logits, labels_peer)
        tape.backward(grad.data / labels_peer.shape[0], output=logits)
        expected = [b - lr * tape.grad(p) for b, p in zip(before, probe.parameters())]

        cross_update_step(state, batch, lr, r)
        return max(float(np.max(np.abs(p.data - e))) for p, e in zip(model.parameters(), expected))

    def test_sgd_single_step_matches_independent_gradient(self):
        assert self.sgd_step_deviation("f") <= 1e-10

    def test_sgd_single_step_of_g_matches_independent_gradient(self):
        assert self.sgd_step_deviation("g") <= 1e-10

    def test_one_taped_forward_per_network(self, monkeypatch):
        cohort, _ = toy_cohort(n_subjects=4)
        state = make_state(toy_model_config(), CoteachConfig(seed=17))
        batch = SubjectBatcher(cohort, 3, np.random.default_rng(2)).next_batch()
        calls = []
        original = Model.forward

        def counting_forward(self, x, tape=None, *rest):
            calls.append((tape is not None, x.shape[0]))
            return original(self, x, tape, *rest)

        monkeypatch.setattr(Model, "forward", counting_forward)
        cross_update_step(state, batch, 0.01, 0.5)
        assert calls == [(True, batch.total_samples)] * 2

    def test_selections_computed_before_updates(self):
        cohort, _ = toy_cohort(n_subjects=4)
        cc = CoteachConfig(seed=17)
        state = make_state(toy_model_config(), cc)
        batch = SubjectBatcher(cohort, 3, np.random.default_rng(2)).next_batch()
        pre_f = per_subject_loss_sums(state.model_f, batch)
        pre_g = per_subject_loss_sums(state.model_g, batch)
        rec_f, rec_g = cross_update_step(state, batch, 0.01, 0.5)
        np.testing.assert_allclose(rec_f.loss_sums, pre_f, atol=1e-12)
        np.testing.assert_allclose(rec_g.loss_sums, pre_g, atol=1e-12)
        assert rec_g.selected == [batch.subject_ids[p]
                                  for p in select_small_loss_subjects(pre_g, 0.5)]

    def test_record_invariants(self):
        cohort, _ = toy_cohort(n_subjects=5)
        cc = CoteachConfig(seed=19)
        state = make_state(toy_model_config(), cc)
        batch = SubjectBatcher(cohort, 2, np.random.default_rng(3)).next_batch()
        r = 0.6
        for rec in cross_update_step(state, batch, 0.01, r):
            assert len(rec.selected) == math.ceil(r * 5)
            sums = dict(zip(batch.subject_ids, rec.loss_sums))
            selected_max = max(sums[s] for s in rec.selected)
            unselected = [sums[s] for s in batch.subject_ids if s not in rec.selected]
            assert selected_max <= min(unselected)

    def test_seed_swap_symmetry(self):
        # swapping the two networks' parameter sets swaps the paired outputs
        cohort, _ = toy_cohort(n_subjects=3)
        cc = CoteachConfig(seed=23)
        state_a = make_state(toy_model_config(), cc)
        swapped_f = state_a.model_g.clone()
        swapped_g = state_a.model_f.clone()
        state_b = CoteachState(
            model_f=swapped_f, model_g=swapped_g,
            adam_f=fresh_adam(swapped_f), adam_g=fresh_adam(swapped_g))
        batcher_a = SubjectBatcher(cohort, 4, np.random.default_rng(7))
        batcher_b = SubjectBatcher(cohort, 4, np.random.default_rng(7))
        for _ in range(3):
            cross_update_step(state_a, batcher_a.next_batch(), 0.01, 0.7)
            cross_update_step(state_b, batcher_b.next_batch(), 0.01, 0.7)
        for p, q in zip(state_a.model_f.parameters(), state_b.model_g.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        for p, q in zip(state_a.model_g.parameters(), state_b.model_f.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


def full_size_batch() -> tuple[ModelConfig, Tensor, np.ndarray]:
    """The CLI defaults' model config and a random batch of its size: B = b x 9 source subjects."""
    cfg = ExperimentConfig()
    rng = np.random.default_rng(0)
    n = cfg.coteach.b * (cfg.generator.n_subjects - 1)
    trials = Tensor(rng.normal(size=(n, cfg.generator.n_electrodes, cfg.generator.n_timesteps)))
    return cfg.model_config(), trials, rng.integers(0, cfg.generator.n_imagery_classes + 1, size=n)


def backward_read_bytes(model: Model, b: int, e: int, t: int) -> int:
    """Bytes that a taped forward over a live batch [b, e, t] keeps for its backward.

    A conv keeps the windows it built below KEPT_WINDOW_VALUES values and its input at or above. The
    stem's input is the batch and a conv2's is an ELU output, both held already; a block's conv1 and
    1x1 shortcut read one input, kept once. Every ELU output, each max pool's int64 argmax and the
    head's arrays are kept too."""
    def conv(layer, c: int, length: int) -> tuple[int, int, int]:  # window values, output channels, length
        c_out, _, k = layer.weight.shape
        n_out = conv_output_length(length, k, layer.stride, layer.padding)
        return c * k * b * n_out, c_out, n_out

    def kept(windows: int) -> int:  # the windows a conv keeps, none when it keeps its input
        return windows if windows < KEPT_WINDOW_VALUES else 0

    windows, c, length = conv(model.stem, e, t)
    values = kept(windows) + b * c * length  # and the stem's ELU output
    input_held = True  # the first block reads the stem's ELU output
    for first, second, pool in model.stages:
        for block in (first, second):
            w1, c1, l1 = conv(block.conv1, c, length)
            reads_input = [w1] + ([conv(block.shortcut, c, length)[0]] if block.shortcut else [])
            values += sum(kept(w) for w in reads_input)
            if not input_held and max(reads_input) >= KEPT_WINDOW_VALUES:
                values += b * c * length
            values += b * c1 * l1 + kept(conv(block.conv2, c1, l1)[0])  # conv1's ELU output, conv2's windows
            c, length, input_held = c1, l1, False  # the block's output is an add's, which nothing keeps
        if pool:
            length = conv_output_length(length, 4, 4, 0)
            values += b * c * length  # the pool's argmax
    n_classes = model.head.weight.shape[0]
    # the head's ELU output, the linear input, logits, losses and logit gradients
    values += b * c * length + b * c + b * n_classes + b + b * n_classes
    return 8 * values


def closure_arrays(fn) -> dict[int, np.ndarray]:
    return {id(cell.cell_contents): cell.cell_contents for cell in fn.__closure__ or ()
            if isinstance(cell.cell_contents, np.ndarray)}


def assert_taped_forward_keeps_only_what_backward_reads(model_config: ModelConfig) -> None:
    _, trials, labels = full_size_batch()
    model = build_mini_resnet1d(model_config)
    model.forward(trials)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forward = ctss.coteaching._taped_forward(model, trials, labels)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    expected = backward_read_bytes(model, *trials.shape)
    # the slack covers the tape's Python objects; the smallest kept array is larger (73,728 bytes:
    # the four-stage network's last pool argmax)
    assert expected <= held <= expected + 2 ** 16, (held, expected)
    assert forward.losses.shape == labels.shape


class TestStepMemory:
    def test_taped_forward_keeps_only_what_backward_reads(self):
        assert_taped_forward_keeps_only_what_backward_reads(full_size_batch()[0])

    def test_four_stage_taped_forward_keeps_only_what_backward_reads(self):
        # max pools, and convs on both sides of KEPT_WINDOW_VALUES (stage 4's shortcut keeps its windows)
        assert_taped_forward_keeps_only_what_backward_reads(
            dataclasses.replace(full_size_batch()[0], width_base=16, n_blocks=4))

    def test_networks_share_one_stem_window_array(self, monkeypatch):
        # 4 x 200 samples: 179,200 stem window values, which a stem building its own would not keep
        cohort, _ = toy_cohort(n_subjects=4)
        state = make_state(toy_model_config(), CoteachConfig(seed=17))
        batch = SubjectBatcher(cohort, 200, np.random.default_rng(2)).next_batch()
        stems = []
        original = ctss.coteaching._masked_update

        def spy(model, opt_state, forward, *rest):
            stems.append(closure_arrays(forward.tape._entries[0][-1]))  # the stem conv's closure
            return original(model, opt_state, forward, *rest)

        monkeypatch.setattr(ctss.coteaching, "_masked_update", spy)
        cross_update_step(state, batch, 0.01, 0.5)
        f_arrays, g_arrays = stems
        shared = [a for key, a in f_arrays.items() if key in g_arrays]
        _, e, t = batch.trials.shape
        assert [a.shape for a in shared] == [(e * 7, batch.total_samples * conv_output_length(t, 7, 2, 3))]
        assert shared[0].size >= KEPT_WINDOW_VALUES
        assert not shared[0].flags.writeable
        for model, arrays in zip((state.model_f, state.model_g), stems):  # beside them, only the kernels
            assert [np.shares_memory(a, model.stem.weight.data) for a in arrays.values() if a is not shared[0]] == [True]


class TestTrainCoteaching:
    def test_first_epoch_selects_everyone(self):
        cohort, _ = toy_cohort(n_subjects=3)
        train, val = train_val_split(cohort, 0.8, seed=0)
        cc = CoteachConfig(t_max=1, seed=29)
        result = train_coteaching(train, val, toy_model_config(), cc)
        for rec in result.logs.selection_records:
            assert rec.epoch == 1
            assert rec.selected == [0, 1, 2]
            assert rec.remember_rate == pytest.approx(0.98)

    def test_deterministic_under_seed(self):
        cohort, _ = toy_cohort(n_subjects=3, noisy=(1,))
        train, val = train_val_split(cohort, 0.8, seed=1)
        cc = CoteachConfig(t_max=3, seed=31)
        a = train_coteaching(train, val, toy_model_config(), cc)
        b = train_coteaching(train, val, toy_model_config(), cc)
        assert [r.to_json() for r in a.logs.selection_records] == \
               [r.to_json() for r in b.logs.selection_records]
        for p, q in zip(a.checkpoint.model.parameters(), b.checkpoint.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        assert a.checkpoint.epoch == b.checkpoint.epoch
        assert a.checkpoint.net == b.checkpoint.net

    def test_selection_log_schema_roundtrip(self, tmp_path):
        cohort, _ = toy_cohort(n_subjects=3)
        train, val = train_val_split(cohort, 0.8, seed=2)
        cc = CoteachConfig(t_max=2, seed=37)
        result = train_coteaching(train, val, toy_model_config(), cc)
        path = tmp_path / "selections.jsonl"
        write_selection_log(result.logs.selection_records, path)
        loaded = read_selection_log(path)
        assert len(loaded) == len(result.logs.selection_records)
        for a, b in zip(loaded, result.logs.selection_records):
            assert (a.epoch, a.iteration, a.net) == (b.epoch, b.iteration, b.net)
            assert a.selected == b.selected
            np.testing.assert_allclose(a.loss_sums, b.loss_sums)

    @pytest.mark.parametrize("method, accuracies, best", [
        ("coteach", [0.5, 0.6, 0.9, 0.7, 0.8, 0.9], ("f", 2)),  # f, g per epoch; earlier epoch wins ties
        ("baseline", [0.5, 0.9, 0.9], ("baseline", 2)),
    ])
    def test_checkpoint_is_the_network_at_its_best_epoch(self, monkeypatch, method, accuracies, best):
        cohort, _ = toy_cohort(n_subjects=3)
        train, val = train_val_split(cohort, 0.8, seed=3)
        scripted = iter(accuracies)
        seen = []  # each evaluated network's parameters, in evaluation order

        def evaluate(model, datasets, n_classes):
            seen.append(model.flat.copy())
            return next(scripted)

        monkeypatch.setattr(ctss.coteaching, "evaluate_balanced_accuracy", evaluate)
        live = {}
        result = train_coteaching(train, val, toy_model_config(), CoteachConfig(t_max=3, seed=47),
                                  epoch_callback=lambda t, models: live.update(models), method=method)
        ckpt = result.checkpoint
        assert (ckpt.net, ckpt.epoch, ckpt.balanced_accuracy) == (*best, 0.9)
        n_nets = len(live)
        at_best = seen[(ckpt.epoch - 1) * n_nets + list(live).index(ckpt.net)]
        np.testing.assert_array_equal(ckpt.model.flat, at_best)
        # the network trained on after its best epoch; the checkpoint kept its own copy
        assert not np.array_equal(live[ckpt.net].flat, at_best)
        assert not np.shares_memory(ckpt.model.flat, live[ckpt.net].flat)
        assert all(np.shares_memory(p.data, ckpt.model.flat) for p in ckpt.model.parameters())

    def test_empty_training_set_rejected(self):
        cohort, _ = toy_cohort(n_subjects=3)
        with pytest.raises(ValidationError):
            train_coteaching([], cohort, toy_model_config(), CoteachConfig())

    def test_unknown_method_rejected(self):
        cohort, _ = toy_cohort(n_subjects=3)
        with pytest.raises(ValidationError, match="method"):
            train_coteaching(cohort, cohort, toy_model_config(), CoteachConfig(), method="Coteach")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CoteachConfig(tau=1.0)
        with pytest.raises(ValidationError):
            CoteachConfig(b=0)
        with pytest.raises(ValidationError):
            CoteachConfig(optimizer="momentum")


def blas_thread_count() -> int | None:
    """OpenBLAS's thread count, as the pin reports what it replaced; None where it cannot be pinned."""
    with single_blas_thread() as count:
        return count


def force_threads(monkeypatch) -> None:
    """Trains even the toy recipe's pair on two threads; skips where OpenBLAS has no second thread to give up."""
    if blas_thread_count() is None:
        pytest.skip("no OpenBLAS thread control in this process")
    if blas_thread_count() == 1:
        pytest.skip("OpenBLAS runs one thread, so co-teaching starts no helper thread")
    monkeypatch.setattr(ctss.coteaching, "_THREAD_MIN_VALUES", 0)


def forward_threads(monkeypatch, name: str = "_taped_forward") -> list[bool]:
    """Records, per call of ``ctss.coteaching.<name>``, whether it ran on the calling thread."""
    caller = threading.get_ident()
    on_caller = []
    original = getattr(ctss.coteaching, name)

    def spy(*args):
        on_caller.append(threading.get_ident() == caller)
        return original(*args)

    monkeypatch.setattr(ctss.coteaching, name, spy)
    return on_caller


class TestThreadedPair:
    @staticmethod
    def fold_data():
        cohort, _ = toy_cohort(n_subjects=3, noisy=(1,))
        return (*train_val_split(cohort, 0.8, seed=1), toy_model_config(), CoteachConfig(t_max=3, seed=31))

    def test_pin_sets_one_thread_and_restores_on_error(self):
        before = blas_thread_count()
        with pytest.raises(KeyError), single_blas_thread() as replaced:
            assert replaced == before
            assert blas_thread_count() == (None if before is None else 1)
            raise KeyError
        assert blas_thread_count() == before

    @pytest.mark.parametrize("count, sets", [(1, []), (2, [1, 2])])
    def test_pin_sets_nothing_when_one_thread_runs_already(self, monkeypatch, count, sets):
        """In a forked child, any set restarts OpenBLAS's thread pool, so a count of 1 is left alone."""
        calls, threads = [], [count]

        def set_threads(n):
            calls.append(n)
            threads[0] = n

        lib = types.SimpleNamespace(openblas_get_num_threads=lambda: threads[0],
                                    openblas_set_num_threads=set_threads)
        monkeypatch.setattr(ctss.blas, "_openblas_libraries", lambda: [lib])
        with single_blas_thread() as replaced:
            assert replaced == count and threads == [1]
        assert calls == sets and threads == [count]

    def test_bitwise_equal_to_serial(self, monkeypatch, tmp_path):
        train, val, model_config, cc = self.fold_data()
        on_caller = forward_threads(monkeypatch)
        evaluated_on_caller = forward_threads(monkeypatch, "evaluate_balanced_accuracy")
        serial = train_coteaching(train, val, model_config, cc)
        assert all(on_caller) and all(evaluated_on_caller)  # the toy batch is far below the threshold

        with monkeypatch.context() as patch:
            force_threads(patch)
            before = blas_thread_count()
            on_caller.clear()
            evaluated_on_caller.clear()
            pair = train_coteaching(train, val, model_config, cc)
            assert blas_thread_count() == before
        # f here, g on the helper
        assert on_caller.count(True) == on_caller.count(False) > 0
        assert evaluated_on_caller.count(True) == evaluated_on_caller.count(False) == cc.t_max

        assert [(r.to_json(), r.subject_ids) for r in pair.logs.selection_records] == \
               [(r.to_json(), r.subject_ids) for r in serial.logs.selection_records]
        assert pair.logs.epoch_stats == serial.logs.epoch_stats
        assert (pair.checkpoint.net, pair.checkpoint.epoch) == (serial.checkpoint.net, serial.checkpoint.epoch)
        save_checkpoint(serial.checkpoint.model, tmp_path / "serial.bin")
        save_checkpoint(pair.checkpoint.model, tmp_path / "pair.bin")
        assert (tmp_path / "pair.bin").read_bytes() == (tmp_path / "serial.bin").read_bytes()

    def test_error_in_g_propagates_and_leaves_no_thread(self, monkeypatch):
        force_threads(monkeypatch)
        caller = threading.get_ident()
        original = ctss.coteaching._masked_update

        def update(*args):
            if threading.get_ident() != caller:
                raise NumericError("non-finite values in g")
            return original(*args)

        monkeypatch.setattr(ctss.coteaching, "_masked_update", update)
        threads, counts = set(threading.enumerate()), blas_thread_count()
        with pytest.raises(NumericError, match="in g"):
            train_coteaching(*self.fold_data())
        assert set(threading.enumerate()) == threads
        assert blas_thread_count() == counts

    def test_heap_policy_is_set_before_the_helper_thread_exists(self, monkeypatch):
        # a thread keeps the malloc arena it first allocates from, so the one-arena cap must come first
        force_threads(monkeypatch)
        caller, events = threading.get_ident(), []
        original_policy, original_helper = ctss.coteaching.keep_freed_memory, ctss.coteaching._network_g_helper

        def policy():
            helper_threads = [t for t in threading.enumerate() if t.name.startswith("ctss-g")]
            events.append(("policy", len(helper_threads)))
            return original_policy()

        @contextlib.contextmanager
        def helper_spy(enabled):
            with original_helper(enabled) as helper:
                events.append(("helper", helper is not None))
                submit = helper.submit

                def spy_submit(call):
                    def run():
                        events.append(("run", threading.get_ident() != caller))
                        return call()
                    return submit(run)

                helper.submit = spy_submit
                yield helper

        monkeypatch.setattr(ctss.coteaching, "keep_freed_memory", policy)
        monkeypatch.setattr(ctss.coteaching, "_network_g_helper", helper_spy)
        train_coteaching(*self.fold_data())
        assert events[:3] == [("policy", 0), ("helper", True), ("run", True)]
        assert events.count(("policy", 0)) == 1

    def test_serial_when_the_pin_fails(self, monkeypatch):
        monkeypatch.setattr(ctss.coteaching, "_THREAD_MIN_VALUES", 0)
        monkeypatch.setattr(ctss.coteaching, "single_blas_thread", lambda: contextlib.nullcontext(None))
        on_caller = forward_threads(monkeypatch)
        train_coteaching(*self.fold_data())
        assert on_caller and all(on_caller)

    def test_baseline_stays_serial(self, monkeypatch):
        monkeypatch.setattr(ctss.coteaching, "_THREAD_MIN_VALUES", 0)
        on_caller = forward_threads(monkeypatch)
        train_coteaching(*self.fold_data(), method="baseline")
        assert on_caller and all(on_caller)
