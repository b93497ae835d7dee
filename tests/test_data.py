"""Cohort generation, augmentation, splits, and the raw file format."""

import struct
import zlib

import numpy as np
import pytest
from scipy import stats

from ctss.data import (
    GeneratorConfig,
    SubjectDataset,
    augment_rest_class,
    class_template,
    cohorts_equal,
    generate_cohort,
    load_raw,
    loso_split,
    save_raw,
    subject_offset,
    train_val_split,
)
from ctss.errors import DataFormatError, NumericError, ValidationError
from ctss.seeding import derive_seed


def toy_config(**overrides):
    base = dict(n_subjects=4, n_imagery_classes=2, trials_per_class=10,
                n_electrodes=3, n_timesteps=32, snr=2.0, subject_shift_scale=0.5,
                noisy_subject_ids=(), seed=123)
    base.update(overrides)
    return GeneratorConfig(**base)


def add_empty_subject(path, subject_id: int) -> None:
    """Put first in the cohort file a well-formed, CRC-tailed block for ``subject_id`` that holds no trials."""
    blob = path.read_bytes()
    (count,) = struct.unpack_from("<I", blob, 6)
    block = struct.pack("<IBIII", subject_id, 0, 0, 2, 32)
    path.write_bytes(blob[:6] + struct.pack("<I", count + 1) + block
                     + struct.pack("<I", zlib.crc32(block)) + blob[10:])


class TestSubjectDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_trial_raises_naming_the_subject(self, bad):
        trials = np.zeros((2, 3, 4))
        trials[1, 2, 3] = bad
        with pytest.raises(NumericError, match=r"^non-finite .*subject 7"):
            SubjectDataset(subject_id=7, trials=trials, labels=[0, 1])

    @pytest.mark.parametrize("trials", [
        np.arange(24).reshape(2, 3, 4),
        np.arange(24).reshape(2, 3, 4).tolist(),
        np.arange(48.0).reshape(2, 3, 8)[:, :, ::2],
    ], ids=["int-array", "nested-list", "strided-view"])
    def test_trials_become_contiguous_float64(self, trials):
        ds = SubjectDataset(subject_id=0, trials=trials, labels=[0, 1])
        assert ds.trials.dtype == np.float64 and ds.trials.flags.c_contiguous
        np.testing.assert_array_equal(ds.trials, np.asarray(trials, dtype=np.float64))


class TestGenerateCohort:
    def test_counts(self):
        cfg = toy_config(n_subjects=10, trials_per_class=20)
        cohort = generate_cohort(cfg)
        assert len(cohort) == 10
        assert all(ds.n_trials == 40 for ds in cohort)
        assert [ds.subject_id for ds in cohort] == list(range(10))

    def test_noisy_flags(self):
        cohort = generate_cohort(toy_config(noisy_subject_ids=(1, 3)))
        assert [ds.is_noisy for ds in cohort] == [False, True, False, True]

    def test_pure_function_of_config(self):
        cfg = toy_config()
        a = generate_cohort(cfg)
        b = generate_cohort(cfg)
        assert cohorts_equal(a, b)

    def test_seed_changes_data(self):
        a = generate_cohort(toy_config(seed=1))
        b = generate_cohort(toy_config(seed=2))
        assert not cohorts_equal(a, b)

    def test_infinite_snr_limit_trials_identical(self):
        cfg = toy_config(snr=1e12)
        ds = generate_cohort(cfg)[0]
        first_class = ds.trials[ds.labels == 0]
        np.testing.assert_allclose(first_class[0], first_class[1], atol=1e-10)

    def test_noisy_subject_trials_match_rest_distribution(self):
        # channel-mean summaries of a noisy subject's imagery trials should be
        # statistically indistinguishable from its rest trials
        cfg = toy_config(n_subjects=5, trials_per_class=40, noisy_subject_ids=(3,), seed=77)
        cohort = generate_cohort(cfg)
        noisy = cohort[3]
        augmented = augment_rest_class(noisy, cfg)
        imagery = augmented.trials[augmented.labels < 2].mean(axis=(1, 2))
        rest = augmented.trials[augmented.labels == 2].mean(axis=(1, 2))
        _, p = stats.ttest_ind(imagery, rest, equal_var=False)
        assert p > 0.01

    def test_clean_class_means_separate_from_noise_floor(self):
        cfg = toy_config(trials_per_class=30)
        ds = generate_cohort(cfg)[0]
        mean0 = ds.trials[ds.labels == 0].mean(axis=0)
        mean1 = ds.trials[ds.labels == 1].mean(axis=0)
        distance = np.linalg.norm(mean0 - mean1)
        sigma = 1.0 / cfg.snr
        noise_floor = sigma * np.sqrt(mean0.size / 30)
        assert distance > 5.0 * noise_floor

    def test_noisy_subject_keeps_labels_but_loses_class_templates(self):
        clean = generate_cohort(toy_config(trials_per_class=30))
        noisy = generate_cohort(toy_config(noisy_subject_ids=(2,), trials_per_class=30))
        np.testing.assert_array_equal(noisy[2].labels, clean[2].labels)
        # the same offset and noise, with no class template added
        templates = np.stack([class_template(toy_config(), c) for c in range(2)])
        np.testing.assert_allclose(clean[2].trials - noisy[2].trials, templates[clean[2].labels],
                                   atol=1e-12)
        # every other subject draws from its own streams, so it is unchanged
        assert cohorts_equal(noisy[:2] + noisy[3:], clean[:2] + clean[3:])

    def test_matches_one_noise_draw_per_trial(self):
        # the per-trial loop the generator once ran, as the reference: one normal draw per trial
        cfg = toy_config(n_imagery_classes=3, trials_per_class=5, noisy_subject_ids=(0, 2), seed=11)
        for ds in generate_cohort(cfg):
            offset = subject_offset(cfg, ds.subject_id)
            rng = np.random.default_rng(np.random.PCG64(derive_seed(cfg.seed, "trials", ds.subject_id)))
            want = []
            for c in range(cfg.n_imagery_classes):
                for _ in range(cfg.trials_per_class):
                    noise = rng.normal(0.0, 1.0 / cfg.snr, size=offset.shape)
                    want.append(offset + noise if ds.is_noisy else class_template(cfg, c) + offset + noise)
            np.testing.assert_array_equal(ds.trials.view(np.uint64), np.stack(want).view(np.uint64))
            np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(3), 5))

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ValidationError):
            toy_config(trials_per_class=0)
        with pytest.raises(ValidationError):
            toy_config(n_imagery_classes=0)
        with pytest.raises(ValidationError):
            toy_config(snr=0.0)
        with pytest.raises(ValidationError, match="generator.snr"):
            toy_config(snr=1e-320)  # 1/snr, the noise sigma, overflows
        with pytest.raises(ValidationError):
            toy_config(noisy_subject_ids=(9,))


class TestAugmentRestClass:
    def test_doubles_trials_adds_one_class(self):
        cfg = toy_config(n_imagery_classes=3, trials_per_class=50)
        ds = generate_cohort(cfg)[0]
        assert ds.n_trials == 150
        out = augment_rest_class(ds, cfg)
        assert out.n_trials == 300
        assert len(np.unique(out.labels)) == 4

    def test_counting_small(self):
        cfg = toy_config(n_imagery_classes=2, trials_per_class=10)
        out = augment_rest_class(generate_cohort(cfg)[0], cfg)
        assert out.n_trials == 40
        assert np.sum(out.labels == 2) == 20

    def test_rest_labels_and_originals_preserved(self):
        cfg = toy_config()
        ds = generate_cohort(cfg)[1]
        out = augment_rest_class(ds, cfg)
        np.testing.assert_array_equal(out.trials[:ds.n_trials], ds.trials)
        np.testing.assert_array_equal(out.labels[:ds.n_trials], ds.labels)
        assert np.all(out.labels[ds.n_trials:] == cfg.n_imagery_classes)

    @pytest.mark.parametrize("n_imagery_classes, only_class, found", [
        (1, None, [0, 1]),  # a class the config does not know
        (3, None, [0, 1]),  # a configured class with no trials
        (2, 0, [0]),  # one subject holding one class only
    ])
    def test_labels_must_be_exactly_the_imagery_classes(self, n_imagery_classes, only_class, found):
        ds = generate_cohort(toy_config())[1]
        if only_class is not None:
            ds.labels[:] = only_class
        with pytest.raises(ValidationError) as info:
            augment_rest_class(ds, toy_config(n_imagery_classes=n_imagery_classes))
        message = str(info.value)
        assert "subject 1" in message and str(found) in message and "generator.n_imagery_classes" in message

    def test_labels_refused_by_their_exact_values_at_any_size(self):
        ds = SubjectDataset(subject_id=7, trials=np.zeros((3, 3, 32)), labels=np.array([2 ** 40, 0, 1]))
        with pytest.raises(ValidationError) as info:
            augment_rest_class(ds, toy_config())
        assert str(info.value) == ("subject 7 has labels [0, 1, 1099511627776] but generator.n_imagery_classes = "
                                   "2 needs exactly [0, 1], each present")

    def test_double_augmentation_rejected(self):
        cfg = toy_config()
        once = augment_rest_class(generate_cohort(cfg)[0], cfg)
        with pytest.raises(ValidationError):
            augment_rest_class(once, cfg)

    def test_deterministic(self):
        cfg = toy_config()
        ds = generate_cohort(cfg)[2]
        a = augment_rest_class(ds, cfg)
        b = augment_rest_class(ds, cfg)
        np.testing.assert_array_equal(a.trials, b.trials)


class TestLosoSplit:
    def test_fifteen_subjects(self):
        cohort = generate_cohort(toy_config(n_subjects=15))
        source, test = loso_split(cohort, 4)
        assert len(source) == 14
        assert test.subject_id == 4
        assert all(ds.subject_id != 4 for ds in source)

    def test_two_subjects(self):
        cohort = generate_cohort(toy_config(n_subjects=2))
        source, test = loso_split(cohort, 0)
        assert [ds.subject_id for ds in source] == [1]

    def test_partition(self):
        cohort = generate_cohort(toy_config(n_subjects=6))
        for target in range(6):
            source, test = loso_split(cohort, target)
            ids = sorted(ds.subject_id for ds in source) + [test.subject_id]
            assert sorted(ids) == list(range(6))

    def test_single_subject_rejected(self):
        cohort = generate_cohort(toy_config(n_subjects=1))
        with pytest.raises(ValidationError):
            loso_split(cohort, 0)

    def test_unknown_target_rejected(self):
        cohort = generate_cohort(toy_config(n_subjects=3))
        with pytest.raises(ValidationError):
            loso_split(cohort, 9)


class TestTrainValSplit:
    def test_ninety_ten_per_class(self):
        cfg = toy_config(trials_per_class=100, n_subjects=2)
        cohort = generate_cohort(cfg)
        train, val = train_val_split(cohort, 0.9, seed=0)
        for ds_train, ds_val in zip(train, val):
            for cls in (0, 1):
                assert np.sum(ds_train.labels == cls) == 90
                assert np.sum(ds_val.labels == cls) == 10

    def test_fifty_fifty_two_trials(self):
        cfg = toy_config(trials_per_class=2)
        train, val = train_val_split(generate_cohort(cfg), 0.5, seed=1)
        assert all(np.sum(ds.labels == c) == 1 for ds in train for c in (0, 1))
        assert all(np.sum(ds.labels == c) == 1 for ds in val for c in (0, 1))

    def test_deterministic_under_seed(self):
        cohort = generate_cohort(toy_config())
        a_train, a_val = train_val_split(cohort, 0.8, seed=42)
        b_train, b_val = train_val_split(cohort, 0.8, seed=42)
        assert cohorts_equal(a_train, b_train)
        assert cohorts_equal(a_val, b_val)

    def test_partition_is_disjoint_and_complete(self):
        cohort = generate_cohort(toy_config(n_subjects=2, trials_per_class=7))
        train, val = train_val_split(cohort, 0.7, seed=3)
        for full, tr, va in zip(cohort, train, val):
            assert tr.n_trials + va.n_trials == full.n_trials
            merged = np.concatenate([tr.trials, va.trials])
            assert merged.shape == full.trials.shape
            full_rows = {full.trials[i].tobytes() for i in range(full.n_trials)}
            merged_rows = {merged[i].tobytes() for i in range(merged.shape[0])}
            assert full_rows == merged_rows

    def test_classes_split_in_ascending_order_at_any_label_size(self):
        labels = np.array([2 ** 40, 5, 0, 2 ** 40, 0, 5, 2 ** 40, 0, 5, 0])
        ds = SubjectDataset(subject_id=3, trials=np.arange(labels.size * 2.0).reshape(-1, 1, 2), labels=labels)
        train, val = train_val_split([ds], 0.5, seed=4)
        rng = np.random.default_rng(np.random.PCG64(derive_seed(4, "split", 3)))
        expected_train, expected_val = [], []
        for cls in (0, 5, 2 ** 40):  # one permutation per class, drawn in ascending class order
            perm = rng.permutation(np.flatnonzero(labels == cls))
            n_train = min(max(int(0.5 * perm.size), 1), perm.size - 1)
            expected_train.extend(perm[:n_train])
            expected_val.extend(perm[n_train:])
        np.testing.assert_array_equal(train[0].labels, labels[np.sort(expected_train)])
        np.testing.assert_array_equal(train[0].trials, ds.trials[np.sort(expected_train)])
        np.testing.assert_array_equal(val[0].trials, ds.trials[np.sort(expected_val)])

    def test_class_with_single_trial_rejected(self):
        ds = SubjectDataset(subject_id=0, trials=np.zeros((3, 2, 4)), labels=np.array([0, 0, 1]))
        with pytest.raises(ValidationError):
            train_val_split([ds], 0.9, seed=0)

    def test_bad_ratio_rejected(self):
        cohort = generate_cohort(toy_config())
        with pytest.raises(ValidationError):
            train_val_split(cohort, 1.0, seed=0)


def save_raw_reference(cohort, path) -> None:
    """The cohort file layout written the plain way: each subject's block built whole, then its CRC."""
    with open(path, "wb") as fh:
        fh.write(b"CTSS" + struct.pack("<HI", 1, len(cohort)))
        for ds in cohort:
            block = struct.pack("<IBIII", ds.subject_id, int(ds.is_noisy), *ds.trials.shape)
            block += ds.labels.astype("<u2").tobytes() + ds.trials.astype("<f8").tobytes()
            fh.write(block + struct.pack("<I", zlib.crc32(block)))


class TestRawFiles:
    def test_bytes_match_the_reference_layout(self, tmp_path):
        cohort = generate_cohort(toy_config(n_subjects=3, noisy_subject_ids=(1,)))
        cohort[2] = augment_rest_class(cohort[2], toy_config())  # three label values, and twice the trials
        written, expected = tmp_path / "cohort.ctss", tmp_path / "reference.ctss"
        save_raw(cohort, written)
        save_raw_reference(cohort, expected)
        assert written.read_bytes() == expected.read_bytes()

    def test_roundtrip_bitwise(self, tmp_path):
        cfg = toy_config(noisy_subject_ids=(0,))
        cohort = generate_cohort(cfg)
        path = tmp_path / "cohort.ctss"
        save_raw(cohort, path)
        assert cohorts_equal(load_raw(path), cohort)

    def test_subject_count_preserved(self, tmp_path):
        cohort = generate_cohort(toy_config(n_subjects=7))
        path = tmp_path / "cohort.ctss"
        save_raw(cohort, path)
        loaded = load_raw(path)
        assert len(loaded) == 7
        assert [ds.n_trials for ds in loaded] == [ds.n_trials for ds in cohort]

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "cohort.ctss"
        save_raw(generate_cohort(toy_config()), path)
        raw = bytearray(path.read_bytes())
        raw[1] ^= 0x5A
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_raw(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "cohort.ctss"
        save_raw(generate_cohort(toy_config()), path)
        raw = bytearray(path.read_bytes())
        raw[64] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum"):
            load_raw(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "cohort.ctss"
        save_raw(generate_cohort(toy_config()), path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(DataFormatError, match="truncated"):
            load_raw(path)

    def test_non_finite_trial_refused(self, tmp_path):
        cohort = generate_cohort(toy_config())
        cohort[2].trials[1, 0, 5] = np.nan
        path = tmp_path / "cohort.ctss"
        save_raw(cohort, path)
        with pytest.raises(DataFormatError, match=r"cohort\.ctss: bad subject 2 block \(non-finite"):
            load_raw(path)

    def test_subject_without_trials_refused(self, tmp_path):
        path = tmp_path / "cohort.ctss"
        save_raw(generate_cohort(toy_config(n_electrodes=2))[1:], path)
        add_empty_subject(path, 0)
        with pytest.raises(DataFormatError, match=r"cohort\.ctss: bad subject 0 block \(.*no trials"):
            load_raw(path)

    def test_repeated_subject_id_refused(self, tmp_path):
        cohort = generate_cohort(toy_config())
        cohort[2].subject_id = 0
        path = tmp_path / "cohort.ctss"
        save_raw(cohort, path)
        with pytest.raises(DataFormatError, match=r"cohort\.ctss: subject 0 appears twice"):
            load_raw(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "cohort.ctss"
        save_raw(generate_cohort(toy_config()), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_raw(path)
