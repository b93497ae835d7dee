"""Synthetic multi-subject cohorts, rest-class augmentation, splits, and raw file I/O.

Cohort model: each imagery class has a global template built from a few
class-distinct sinusoids mixed across channels; every subject adds a fixed
low-frequency offset pattern; trials are template + offset + white noise.
The rest distribution is the same construction without any class template.
Subjects listed in ``noisy_subject_ids`` draw their imagery trials from the
rest distribution while keeping imagery labels, i.e. their recordings carry
no class signal at all.

Everything is a pure function of the config (including its seed): per-subject
and per-class streams derive from the seed, so generation order never matters.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .config import GeneratorConfig
from .errors import DataFormatError, NumericError, ValidationError
from .seeding import derive_seed

RAW_MAGIC = b"CTSS"
RAW_VERSION = 1

_TEMPLATE_COMPONENTS = 3
_OFFSET_COMPONENTS = 2


class SubjectDataset:
    """One subject's labeled trials, finite and float64, plus the noisy-flag ground truth.

    The trials are rows over one or more blocks, contiguous float64 ``[n_i, E, T]`` arrays of one
    ``[E, T]``, numbered as if the blocks were stacked in order. A dataset built from one array has
    that array as its one block and every row of it in order, and ``trials`` is the array itself.
    :func:`augment_rest_class` adds a block and :func:`train_val_split` picks rows, so neither copies
    a trial; the ``trials`` of what they return is a copy, assembled on each access.
    """

    def __init__(self, subject_id: int, trials, labels, is_noisy: bool = False):
        self.subject_id = subject_id
        self.is_noisy = is_noisy
        self.blocks = (_checked_block(subject_id, trials),)
        self.rows = None  # indices into the stacked blocks, or None for all their rows in order
        self._views = None  # trial_views(), once built
        self.labels = np.asarray(labels, dtype=np.int64)
        n = self.blocks[0].shape[0]
        if self.labels.shape != (n,):
            raise ValidationError(f"subject {subject_id}: {n} trials but {self.labels.shape[0]} labels")
        if n < 1:
            raise ValidationError(f"subject {subject_id} has no trials")
        if self.labels.min() < 0:
            raise ValidationError(f"subject {subject_id}: negative label")

    @property
    def n_trials(self) -> int:
        return self.labels.shape[0]

    @property
    def trial_shape(self) -> tuple[int, int]:
        """[E, T] of every trial."""
        return self.blocks[0].shape[1:]

    @property
    def trials(self) -> np.ndarray:
        """All trials as one float64 ``[n, E, T]`` array: the one block itself, else a copy."""
        if self.rows is None and len(self.blocks) == 1:
            return self.blocks[0]
        return np.stack(self.trial_views())

    def trial_views(self) -> tuple[np.ndarray, ...]:
        """Each trial, in order, as an ``[E, T]`` view into its block. Built on the first call and kept,
        since a validation set is read this way every epoch."""
        if self._views is None:
            stacked = [trial for block in self.blocks for trial in block]
            self._views = tuple(stacked if self.rows is None else (stacked[r] for r in self.rows.tolist()))
        return self._views

    def select(self, positions: np.ndarray) -> SubjectDataset:
        """The trials at ``positions``, in that order, as rows over the same blocks."""
        rows = positions if self.rows is None else self.rows[positions]
        return self._over(self.blocks, rows, self.labels[positions])

    def with_block(self, trials, labels: np.ndarray) -> SubjectDataset:
        """These trials followed by every trial of the ``[n, E, T]`` array ``trials``, labeled ``labels``.

        The new block is checked as a constructed dataset's is; the existing blocks are shared.
        """
        block = _checked_block(self.subject_id, trials, self.trial_shape)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (block.shape[0],):
            raise ValidationError(f"subject {self.subject_id}: {block.shape[0]} added trials but "
                                  f"{labels.shape[0]} labels")
        n_stacked = sum(b.shape[0] for b in self.blocks)
        rows = None if self.rows is None else np.concatenate(
            [self.rows, np.arange(n_stacked, n_stacked + block.shape[0])])
        return self._over(self.blocks + (block,), rows, np.concatenate([self.labels, labels]))

    def _over(self, blocks: tuple[np.ndarray, ...], rows: np.ndarray | None, labels: np.ndarray) -> SubjectDataset:
        out = object.__new__(type(self))
        out.subject_id, out.is_noisy = self.subject_id, self.is_noisy
        out.blocks, out.rows, out.labels, out._views = blocks, rows, labels, None
        return out

    def __getstate__(self) -> dict:
        # views would unpickle as copies, not views of the unpickled blocks; they are rebuilt instead
        return {**self.__dict__, "_views": None}


def _checked_block(subject_id: int, trials, trial_shape: tuple[int, int] | None = None) -> np.ndarray:
    """``trials`` as a contiguous float64 ``[n, E, T]`` block, refused unless finite and, when given,
    of ``trial_shape`` [E, T]."""
    block = np.ascontiguousarray(trials, dtype=np.float64)
    if block.ndim != 3:
        raise ValidationError(f"trials must be [n, E, T], got shape {tuple(block.shape)}")
    if trial_shape is not None and block.shape[1:] != trial_shape:
        raise ValidationError(f"subject {subject_id}: added trials of shape [E, T] = {list(block.shape[1:])} "
                              f"but the subject's are {list(trial_shape)}")
    if not np.isfinite(block).all():
        raise NumericError(f"non-finite trial values in subject {subject_id}")
    return block


def _unit_rms(pattern: np.ndarray) -> np.ndarray:
    rms = np.sqrt(np.mean(pattern ** 2))
    return pattern / rms if rms > 0 else pattern


def _sinusoid_mixture(rng: np.random.Generator, freqs: np.ndarray, n_electrodes: int,
                      n_timesteps: int) -> np.ndarray:
    """Channel-mixed sum of sinusoids at the given cycles-per-window, unit RMS."""
    t = np.arange(n_timesteps) / n_timesteps
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(freqs))
    waves = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
    mixing = rng.normal(0.0, 1.0, size=(n_electrodes, len(freqs)))
    return _unit_rms(mixing @ waves)


def class_template(config: GeneratorConfig, class_index: int) -> np.ndarray:
    """Global [E, T] pattern for one imagery class; classes use disjoint frequency sets."""
    rng = np.random.default_rng(np.random.PCG64(derive_seed(config.seed, "template", class_index)))
    base = 4.0 + 3.0 * class_index
    freqs = base + np.arange(_TEMPLATE_COMPONENTS, dtype=np.float64)
    return _sinusoid_mixture(rng, freqs, config.n_electrodes, config.n_timesteps)


def subject_offset(config: GeneratorConfig, subject_id: int) -> np.ndarray:
    """Per-subject [E, T] drift pattern, scaled by subject_shift_scale."""
    rng = np.random.default_rng(np.random.PCG64(derive_seed(config.seed, "offset", subject_id)))
    freqs = rng.uniform(0.5, 2.0, size=_OFFSET_COMPONENTS)
    pattern = _sinusoid_mixture(rng, freqs, config.n_electrodes, config.n_timesteps)
    return config.subject_shift_scale * pattern


def generate_cohort(config: GeneratorConfig) -> list[SubjectDataset]:
    """Imagery-labeled datasets for all subjects (rest trials come from augmentation)."""
    shape = (config.n_imagery_classes, config.trials_per_class, config.n_electrodes, config.n_timesteps)
    templates = np.stack([class_template(config, c) for c in range(config.n_imagery_classes)])[:, None]
    labels = np.repeat(np.arange(config.n_imagery_classes, dtype=np.int64), config.trials_per_class)
    sigma = 1.0 / config.snr
    cohort = []
    for sid in range(config.n_subjects):
        offset = subject_offset(config, sid)
        noisy = sid in config.noisy_subject_ids
        rng = np.random.default_rng(np.random.PCG64(derive_seed(config.seed, "trials", sid)))
        # one draw for all trials, in trial order: the same values as one draw per trial
        trials = rng.normal(0.0, sigma, size=shape)
        trials += offset if noisy else templates + offset  # templates: [classes, 1, E, T]
        cohort.append(SubjectDataset(subject_id=sid, trials=trials.reshape(-1, *shape[2:]),
                                     labels=labels.copy(), is_noisy=noisy))
    return cohort


def _label_set(labels: np.ndarray) -> list[int]:
    """The distinct labels, ascending, as Python ints: ``np.unique``'s values without its first call's
    import of ``numpy.ma``, and with nothing allocated in proportion to the largest label."""
    return sorted(set(labels.tolist()))


def check_augmentable(ds: SubjectDataset, config: GeneratorConfig) -> None:
    """Refuse what :func:`augment_rest_class` cannot augment: trials whose [E, T] shape differs from
    the generator config's, and labels other than exactly its imagery classes, each present (so an
    augmented dataset, which holds the rest class too)."""
    expected = (config.n_electrodes, config.n_timesteps)
    if ds.trial_shape != expected:
        raise ValidationError(
            f"subject {ds.subject_id} has trials of shape [E, T] = {list(ds.trial_shape)} but "
            f"the generator config gives [n_electrodes, n_timesteps] = {list(expected)}"
        )
    rest_label = config.n_imagery_classes
    found = _label_set(ds.labels)
    if found != list(range(rest_label)):
        raise ValidationError(
            f"subject {ds.subject_id} has labels {found} but generator.n_imagery_classes = "
            f"{rest_label} needs exactly {list(range(rest_label))}, each present"
        )


def augment_rest_class(ds: SubjectDataset, config: GeneratorConfig) -> SubjectDataset:
    """Append one freshly drawn rest trial per existing trial, labeled n_imagery_classes.

    Doubles the trial count and adds one class. The rest trials are one new
    block beside the subject's own, which are shared, not copied. Refuses what
    :func:`check_augmentable` refuses.
    """
    check_augmentable(ds, config)
    rest_label = config.n_imagery_classes
    offset = subject_offset(config, ds.subject_id)
    sigma = 1.0 / config.snr
    rng = np.random.default_rng(np.random.PCG64(derive_seed(config.seed, "rest", ds.subject_id)))
    n = ds.n_trials
    rest = rng.normal(0.0, sigma, size=(n,) + offset.shape)
    rest += offset  # in place: the same sums as offset + noise, with no second block
    return ds.with_block(rest, np.full(n, rest_label, dtype=np.int64))


def loso_split(cohort: list[SubjectDataset], target_subject_id: int) -> tuple[list[SubjectDataset], SubjectDataset]:
    """All-but-target as source (order preserved) and the target as test."""
    if len(cohort) < 2:
        raise ValidationError("leave-one-subject-out requires at least 2 subjects")
    ids = [ds.subject_id for ds in cohort]
    if target_subject_id not in ids:
        raise ValidationError(f"subject {target_subject_id} not in cohort {ids}")
    source = [ds for ds in cohort if ds.subject_id != target_subject_id]
    test = cohort[ids.index(target_subject_id)]
    return source, test


def train_val_split(source: list[SubjectDataset], ratio: float, seed: int
                    ) -> tuple[list[SubjectDataset], list[SubjectDataset]]:
    """Per-subject, class-stratified trial split; both sides keep every subject and class.

    Each side is rows over its subject's blocks, in ascending order, so no trial is copied.
    """
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"split ratio must be in (0, 1), got {ratio}")
    if not source:
        raise ValidationError("train_val_split requires a nonempty source list")
    train, val = [], []
    for ds in source:
        rng = np.random.default_rng(np.random.PCG64(derive_seed(seed, "split", ds.subject_id)))
        train_idx, val_idx = [], []
        for cls in _label_set(ds.labels):
            idx = np.flatnonzero(ds.labels == cls)
            if idx.size < 2:
                raise ValidationError(
                    f"subject {ds.subject_id} class {cls} has {idx.size} trial(s); "
                    "need at least 2 to split"
                )
            perm = rng.permutation(idx)
            n_train = min(max(int(ratio * idx.size), 1), idx.size - 1)
            train_idx.extend(perm[:n_train])
            val_idx.extend(perm[n_train:])
        train.append(ds.select(np.sort(np.asarray(train_idx))))
        val.append(ds.select(np.sort(np.asarray(val_idx))))
    return train, val


# ---------------------------------------------------------------------------
# raw cohort files


def save_raw(cohort: list[SubjectDataset], path) -> None:
    """Write the cohort: magic, version, subject count, then CRC-tailed subject blocks."""
    if not cohort:
        raise ValidationError("refusing to write an empty cohort")
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<HI", RAW_VERSION, len(cohort)))
        for ds in cohort:
            n, e, t = ds.trials.shape
            if ds.labels.max(initial=0) > 0xFFFF:
                raise ValidationError(f"subject {ds.subject_id}: labels exceed u16 range")
            crc = 0  # the block's CRC, taken part by part as each is written, so the trials are never copied
            for part in (struct.pack("<IBIII", ds.subject_id, int(ds.is_noisy), n, e, t),
                         ds.labels.astype("<u2"), np.ascontiguousarray(ds.trials, dtype="<f8")):
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(struct.pack("<I", crc))


def load_raw(path, hasher=None) -> list[SubjectDataset]:
    """Read a cohort file; ``hasher`` (a ``hashlib`` object), when given, is fed the bytes parsed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if hasher is not None:
        hasher.update(blob)
    view = memoryview(blob)
    if len(view) < 10:
        raise DataFormatError(f"{path}: file truncated (no header)")
    if bytes(view[:4]) != RAW_MAGIC:
        raise DataFormatError(f"{path}: not a cohort file (bad magic)")
    version, n_subjects = struct.unpack_from("<HI", view, 4)
    if version != RAW_VERSION:
        raise DataFormatError(f"{path}: unsupported cohort version {version}")
    offset = 10
    cohort, seen = [], set()
    for _ in range(n_subjects):
        header_end = offset + struct.calcsize("<IBIII")
        if header_end > len(view):
            raise DataFormatError(f"{path}: file truncated in subject header")
        sid, noisy, n, e, t = struct.unpack_from("<IBIII", view, offset)
        if sid in seen:
            raise DataFormatError(f"{path}: subject {sid} appears twice")
        seen.add(sid)
        block_len = (header_end - offset) + 2 * n + 8 * n * e * t
        if offset + block_len + 4 > len(view):
            raise DataFormatError(f"{path}: file truncated in subject {sid} payload")
        (crc_stored,) = struct.unpack_from("<I", view, offset + block_len)
        if zlib.crc32(view[offset:offset + block_len]) & 0xFFFFFFFF != crc_stored:
            raise DataFormatError(f"{path}: checksum mismatch in subject {sid} block")
        cursor = header_end
        labels = np.frombuffer(view, dtype="<u2", count=n, offset=cursor).astype(np.int64)
        cursor += 2 * n
        data = np.frombuffer(view, dtype="<f8", count=n * e * t, offset=cursor)
        try:
            cohort.append(SubjectDataset(subject_id=sid, trials=data.reshape(n, e, t).copy(),
                                         labels=labels, is_noisy=bool(noisy)))
        except (ValidationError, NumericError) as exc:  # no trials, or a NaN or inf among them
            raise DataFormatError(f"{path}: bad subject {sid} block ({exc})") from None
        offset += block_len + 4
    if offset != len(view):
        raise DataFormatError(f"{path}: {len(view) - offset} trailing bytes after last subject")
    return cohort


def cohorts_equal(a: list[SubjectDataset], b: list[SubjectDataset]) -> bool:
    """Bitwise equality over the persisted fields."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.subject_id != y.subject_id or x.is_noisy != y.is_noisy
                or not np.array_equal(x.labels, y.labels)
                or not np.array_equal(x.trials, y.trials)):
            return False
    return True
