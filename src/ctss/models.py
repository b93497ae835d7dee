"""The network: a scalable Mini-ResNet1D backbone, and its checkpoint file.

The ResNet1D follows a conv stem (k=7, stride 2) and up to four residual
stages. Stage widths double per stage starting from ``width_base``; each
stage holds two residual blocks of two k=3 convolutions, downsampling by 2
in its first block, and stages 3 and 4 end with a 4/4 max pool. The head is
ELU, adaptive average pool to length 1, and a fully-connected layer.

Parameters initialize uniformly in +-sqrt(1/fan_in), drawn in declaration
order from one seeded generator, so a config seed pins every weight.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import DataFormatError, ValidationError
from .tensor import Tape, Tensor

CHECKPOINT_MAGIC = b"CTSM"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    n_electrodes: int
    n_timesteps: int
    n_classes: int
    width_base: int = 32
    n_blocks: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("n_electrodes", "n_timesteps", "n_classes", "width_base"):
            if getattr(self, name) < 1:
                raise ValidationError(f"model.{name} must be positive, got {getattr(self, name)}")
        if not 1 <= self.n_blocks <= 4:
            raise ValidationError(f"model.n_blocks must be in 1..4, got {self.n_blocks}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"model.seed must be a 64-bit unsigned int, got {self.seed}")


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), check_finite=False)


class Conv1d:
    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int,
                 padding: int, rng: np.random.Generator):
        fan_in = in_channels * kernel
        self.weight = _uniform_init(rng, (out_channels, in_channels, kernel), fan_in)
        self.bias = _uniform_init(rng, (out_channels,), fan_in)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, self.stride, self.padding, tape=tape)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = _uniform_init(rng, (out_features, in_features), in_features)
        self.bias = _uniform_init(rng, (out_features,), in_features)

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        return T.linear(x, self.weight, self.bias, tape=tape)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class ResidualBlock:
    """conv(k=3, stride s) -> ELU -> conv(k=3) plus identity or 1x1 strided shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int, rng: np.random.Generator):
        self.conv1 = Conv1d(in_channels, out_channels, 3, stride, 1, rng)
        self.conv2 = Conv1d(out_channels, out_channels, 3, 1, 1, rng)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Conv1d | None = Conv1d(in_channels, out_channels, 1, stride, 0, rng)
        else:
            self.shortcut = None

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        h = self.conv1.forward(x, tape)
        h = T.elu(h, tape=tape)
        h = self.conv2.forward(h, tape)
        s = self.shortcut.forward(x, tape) if self.shortcut is not None else x
        return T.add(h, s, tape=tape)

    def parameters(self) -> list[Tensor]:
        params = self.conv1.parameters() + self.conv2.parameters()
        if self.shortcut is not None:
            params += self.shortcut.parameters()
        return params


class Model:
    """The backbone: a stem conv, residual stages and a linear head.

    Each stage is two residual blocks and a flag for the 4/4 max pool that
    ends it. All parameters live in one contiguous float64 vector, ``flat``:
    each parameter's ``data`` is a view of it, in :meth:`parameters` order. An
    optimizer steps the whole network in one pass over the vector, and a
    copy of the vector snapshots it.
    """

    def __init__(self, stem: Conv1d, stages: list[tuple[ResidualBlock, ResidualBlock, bool]], head: Linear,
                 arch: dict):
        self.stem = stem
        self.stages = stages
        self.head = head
        self.arch = arch  # builder name + kwargs, echoed into checkpoints
        self.flat = np.concatenate([p.data for p in self.parameters()], axis=None)
        self._view_flat()

    def _view_flat(self) -> None:
        params = self.parameters()
        for p, view in zip(params, T.split_views(self.flat, [p.shape for p in params])):
            p.data = view

    def __setstate__(self, state: dict) -> None:
        # a copy or an unpickled model gets each parameter as its own array: view flat again
        self.__dict__.update(state)
        self._view_flat()

    def forward(self, x: Tensor, tape: Tape | None = None) -> Tensor:
        """Logits [B, n_classes] for a batch of trials [B, E, T]."""
        h = T.elu(self.stem.forward(x, tape), tape=tape)
        for first, second, pool in self.stages:
            h = second.forward(first.forward(h, tape), tape)
            if pool:
                h = T.maxpool1d(h, 4, 4, tape=tape)
        h = T.adaptive_avg_pool1d(T.elu(h, tape=tape), 1, tape=tape)
        h = T.reshape(h, (h.shape[0], h.shape[1]), tape=tape)
        return self.head.forward(h, tape)

    def parameters(self) -> list[Tensor]:
        params = self.stem.parameters()
        for first, second, _ in self.stages:
            params += first.parameters() + second.parameters()
        return params + self.head.parameters()

    def clone(self) -> "Model":
        return copy.deepcopy(self)


def build_mini_resnet1d(config: ModelConfig) -> Model:
    """Assemble the residual 1-D conv backbone for inputs of shape [E, T].

    Raises a build error naming the first stage whose sequence length would
    collapse below one sample.
    """
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    length = config.n_timesteps

    def shrink(stage: str, new_length: int) -> int:
        if new_length < 1:
            raise ValidationError(
                f"model too deep for n_timesteps={config.n_timesteps}: "
                f"{stage} would produce length {new_length}"
            )
        return new_length

    stem = Conv1d(config.n_electrodes, config.width_base, 7, 2, 3, rng)
    length = shrink("stem conv", T.conv_output_length(length, 7, 2, 3))

    stages = []
    channels = config.width_base
    for stage in range(config.n_blocks):
        width = config.width_base * (2 ** stage)
        name = f"stage {stage + 1}"
        length = shrink(name, T.conv_output_length(length, 3, 2, 1))
        first = ResidualBlock(channels, width, 2, rng)
        second = ResidualBlock(width, width, 1, rng)
        channels = width
        pool = stage >= 2
        if pool:
            if length < 4:
                raise ValidationError(
                    f"model too deep for n_timesteps={config.n_timesteps}: "
                    f"{name} max pool needs length >= 4, got {length}"
                )
            length = shrink(f"{name} max pool", (length - 4) // 4 + 1)
        stages.append((first, second, pool))

    head = Linear(channels, config.n_classes, rng)
    return Model(stem, stages, head, {"builder": "mini_resnet1d", "kwargs": asdict(config)})


def per_sample_losses(model: Model, batch: Tensor, labels) -> np.ndarray:
    """Unreduced cross-entropy per sample, computed without gradient tracking."""
    if batch.shape[0] == 0:
        raise ValidationError("per_sample_losses requires a nonempty batch")
    logits = model.forward(batch, tape=None)
    losses, _ = T.softmax_cross_entropy(logits, labels)
    return losses.data


def save_checkpoint(model: Model, path) -> None:
    """Versioned binary: magic, version, builder JSON, params in declaration order."""
    arch_blob = json.dumps(model.arch, sort_keys=True).encode("utf-8")
    params = model.parameters()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(arch_blob)))
        fh.write(arch_blob)
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            fh.write(struct.pack("<B", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    if len(view) < 10 or bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: not a model checkpoint (bad magic)")
    version, arch_len = struct.unpack_from("<HI", view, 4)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 10
    try:
        arch = json.loads(bytes(view[offset:offset + arch_len]).decode("utf-8"))
        offset += arch_len
        if not isinstance(arch, dict) or arch.get("builder") != "mini_resnet1d":
            raise DataFormatError(f"{path}: not a mini_resnet1d checkpoint")
        model = build_mini_resnet1d(ModelConfig(**arch["kwargs"]))
        (n_params,) = struct.unpack_from("<I", view, offset)
        offset += 4
        params = model.parameters()
        if n_params != len(params):
            raise DataFormatError(f"{path}: checkpoint has {n_params} tensors, model needs {len(params)}")
        for p in params:
            (ndim,) = struct.unpack_from("<B", view, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", view, offset)
            offset += 4 * ndim
            if shape != p.shape:
                raise DataFormatError(f"{path}: tensor shape {shape} does not match model shape {p.shape}")
            count = int(np.prod(shape)) if ndim else 1
            p.data[...] = np.frombuffer(view, dtype="<f8", count=count, offset=offset).reshape(shape)
            offset += 8 * count
    except (struct.error, ValueError, KeyError, IndexError, TypeError, ValidationError) as exc:
        # TypeError and ValidationError come from model kwargs ModelConfig rejects
        raise DataFormatError(f"{path}: truncated or malformed checkpoint ({exc})") from None
    if offset != len(view):
        raise DataFormatError(f"{path}: {len(view) - offset} trailing bytes after parameters")
    return model
