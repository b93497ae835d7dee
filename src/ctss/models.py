"""The network: a scalable Mini-ResNet1D backbone, and its checkpoint file.

The ResNet1D follows a conv stem (k=7, stride 2) and up to four residual
stages. Stage widths double per stage starting from ``width_base``; each
stage holds two residual blocks of two k=3 convolutions, downsampling by 2
in its first block, and stages 3 and 4 end with a 4/4 max pool. The head is
ELU, adaptive average pool to length 1, and a fully-connected layer.

The builder is the one description of the network. It takes each parameter, in
declaration order, from a ``draw``: training's is uniform in +-sqrt(1/fan_in)
from one seeded generator, and a checkpoint's is the file's next tensor.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from collections.abc import Callable
from dataclasses import asdict

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DataFormatError, ValidationError
from .tensor import Tape, Tensor

CHECKPOINT_MAGIC = b"CTSM"
CHECKPOINT_VERSION = 1


Draw = Callable[[tuple[int, ...], int], np.ndarray]  # (shape, fan_in) -> one parameter's values


class Conv1d:
    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int,
                 padding: int, draw: Draw):
        fan_in = in_channels * kernel
        self.weight = Tensor(draw((out_channels, in_channels, kernel), fan_in))
        self.bias = Tensor(draw((out_channels,), fan_in))
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor, tape: Tape | None, windows: np.ndarray | None = None) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, self.stride, self.padding, tape=tape, windows=windows)

    def windows(self, x: Tensor) -> np.ndarray:
        """This layer's conv1d windows of ``x``, for :meth:`forward` of any layer of the same geometry."""
        return T.conv_windows(x, self.weight.shape[2], self.stride, self.padding)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class Linear:
    def __init__(self, in_features: int, out_features: int, draw: Draw):
        self.weight = Tensor(draw((out_features, in_features), in_features))
        self.bias = Tensor(draw((out_features,), in_features))

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        return T.linear(x, self.weight, self.bias, tape=tape)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class ResidualBlock:
    """conv(k=3, stride s) -> ELU -> conv(k=3) plus identity or 1x1 strided shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int, draw: Draw):
        self.conv1 = Conv1d(in_channels, out_channels, 3, stride, 1, draw)
        self.conv2 = Conv1d(out_channels, out_channels, 3, 1, 1, draw)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Conv1d | None = Conv1d(in_channels, out_channels, 1, stride, 0, draw)
        else:
            self.shortcut = None

    def forward(self, x: Tensor, tape: Tape | None) -> Tensor:
        h = self.conv1.forward(x, tape)
        h = T.elu(h, tape=tape)
        h = self.conv2.forward(h, tape)
        # the shortcut builds its own windows: a taped view of conv1's would keep all of conv1's alive
        s = x if self.shortcut is None else self.shortcut.forward(x, tape)
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
        offset = 0
        for p in self.parameters():
            p.data = self.flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def __setstate__(self, state: dict) -> None:
        # a copy or an unpickled model gets each parameter as its own array: view flat again
        self.__dict__.update(state)
        self._view_flat()

    def forward(self, x: Tensor, tape: Tape | None = None, stem_windows: np.ndarray | None = None) -> Tensor:
        """Logits [B, n_classes] for a batch of trials [B, E, T].

        ``stem_windows`` is ``stem.windows(x)``, when the caller built it once
        for several networks of this architecture.
        """
        h = T.elu(self.stem.forward(x, tape, stem_windows), tape=tape)
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


def build_mini_resnet1d(config: ModelConfig, draw: Draw | None = None) -> Model:
    """Assemble the residual 1-D conv backbone for inputs of shape [E, T], its parameters from ``draw``.

    Raises a build error naming the first stage whose sequence length would collapse below one sample.
    """
    if draw is None:
        rng = np.random.default_rng(np.random.PCG64(config.seed))

        def draw(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
            bound = float(np.sqrt(1.0 / fan_in))
            return rng.uniform(-bound, bound, size=shape)

    length = config.n_timesteps

    def shrink(stage: str, new_length: int) -> int:
        if new_length < 1:
            raise ValidationError(f"model too deep for n_timesteps={config.n_timesteps}: "
                                  f"{stage} would produce length {new_length}")
        return new_length

    stem = Conv1d(config.n_electrodes, config.width_base, 7, 2, 3, draw)
    length = shrink("stem conv", T.conv_output_length(length, 7, 2, 3))

    stages = []
    channels = config.width_base
    for stage in range(config.n_blocks):
        width = config.width_base * (2 ** stage)
        name = f"stage {stage + 1}"
        length = shrink(name, T.conv_output_length(length, 3, 2, 1))
        first = ResidualBlock(channels, width, 2, draw)
        second = ResidualBlock(width, width, 1, draw)
        channels = width
        pool = stage >= 2
        if pool:
            length = shrink(f"{name} max pool", T.conv_output_length(length, 4, 4, 0))
        stages.append((first, second, pool))

    head = Linear(channels, config.n_classes, draw)
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
    """The model :func:`save_checkpoint` wrote: the builder run on the file's architecture and tensors."""
    with open(path, "rb") as fh:
        view = memoryview(fh.read())
    if len(view) < 10 or bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: not a model checkpoint (bad magic)")
    version, arch_len = struct.unpack_from("<HI", view, 4)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    offset, n_drawn = 10, 0

    def stored(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        """The file's next tensor, refused unless it has ``shape`` and all of its bytes are in the file."""
        nonlocal offset, n_drawn
        (ndim,) = struct.unpack_from("<B", view, offset)
        found = struct.unpack_from(f"<{ndim}I", view, offset + 1)
        offset += 1 + 4 * ndim
        if found != shape:
            raise DataFormatError(f"{path}: tensor shape {found} does not match model shape {shape}")
        count = math.prod(shape)  # exact, so a huge shape cannot wrap round to a small byte count
        if 8 * count > len(view) - offset:
            raise DataFormatError(f"{path}: truncated checkpoint: tensor {n_drawn} needs {8 * count} bytes")
        values = np.frombuffer(view, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}: tensor {n_drawn} {shape} holds non-finite values")
        offset += 8 * count
        n_drawn += 1
        return values

    try:
        arch = json.loads(bytes(view[offset:offset + arch_len]).decode("utf-8"))
        offset += arch_len
        if not isinstance(arch, dict) or arch.get("builder") != "mini_resnet1d":
            raise DataFormatError(f"{path}: not a mini_resnet1d checkpoint")
        (n_params,) = struct.unpack_from("<I", view, offset)
        offset += 4
        model = build_mini_resnet1d(ModelConfig(**arch["kwargs"]), stored)
    except (struct.error, ValueError, KeyError, IndexError, TypeError, ValidationError) as exc:
        # TypeError and ValidationError come from model kwargs ModelConfig or the builder rejects
        raise DataFormatError(f"{path}: truncated or malformed checkpoint ({exc})") from None
    if n_params != n_drawn:
        raise DataFormatError(f"{path}: checkpoint has {n_params} tensors, model needs {n_drawn}")
    if offset != len(view):
        raise DataFormatError(f"{path}: {len(view) - offset} trailing bytes after parameters")
    return model
