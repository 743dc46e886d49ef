"""Detector container files: a trained model with its detector settings.

There is one layout, and ``_layout`` alone decides it: a UTF-8 text
manifest, one line each, ending with a ``payload`` line, then the raw
tensor bytes.

    wavedetect-container 3
    config {...model config as JSON, keys sorted...}
    meta kind detector
    meta mode semi
    meta threshold 0.0123
    meta train_loss_mean 0.0098
    tensor scale0.conv0.kernel 32,8,8 0
    ...
    tensor scale0.enc.w_x 128,64 41344
    tensor scale0.enc.w_h 128,32 74112
    tensor scale0.enc.b 128 90496
    ...
    tensor norm.mean 8 ...
    tensor norm.std 8 ...
    payload
    <little-endian float32 payloads, in manifest order, back to back>

Offsets are relative to the start of the payload, and numbers are written
as ``repr``. Weights are stored as float32; loading widens back to float64.
Because float32 -> float64 -> float32 is lossless, a save/load/save cycle
is byte-identical.

Each LSTM is three tensors, ``w_x`` (4H,in), ``w_h`` (4H,H) and ``b`` (4H),
with the gates stacked in ``ifog`` order (see ``nn.LSTMParams``). The
config's ``classifier`` flag decides the detector's kind, so ``meta mode``
restates it, and ``meta threshold`` is ``none`` just for a head.

A loader accepts only that layout: it builds the detector from the config,
the two meta numbers and the payload read in order, then refuses the file
unless its manifest is, line for line, the one ``save_detector`` would
write for that detector, and the payload ends with the last tensor.

Version 3 is the only version written or read. A file of any other version
raises ``DataError``: such a detector must be retrained.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, require_instances
from .model import WaveletAutoencoder, config_from_dict, config_to_dict
from .training import Detector

MAGIC = "wavedetect-container"
VERSION = 3


def _layout(detector):
    """The manifest lines ``save_detector`` writes for ``detector``, ending
    with ``payload``, and the arrays it stores, in file order."""
    arrays = [(name, t.data) for name, t in detector.model.named_parameters()]
    arrays += [("norm.mean", detector.norm_mean), ("norm.std", detector.norm_std)]
    lines = [
        f"{MAGIC} {VERSION}",
        "config " + json.dumps(config_to_dict(detector.model.config), sort_keys=True),
        "meta kind detector",
        f"meta mode {detector.mode}",
        "meta threshold " + ("none" if detector.threshold is None else repr(detector.threshold)),
        f"meta train_loss_mean {detector.train_loss_mean!r}",
    ]
    offset = 0
    for name, array in arrays:
        lines.append(f"tensor {name} {','.join(map(str, array.shape))} {offset}")
        offset += 4 * array.size
    return lines + ["payload"], [array for _, array in arrays]


def save_detector(detector, path):
    require_instances(ConfigError, ("detector", detector, Detector))
    lines, arrays = _layout(detector)
    payload = b"".join(np.ascontiguousarray(array, dtype="<f4").tobytes() for array in arrays)
    Path(path).write_bytes("\n".join(lines).encode() + b"\n" + payload)


def load_detector(path):
    """The detector a container file holds. A file that is not exactly what
    ``save_detector`` writes for the detector it describes, such as a
    version other than 3, a line out of place, a number not written as
    ``repr`` or bytes after the last tensor, raises ``DataError`` naming the
    file, and the first line that differs where there is one."""
    blob = Path(path).read_bytes()
    head, marker, payload = blob.partition(b"\npayload\n")
    if not marker:
        raise DataError(f"{path}: not a container file (missing payload marker)")
    try:
        lines = head.decode().split("\n") + ["payload"]
    except UnicodeDecodeError:
        raise DataError(f"{path}: container header is not UTF-8 text") from None

    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != MAGIC:
        raise DataError(f"{path}: bad magic line {lines[0]!r}")
    if magic[1] != str(VERSION):
        raise DataError(f"{path}: a version {magic[1]} container cannot be read, only version {VERSION}; "
                        "retrain the detector")
    try:
        config = config_from_dict(json.loads(lines[1].removeprefix("config ")))
    except (ValueError, TypeError, ConfigError) as err:
        raise DataError(f"{path}: line 2: bad config ({err})") from None
    # Read in reverse, so that of two lines with one key the first is read
    # and the second is the line the comparison below refuses.
    meta = dict(line[5:].partition(" ")[::2] for line in reversed(lines) if line.startswith("meta "))
    try:
        threshold = None if meta["threshold"] == "none" else float(meta["threshold"])
        train_loss_mean = float(meta["train_loss_mean"])
    except (KeyError, ValueError) as err:
        raise DataError(f"{path}: missing or bad detector meta ({err})") from None

    read = 0

    def tensor(name, shape):
        nonlocal read
        size = 4 * math.prod(shape)
        if read + size > len(payload):
            raise DataError(f"{path}: payload truncated for tensor {name!r}")
        values = np.frombuffer(payload, "<f4", size // 4, read)
        read += size
        # Checked before widening: casting a signaling NaN warns.
        if not np.isfinite(values).all():
            raise DataError(f"{path}: tensor {name!r} holds a non-finite value")
        return values.astype(np.float64).reshape(shape)

    model = WaveletAutoencoder._from_arrays(config, tensor)
    mean, std = (tensor(name, (config.channels,)) for name in ("norm.mean", "norm.std"))
    try:
        detector = Detector(model=model, threshold=threshold, train_loss_mean=train_loss_mean,
                            norm_mean=mean, norm_std=std)
    except ConfigError as err:
        raise DataError(f"{path}: {err}") from None

    # Both lists end with their only ``payload`` line, so lists of unequal
    # length differ before the shorter one ends.
    expected, _ = _layout(detector)
    for number, (want, got) in enumerate(zip(expected, lines), start=1):
        if want != got:
            raise DataError(f"{path}: line {number}: expected {want!r}, got {got!r}")
    if read != len(payload):
        raise DataError(f"{path}: {len(payload) - read} bytes after the last tensor")
    return detector
