"""Detector container files: a trained model with its detector settings.

Layout: a UTF-8 text manifest, one directive per line, terminated by a
``payload`` line, then the raw tensor bytes.

    wavedetect-container 3
    config {...model config as JSON...}
    meta kind detector
    meta mode semi
    meta threshold 0.0123
    tensor scale0.conv0.kernel 32,8,8 0
    ...
    tensor scale0.enc.w_x 128,64 41344
    tensor scale0.enc.w_h 128,32 74112
    tensor scale0.enc.b 128 90496
    ...
    payload
    <little-endian float32 payloads, in manifest order>

Offsets are relative to the start of the payload. Weights are stored as
float32; loading widens back to float64. Because float32 -> float64 ->
float32 is lossless, a save/load/save cycle is byte-identical.

Each LSTM is three tensors, ``w_x`` (4H,in), ``w_h`` (4H,H) and ``b`` (4H),
with the gates stacked in ``ifog`` order (see ``nn.LSTMParams``). The
config's ``classifier`` flag decides the detector's kind: ``meta mode``
must agree with it, and ``meta threshold`` is ``none`` just for a head.
The config line, each meta key and each tensor appear once, and every
tensor is one the detector reads; a loader refuses anything else.

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


def _tensor(path, tensors: dict, name: str, shape: tuple) -> np.ndarray:
    if name not in tensors:
        raise DataError(f"{path}: container is missing tensor {name!r}")
    if tensors[name].shape != shape:
        raise DataError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    return tensors[name]


def save_detector(detector, path):
    require_instances(ConfigError, ("detector", detector, Detector))
    lines = [
        f"{MAGIC} {VERSION}",
        "config " + json.dumps(config_to_dict(detector.model.config), sort_keys=True),
        "meta kind detector",
        f"meta mode {detector.mode}",
        "meta threshold " + ("none" if detector.threshold is None else repr(detector.threshold)),
        f"meta train_loss_mean {detector.train_loss_mean!r}",
    ]
    arrays = [(name, t.data) for name, t in detector.model.named_parameters()]
    arrays += [("norm.mean", detector.norm_mean), ("norm.std", detector.norm_std)]
    payload = bytearray()
    for name, array in arrays:
        shape = ",".join(str(d) for d in array.shape)
        lines.append(f"tensor {name} {shape} {len(payload)}")
        payload.extend(np.ascontiguousarray(array, dtype="<f4").tobytes())
    lines.append("payload")
    Path(path).write_bytes("\n".join(lines).encode() + b"\n" + bytes(payload))


def load_detector(path):
    """The detector a container file holds. Anything malformed in the file,
    such as a ``meta mode`` that disagrees with its config, a version other
    than 3, a repeated ``config`` line, ``meta`` key or tensor name, or a
    tensor the model does not read, raises ``DataError`` naming the file."""
    blob = Path(path).read_bytes()
    marker = b"\npayload\n"
    cut = blob.find(marker)
    if cut < 0:
        raise DataError(f"{path}: not a container file (missing payload marker)")
    try:
        header = blob[:cut].decode()
    except UnicodeDecodeError:
        raise DataError(f"{path}: container header is not UTF-8 text") from None
    payload = blob[cut + len(marker):]

    lines = header.splitlines() or [""]
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != MAGIC:
        raise DataError(f"{path}: bad magic line {lines[0]!r}")
    if magic[1] != str(VERSION):
        raise DataError(f"{path}: a version {magic[1]} container cannot be read, only version {VERSION}; "
                        "retrain the detector")

    config = None
    meta: dict = {}
    tensors: dict = {}
    tensor_lines: dict = {}
    for number, line in enumerate(lines[1:], start=2):
        kind, _, rest = line.partition(" ")
        try:
            if kind == "config":
                if config is not None:
                    raise DataError(f"{path}: line {number}: a second config line")
                config = config_from_dict(json.loads(rest))
            elif kind == "meta":
                key, _, value = rest.partition(" ")
                if key in meta:
                    raise DataError(f"{path}: line {number}: meta {key!r} given again")
                meta[key] = value
            elif kind == "tensor":
                name, shape_s, offset_s = rest.rsplit(" ", 2)
                if name in tensor_lines:
                    raise DataError(f"{path}: line {number}: tensor {name!r} repeats line {tensor_lines[name]}")
                tensor_lines[name] = number
                shape = tuple(int(d) for d in shape_s.split(","))
                offset = int(offset_s)
                if offset < 0 or min(shape) < 0:
                    raise ValueError("negative offset or dimension")
                count = math.prod(shape)
                raw = payload[offset : offset + 4 * count]
                if len(raw) != 4 * count:
                    raise DataError(f"{path}: payload truncated for tensor {name!r}")
                values = np.frombuffer(raw, dtype="<f4")
                # Checked before widening: casting a signaling NaN warns.
                if not np.isfinite(values).all():
                    raise DataError(f"{path}: tensor {name!r} holds a non-finite value")
                tensors[name] = values.astype(np.float64).reshape(shape)
            else:
                raise DataError(f"{path}: unknown directive {kind!r}")
        except (ValueError, TypeError, ConfigError) as err:
            raise DataError(f"{path}: line {number}: bad {kind} directive ({err})") from None
    if config is None:
        raise DataError(f"{path}: container has no config")

    if meta.get("kind") != "detector":
        raise DataError(f"{path}: container holds a {meta.get('kind')!r}, not a detector")
    for key in ("mode", "threshold", "train_loss_mean"):
        if key not in meta:
            raise DataError(f"{path}: detector container is missing meta field {key!r}")
    try:
        threshold = None if meta["threshold"] == "none" else float(meta["threshold"])
        train_loss_mean = float(meta["train_loss_mean"])
    except ValueError as err:
        raise DataError(f"{path}: bad number in detector meta ({err})") from None
    mean, std = (_tensor(path, tensors, name, (config.channels,)) for name in ("norm.mean", "norm.std"))
    model = WaveletAutoencoder._from_arrays(config, lambda name, shape: _tensor(path, tensors, name, shape))
    unread = tensors.keys() - {name for name, _ in model.named_parameters()} - {"norm.mean", "norm.std"}
    if unread:
        name = min(unread, key=tensor_lines.get)
        raise DataError(f"{path}: line {tensor_lines[name]}: the model reads no tensor {name!r}")
    try:
        detector = Detector(model=model, threshold=threshold, train_loss_mean=train_loss_mean,
                            norm_mean=mean, norm_std=std)
    except ConfigError as err:
        raise DataError(f"{path}: {err}") from None
    if meta["mode"] != detector.mode:
        raise DataError(f"{path}: meta mode {meta['mode']!r} disagrees with the config's classifier flag")
    return detector
