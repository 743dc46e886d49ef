"""Model and detector container files.

Layout: a UTF-8 text manifest, one directive per line, terminated by a
``payload`` line, then the raw tensor bytes.

    wavedetect-container 2
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
with the gates stacked in ``ifog`` order (see ``nn.LSTMParams``). Version 1
files, which held 16 per-gate tensors per LSTM, are still read: the per-gate
tensors are stacked and each bias pair is summed in float64, which is the
arithmetic the version-1 code did on every call, so a version-1 file scores
exactly as it did. Saving always writes version 2; a summed bias may not
be a float32 value, so a version-1 file written again as version 2 can score
differently in the last bits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .model import ModelConfig, WaveletAutoencoder, config_from_dict, config_to_dict

MAGIC = "wavedetect-container"
VERSION = 2


def _write_container(path, config: ModelConfig, named_arrays, meta: dict):
    lines = [f"{MAGIC} {VERSION}"]
    lines.append("config " + json.dumps(config_to_dict(config), sort_keys=True))
    for key, value in meta.items():
        lines.append(f"meta {key} {value}")
    payload = bytearray()
    for name, array in named_arrays:
        raw = np.ascontiguousarray(array, dtype="<f4").tobytes()
        shape = ",".join(str(d) for d in array.shape)
        lines.append(f"tensor {name} {shape} {len(payload)}")
        payload.extend(raw)
    lines.append("payload")
    Path(path).write_bytes("\n".join(lines).encode() + b"\n" + bytes(payload))


def _read_container(path):
    """(config, meta, tensors) of a container file. Anything malformed in
    it raises ``DataError`` naming the file."""
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
    if magic[1] not in ("1", str(VERSION)):
        raise DataError(f"{path}: unsupported format version {magic[1]!r}")

    config = None
    meta: dict = {}
    tensors: dict = {}
    for number, line in enumerate(lines[1:], start=2):
        kind, _, rest = line.partition(" ")
        try:
            if kind == "config":
                config = config_from_dict(json.loads(rest))
            elif kind == "meta":
                key, _, value = rest.partition(" ")
                meta[key] = value
            elif kind == "tensor":
                name, shape_s, offset_s = rest.rsplit(" ", 2)
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
    if magic[1] == "1":
        _fuse_v1_lstms(path, config, tensors)
    return config, meta, tensors


def _tensor(path, tensors: dict, name: str, shape: tuple) -> np.ndarray:
    if name not in tensors:
        raise DataError(f"{path}: container is missing tensor {name!r}")
    if tensors[name].shape != shape:
        raise DataError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    return tensors[name]


def _fuse_v1_lstms(path, config: ModelConfig, tensors: dict):
    """Add the version-2 ``w_x``, ``w_h`` and ``b`` of every LSTM to the
    tensors of a version-1 file, from its per-gate ``w_i?`` (H,in), ``w_h?``
    (H,H) and bias pairs ``b_i?``, ``b_h?`` (H)."""
    hid, nin = config.hidden, config.conv_features
    for scale in range(config.levels + 1):
        for prefix in (f"scale{scale}.enc.", f"scale{scale}.dec."):
            def stacked(kind, shape):
                return np.concatenate([_tensor(path, tensors, prefix + kind + gate, shape)
                                       for gate in "ifog"])

            tensors[prefix + "w_x"] = stacked("w_i", (hid, nin))
            tensors[prefix + "w_h"] = stacked("w_h", (hid, hid))
            tensors[prefix + "b"] = stacked("b_i", (hid,)) + stacked("b_h", (hid,))


def _fill_model(path, config: ModelConfig, tensors: dict) -> WaveletAutoencoder:
    return WaveletAutoencoder._from_arrays(config, lambda name, shape: _tensor(path, tensors, name, shape))


def save_model(model: WaveletAutoencoder, path):
    arrays = [(name, t.data) for name, t in model.named_parameters()]
    _write_container(path, model.config, arrays, {"kind": "model"})


def load_model(path) -> WaveletAutoencoder:
    config, meta, tensors = _read_container(path)
    if meta.get("kind", "model") != "model":
        raise DataError(f"{path}: container holds a {meta.get('kind')!r}, not a model")
    return _fill_model(path, config, tensors)


def save_detector(detector, path):
    meta = {
        "kind": "detector",
        "mode": detector.mode,
        "threshold": "none" if detector.threshold is None else repr(detector.threshold),
        "train_loss_mean": repr(detector.train_loss_mean),
    }
    arrays = [(name, t.data) for name, t in detector.model.named_parameters()]
    arrays.append(("norm.mean", detector.norm_mean))
    arrays.append(("norm.std", detector.norm_std))
    _write_container(path, detector.model.config, arrays, meta)


def load_detector(path):
    from .training import Detector

    config, meta, tensors = _read_container(path)
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
    if not (std > 0).all():
        raise DataError(f"{path}: tensor 'norm.std' holds a non-positive value")
    model = _fill_model(path, config, tensors)
    try:
        return Detector(model=model, mode=meta["mode"], threshold=threshold,
                        train_loss_mean=train_loss_mean, norm_mean=mean, norm_std=std)
    except ConfigError as err:
        raise DataError(f"{path}: {err}") from None
