"""Flat key=value configuration: files, presets, precedence and hashing.

Precedence, lowest to highest: built-in defaults < preset < config file <
command-line flags. Keys are kebab-case on disk and in flags ("k-exp",
"lambda"), snake_case internally ("k_exp", "lam"). Unknown keys are
rejected. The effective configuration (minus thread count and file paths)
is hashed into output headers so artifacts record how they were produced.
The defaults of the rNN and smoothing keys are the field defaults of
`RnnParams` and `SmoothParams`. Every key a command accepts reaches its
code. `threads`, read by rerank, smooth and sweep, is the number of worker
processes their queries run in; it never changes output bytes, so it stays
out of the hash.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .errors import ConfigError
from .neighbors import RnnParams
from .smoothing import SmoothParams
from .textfile import data_lines

# CPython's built-in SHA-256. `hashlib` imports OpenSSL's _hashlib on import,
# which maps libcrypto (about 3.4 MB resident) into every process for one
# digest; it is the fallback where neither built-in module exists
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# key -> coercion tag
_SCHEMA: dict[str, str] = {
    "embeddings": "path",
    "run": "path",
    "qrels": "path",
    "output": "path",
    "input": "path",
    "k": "int",
    "k_exp": "int",
    "tau": "float",
    "lam": "float",
    "weight_fn": "str",
    "n_context": "int",
    "top_k": "int",
    "rel_threshold": "int",
    "tag": "str",
    "b": "float",
    "n_max": "int",
    "f_n": "str",
    "inject_missing_gt": "bool",
    "mode": "str",
    "epsilon": "float",
    "cutoff": "int",
    "metric": "str",
    "sizes": "ints",
    "trials": "int",
    "dim": "int",
    "threads": "int",
    "seed": "int",
    "strict": "bool",
    "to": "str",
}

# the parameter dataclasses are the one home of their fields' defaults
_RNN_KEYS = tuple(f.name for f in fields(RnnParams))
_SMOOTH_KEYS = tuple(f.name for f in fields(SmoothParams) if f.name != "rnn")

DEFAULTS: dict[str, Any] = {
    **{f.name: f.default for f in fields(RnnParams) + fields(SmoothParams) if f.name != "rnn"},
    "n_context": 60,
    "rel_threshold": 1,
    "tag": "recipnn",
    "mode": "eb",
    "epsilon": 0.1,
    "cutoff": 10,
    "metric": "mrr@10",
    "trials": 10,
    "dim": 32,
    "threads": 1,
    "seed": 0,
    "strict": False,
}

COMMAND_KEYS: dict[str, frozenset[str]] = {
    "rerank": frozenset(("embeddings", "run", "qrels", "output", "n_context", "top_k",
                         "rel_threshold", "cutoff", "tag", "threads", "strict", *_RNN_KEYS)),
    "smooth": frozenset(("embeddings", "run", "qrels", "output", "n_context", "mode", "epsilon",
                         "rel_threshold", "threads", "strict", *_SMOOTH_KEYS, *_RNN_KEYS)),
    "eval": frozenset(("run", "qrels", "cutoff", "rel_threshold")),
    "sweep": frozenset(("embeddings", "run", "qrels", "output", "sizes", "metric",
                        "rel_threshold", "threads", *_RNN_KEYS)),
    "bench": frozenset(("sizes", "trials", "dim", "seed", "output", *_RNN_KEYS)),
    "convert": frozenset(("input", "output", "to")),
    "selftest": frozenset(("seed", "trials")),
}

REQUIRED_KEYS: dict[str, frozenset[str]] = {
    "rerank": frozenset(("embeddings", "run", "output")),
    "smooth": frozenset(("embeddings", "run", "qrels", "output")),
    "eval": frozenset(("run", "qrels")),
    "sweep": frozenset(("embeddings", "run", "qrels", "sizes", "output")),
    "bench": frozenset(),
    "convert": frozenset(("input", "output", "to")),
    "selftest": frozenset(),
}

_TASB = {"n_context": 60, "k": 21, "k_exp": 3, "tau": 0.0, "lam": 0.451}
_COCO = {"n_context": 53, "k": 21, "k_exp": 5, "tau": 0.128, "lam": 0.469}
_CODER_COCO = {"n_context": 63, "k": 19, "k_exp": 8, "tau": 0.5, "lam": 0.473}

PRESETS: dict[str, dict[str, Any]] = {
    "tasb-msmarco": dict(_TASB),
    "coder-tasb-msmarco": dict(_TASB),
    "cocondenser-msmarco": dict(_COCO),
    "coder-cocondenser-msmarco": dict(_CODER_COCO),
    "coder-tasb-smooth": {**_TASB, "b": 1.222, "n_max": 4, "f_n": "maxmin"},
    "coder-cocondenser-smooth": {**_CODER_COCO, "b": 1.525, "n_max": 32, "f_n": "stdbased"},
}

# keys that must not influence output bytes (the worker count) or that
# name machine-local files; excluded from the provenance hash and header echo
HASH_EXCLUDED = frozenset(("threads", "embeddings", "run", "qrels", "output", "input"))

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def key_type(key: str) -> str:
    """Coercion tag ('int', 'float', 'bool', 'ints', 'str', 'path') for a key."""
    return _SCHEMA[key]


def normalize_key(key: str) -> str:
    key = key.strip().replace("-", "_")
    return {"lambda": "lam"}.get(key, key)


def display_key(key: str) -> str:
    return {"lam": "lambda"}.get(key, key).replace("_", "-")


def coerce_value(key: str, raw: str) -> Any:
    """Turn a raw config-file string into the key's typed value."""
    tag = _SCHEMA[key]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[raw.lower()]
        if tag == "ints":
            return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for {display_key(key)}: {exc}") from None
    return raw


def parse_config_file(path) -> dict[str, Any]:
    """Read `key = value` lines; '#' starts a full-line comment."""
    values: dict[str, Any] = {}
    for lineno, stripped in data_lines(path, ConfigError, "config file "):
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
        key_raw, _, value = stripped.partition("=")
        key = normalize_key(key_raw)
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key_raw.strip()!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key_raw.strip()!r}")
        try:
            values[key] = coerce_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def effective_config(command: str, preset: str | None = None,
                     file_values: dict[str, Any] | None = None,
                     flag_values: dict[str, Any] | None = None) -> dict[str, Any]:
    """Merge defaults < preset < file < flags for one command; validate keys."""
    allowed = COMMAND_KEYS[command]
    cfg = {k: v for k, v in DEFAULTS.items() if k in allowed}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: "
                              + ", ".join(sorted(PRESETS)))
        cfg.update({k: v for k, v in PRESETS[preset].items() if k in allowed})
    for source, label in ((file_values, "config file"), (flag_values, "flag")):
        for key, value in (source or {}).items():
            if value is None:
                continue
            if key not in allowed:
                raise ConfigError(f"{label} key {display_key(key)!r} does not apply to {command!r}")
            cfg[key] = value
    missing = sorted(REQUIRED_KEYS[command] - set(cfg))
    if missing:
        raise ConfigError(f"{command} requires: " + ", ".join(display_key(k) for k in missing))
    return cfg


def config_hash(cfg: dict[str, Any]) -> str:
    """12-hex digest of the sorted parameter pairs, paths/threads excluded."""
    parts = [f"{display_key(k)}={_canonical(v)}"
             for k, v in sorted(cfg.items()) if k not in HASH_EXCLUDED]
    return sha256(";".join(parts).encode("utf-8")).hexdigest()[:12]


def _canonical(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def header_line(cfg: dict[str, Any], version: str) -> str:
    """Provenance line for output files: version, hash, effective parameters."""
    parts = [f"{display_key(k)}={_canonical(v)}"
             for k, v in sorted(cfg.items()) if k not in HASH_EXCLUDED]
    return f"recipnn {version} config={config_hash(cfg)} " + " ".join(parts)


def rnn_params_from(cfg: dict[str, Any]) -> RnnParams:
    return RnnParams(**{key: cfg[key] for key in _RNN_KEYS})


def smooth_params_from(cfg: dict[str, Any]) -> SmoothParams:
    return SmoothParams(rnn=rnn_params_from(cfg), **{key: cfg[key] for key in _SMOOTH_KEYS})
