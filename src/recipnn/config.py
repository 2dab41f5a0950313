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
out of the hash. `k`, `k-exp`, `tau` and `lambda` take comma lists: `sweep`
scores every combination (`rnn_grid`), and every other command refuses more
than one value (`rnn_params_from`). A list of one value hashes as the value.
A list with an empty item or a repeated value is refused where it is parsed.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import product
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

_GRID = "; only sweep takes several, comma-separated"
# key -> (coercion tag, help text)
_SCHEMA: dict[str, tuple[str, str]] = {
    "embeddings": ("path", "embedding store, binary or tsv"),
    "run": ("path", "TREC run file of retrieved candidates"),
    "qrels": ("path", "TREC qrels file of relevance judgments"),
    "output": ("path", "file to write: a run, JSONL soft labels, CSV or embeddings, by command"),
    "input": ("path", "embedding store to transcode"),
    "k": ("ints", "neighbourhood size of the reciprocal sets" + _GRID),
    "k_exp": ("ints", "local-expansion width over the nearest neighbours, 1 = off" + _GRID),
    "tau": ("floats", "trust factor in [0, 1] of the second-order set extension, 0 = off" + _GRID),
    "lam": ("floats", "mixing weight in [0, 1] of geometric against Jaccard similarity, "
                      "1 = pure geometric" + _GRID),
    "weight_fn": ("str", "connectivity weights: neg_identity, exp_neg or binary"),
    "n_context": ("int", "candidates per query considered jointly (the context size)"),
    "top_k": ("int", "entries written per reranked query, at most the context size (default: all)"),
    "rel_threshold": ("int", "lowest qrels grade that counts as relevant"),
    "tag": ("str", "run tag written in the last column"),
    "b": ("float", "ground-truth boost factor, finite and at least 1"),
    "n_max": ("int", "candidates, by similarity to the ground truth, that keep target mass"),
    "f_n": ("str", "score normalization: maxmin or stdbased"),
    "inject_missing_gt": ("bool", "add judged documents the run did not retrieve to the context"),
    "mode": ("str", "smoothing: eb (evidence-based), uniform or uniform-matched"),
    "epsilon": ("float", "mass uniform smoothing moves off the ground truth"),
    "cutoff": ("int", "rank cutoff of the metrics printed"),
    "metric": ("str", "metric reported, name@k (mrr, ndcg, recall or map), e.g. mrr@10"),
    "sizes": ("ints", "context sizes, comma-separated"),
    "trials": ("int", "contexts timed per size (bench) or checked (selftest)"),
    "dim": ("int", "dimension of the synthetic vectors"),
    "threads": ("int", "worker processes for the queries, capped at the available CPUs; "
                       "output bytes do not depend on it"),
    "seed": ("int", "seed of the synthetic contexts"),
    "strict": ("bool", "stop at the first query whose context cannot be built, instead of passing it "
                       "through (rerank) or skipping it (smooth)"),
    "to": ("str", "target format: binary or tsv"),
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
HASH_EXCLUDED = frozenset(key for key, (tag, _) in _SCHEMA.items() if tag == "path") | {"threads"}
# the rNN keys a sweep takes several values of, in the order of its CSV columns
GRID_KEYS = ("k", "k_exp", "tau", "lam")

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def key_type(key: str) -> str:
    """Coercion tag ('int', 'float', 'bool', 'ints', 'floats', 'str', 'path') for a key."""
    return _SCHEMA[key][0]


def key_help(key: str) -> str:
    return _SCHEMA[key][1]


def normalize_key(key: str) -> str:
    key = key.strip().replace("-", "_")
    return {"lambda": "lam"}.get(key, key)


def display_key(key: str) -> str:
    return {"lam": "lambda"}.get(key, key).replace("_", "-")


def coerce_value(key: str, raw: str) -> Any:
    """Turn a raw config-file string into the key's typed value."""
    tag = key_type(key)
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
        if tag in ("ints", "floats"):
            items = raw.split(",")
            if not all(item.strip() for item in items):
                raise ValueError(f"empty item in {raw!r}")
            values = [(int if tag == "ints" else float)(item) for item in items]
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{raw!r} repeats {value!r}")
            return values
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
    return sha256(";".join(_pairs(cfg)).encode("utf-8")).hexdigest()[:12]


def _pairs(cfg: dict[str, Any]) -> list[str]:
    """The parameters as sorted display_key=value strings, paths/threads excluded."""
    return [f"{display_key(k)}={_canonical(v)}" for k, v in sorted(cfg.items()) if k not in HASH_EXCLUDED]


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
    return f"recipnn {version} config={config_hash(cfg)} " + " ".join(_pairs(cfg))


def grid_values(cfg: dict[str, Any], key: str) -> list:
    """The values a grid key holds: a list from flags and files, one value from defaults and presets."""
    return cfg[key] if isinstance(cfg[key], list) else [cfg[key]]


def rnn_grid(cfg: dict[str, Any]) -> list[RnnParams]:
    """One RnnParams per combination of the grid keys' values, lambda varying fastest."""
    combos = product(*(grid_values(cfg, key) for key in GRID_KEYS))
    return [RnnParams(**dict(zip(GRID_KEYS, combo)), weight_fn=cfg["weight_fn"]) for combo in combos]


def rnn_params_from(cfg: dict[str, Any]) -> RnnParams:
    """The one setting of a command that scores at one; ConfigError for a grid."""
    several = [display_key(key) for key in GRID_KEYS if len(grid_values(cfg, key)) > 1]
    if several:
        raise ConfigError(f"only sweep takes several values, got several for {', '.join(several)}")
    return rnn_grid(cfg)[0]


def smooth_params_from(cfg: dict[str, Any]) -> SmoothParams:
    return SmoothParams(rnn=rnn_params_from(cfg), **{key: cfg[key] for key in _SMOOTH_KEYS})
