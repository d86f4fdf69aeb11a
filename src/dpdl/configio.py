"""Line-based ``key = value`` config files.

Both the synthetic-data generator and the trainer read the same trivial
format: one assignment per line, ``#`` starts a comment, blank lines are
ignored.  Values are coerced by the type annotation of the target dataclass
field, so configs stay declarative and typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from pathlib import Path

from .errors import ValidationError


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a string mapping.

    Raises ValidationError on malformed lines or duplicate keys.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"{origin}:{lineno}: empty key")
        if key in out:
            raise ValidationError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_kv_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config is not UTF-8 text (byte {exc.start})") from None
    return parse_kv_text(text, origin=str(path))


def coerce_fields(cls, raw: dict[str, str], aliases: dict[str, str] | None = None) -> dict:
    """Turn a string mapping into constructor kwargs for dataclass ``cls``.

    ``aliases`` maps config-file keys to dataclass field names (used for
    keys that are not valid Python identifiers).  Unknown keys raise
    ValidationError and name the accepted keys, and so do two keys that
    set one field.
    """
    aliases = aliases or {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    accepted = sorted(set(fields) | set(aliases))
    kwargs: dict = {}
    keys: dict = {}
    for key, text in raw.items():
        name = aliases.get(key, key)
        if name not in fields:
            raise ValidationError(f"unknown config key {key!r}; accepted keys: {', '.join(accepted)}")
        if name in keys:
            raise ValidationError(f"config keys {keys[name]!r} and {key!r} both set {name}")
        keys[name] = key
        kwargs[name] = _coerce_value(fields[name].type, key, text)
    return kwargs


def _coerce_value(annotation, key: str, text: str):
    # Field types are stored as strings under `from __future__ import annotations`.
    type_name = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", str(annotation))
    if type_name == "int":
        try:
            return int(text)
        except ValueError:
            raise ValidationError(f"config key {key!r} expects an integer, got {text!r}") from None
    if type_name == "float":
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(f"config key {key!r} expects a number, got {text!r}") from None
        return value
    if type_name == "str":
        return text
    raise ValidationError(f"config key {key!r} has unsupported field type {type_name!r}")


def check_field_values(config) -> None:
    """Check every field of a config dataclass against its annotation.

    An int field takes an integer, a float field a finite real number and a
    str field a str; a bool is none of them.  A config built in Python
    skips the coercion a file gets, and range checks written with < and <=
    let NaN through, so this runs first.
    """
    kinds = {"int": numbers.Integral, "float": numbers.Real, "str": str}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, bool) or not isinstance(value, kinds[field.type]):
            raise ValidationError(f"{field.name} must be of type {field.type}, got {value!r}")
        if field.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{field.name} must be finite, got {value!r}")
