"""JSON (de)serialization shared by the API request/result types.

Every request and result is a frozen dataclass whose fields are JSON
primitives, mappings, or tuples thereof.  :class:`DictMixin` gives them all
the same contract:

* ``obj.to_dict()`` -> plain dict of JSON-compatible values;
* ``Cls.from_dict(data)`` -> instance, rejecting unknown keys;
* ``Cls.from_dict(json.loads(json.dumps(obj.to_dict()))) == obj``.

Tuples serialize as lists and are restored as tuples, so round-tripped
objects compare equal.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Type, TypeVar

from repro.errors import ConfigError

T = TypeVar("T", bound="DictMixin")


def _encode(value: Any) -> Any:
    """``value`` as JSON-ready data: tuples become lists, mapping keys
    strings, dataclasses dicts of their fields (a :class:`DictMixin`
    through its ``to_dict``).  Leaves are returned first, and a
    dataclass is walked field by field, so nothing is copied twice."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, DictMixin):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


class DictMixin:
    """to_dict/from_dict JSON round-tripping for frozen dataclasses."""

    #: field name -> callable decoding the JSON value back to the field
    #: value (e.g. rebuilding nested dataclasses).  Class-level override.
    _decoders: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            f.name: _encode(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    def to_json(self, indent: int = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__} payload must be a mapping, got {type(data)}"
            )
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} key(s): "
                f"{', '.join(sorted(map(str, unknown)))}"
            )
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            decoder = cls._decoders.get(name)
            if decoder is not None:
                value = decoder(value)
            elif isinstance(value, list):
                value = tuple(
                    tuple(v) if isinstance(v, list) else v for v in value
                )
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls: Type[T], text: str) -> T:
        try:
            return cls.from_dict(json.loads(text))
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"invalid {cls.__name__} JSON: {exc}"
            ) from exc


def parse_key_values(items, label: str = "filter") -> Dict[str, str]:
    """Parse repeated ``KEY=VALUE`` arguments (CLI flags, query params)."""
    out: Dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(
                f"invalid {label} {item!r}: expected KEY=VALUE"
            )
        key, value = item.split("=", 1)
        if not key:
            raise ConfigError(f"invalid {label} {item!r}: empty key")
        out[key] = value
    return out


def coerce_request(cls: Type[T], request: Any, kwargs: Mapping) -> T:
    """``request``-or-kwargs convention shared by the session facade and
    the remote client: accept an instance, a mapping, or bare keyword
    arguments — never a mix."""
    if request is not None and kwargs:
        raise ConfigError(
            f"pass either a {cls.__name__} or keyword arguments, not both"
        )
    if request is None:
        return cls(**kwargs)
    if isinstance(request, cls):
        return request
    if isinstance(request, Mapping):
        return cls.from_dict(request)
    raise ConfigError(
        f"expected {cls.__name__} or mapping, got {type(request).__name__}"
    )
