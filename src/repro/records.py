"""One JSON codec for every field-shaped record dataclass.

Campaign journals, typed failures, figure results and session reports all
persist dataclasses whose JSON form is exactly their fields.  Rather than a
hand-written ``to_json``/``from_json`` pair per type, such a dataclass mixes
in :class:`JsonRecord` and gets both from its annotations.

This module is a stdlib-only leaf: it imports nothing from ``repro``, so
any subpackage may use it without creating an import cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing
from typing import Any, Callable

__all__ = ["JsonRecord"]


class JsonRecord:
    """Mixin giving a dataclass a ``to_json``/``from_json`` round trip.

    The contract, which the frozen v1 journal fixture in the test suite
    pins:

    * ``to_json`` emits one key per dataclass field; tuples become lists
      and nested records become their own ``to_json`` dicts.
    * ``from_json`` ignores unknown keys, so journals written by newer code
      still load.  A missing key takes the field's default; a missing key
      with no default raises :class:`KeyError` naming the class and key.
    * Scalars are kept exactly as JSON gives them (an ``int`` in a
      ``list[float]`` stays an ``int``), so a decoded record re-encodes to
      the same bytes.
    * Containers (``tuple[X, ...]``, ``list[X]``, ``dict[str, X]``,
      ``X | None``) and nested records are rebuilt from the annotations.

    Annotations may name another record class that the defining module
    only imports under ``TYPE_CHECKING``: hints are resolved on first use,
    against the module's globals plus every loaded record class, and
    cached per class.
    """

    def to_json(self) -> dict:
        return {
            name: encode(getattr(self, name))
            for name, _, encode, _ in _plan(type(self))
        }

    @classmethod
    def from_json(cls, data: dict):
        kwargs = {}
        for name, has_default, _, decode in _plan(cls):
            if name in data:
                kwargs[name] = decode(data[name])
            elif not has_default:
                raise KeyError(
                    f"{cls.__name__}.from_json: missing required key {name!r}"
                )
        return cls(**kwargs)


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, bool, Callable, Callable], ...]:
    """``(field name, has default, encode, decode)`` per field of ``cls``.

    Built on first use, not at class creation, so that a forward
    reference to a record defined later (``"FaultPlan | None"``) resolves.
    """
    namespace = {**_record_classes(), **vars(sys.modules[cls.__module__])}
    hints = typing.get_type_hints(cls, globalns=namespace)
    return tuple(
        (
            f.name,
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING,
            *_codec(hints[f.name]),
        )
        for f in dataclasses.fields(cls)
    )


def _record_classes() -> dict[str, type]:
    found: dict[str, type] = {}
    pending = [JsonRecord]
    while pending:
        for sub in pending.pop().__subclasses__():
            found[sub.__name__] = sub
            pending.append(sub)
    return found


def _identity(value: Any) -> Any:
    return value


def _codec(tp: Any) -> tuple[Callable, Callable]:
    """``(encode, decode)`` for values annotated ``tp``."""
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        inner = [arg for arg in args if arg is not type(None)]
        if len(inner) != 1:
            return _identity, _identity
        encode, decode = _codec(inner[0])
        if encode is _identity:
            return _identity, _identity
        return (
            lambda v: None if v is None else encode(v),
            lambda v: None if v is None else decode(v),
        )
    if isinstance(tp, type) and issubclass(tp, JsonRecord):
        return (lambda v: v.to_json()), tp.from_json
    if origin in (list, tuple):
        rebuild = tuple if origin is tuple else list
        encode, decode = _codec(args[0])
        if encode is _identity:
            return list, rebuild
        return (
            lambda v: [encode(x) for x in v],
            lambda v: rebuild(decode(x) for x in v),
        )
    if origin is dict or tp is dict:
        encode, decode = _codec(args[1]) if args else (_identity, _identity)
        if encode is _identity:
            return dict, dict
        return (
            lambda v: {k: encode(x) for k, x in v.items()},
            lambda v: {k: decode(x) for k, x in v.items()},
        )
    return _identity, _identity
