"""Exception types shared across the package, and the model-JSON field
lookups that raise them."""

import functools
import inspect
import sys


class SpecValidationError(ValueError):
    """A model specification violates its stated constraints."""


class NotDMonotoneError(SpecValidationError):
    """A sequence fails the required (log-)d-monotonicity precondition."""


class UndecidedVerdictError(SpecValidationError):
    """Double precision cannot decide the sign that a verdict rests on."""


class NonPositiveEntryError(SpecValidationError):
    """A sequence contains non-positive entries where positivity is required."""


class UnsupportedLawError(SpecValidationError):
    """The requested operation is not implementable for this mixing law."""


class DimensionCapError(SpecValidationError):
    """Requested dimension exceeds the hard cap of a combinatorial sampler."""


class NonMonotoneConditionalError(RuntimeError):
    """A conditional survival function turned out non-monotone, i.e. the
    supplied survival function is not a valid survival function."""


_REQUIRED = object()


def json_field(obj, key: str, path: str, default=_REQUIRED):
    """``obj[key]`` of the model-JSON object found at ``path`` ("" for the
    model spec itself).

    Refuses with SpecValidationError naming ``path`` when ``obj`` is not a
    JSON object, and ``path.key`` when the field is missing and has no
    ``default``.
    """
    _json_object(obj, path)
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise SpecValidationError(f"{_field_path(key, path)} is missing")
    return default


def json_list(obj, key: str, path: str, default=_REQUIRED):
    """:func:`json_field` for a field that holds a JSON list.

    Any other value is refused with SpecValidationError naming ``path.key``.
    """
    value = json_field(obj, key, path, default)
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(f"{_field_path(key, path)} must be a JSON list, got {value!r}")
    return value


def json_numbers(obj, key: str, path: str) -> tuple:
    """:func:`json_list` for a required field that holds a JSON list of finite
    numbers, as a tuple of its entries.

    An entry that is not a number within the range of a double (null, a
    string, a bool, NaN or an infinity) is refused with SpecValidationError
    naming ``path.key[i]``.
    """
    values = tuple(json_list(obj, key, path))
    for i, v in enumerate(values):
        if not _finite_number(v):
            raise SpecValidationError(
                f"{_field_path(key, path)}[{i}] must be a finite number, got {v!r}"
            )
    return values


def json_number(obj, key: str, path: str, default=_REQUIRED):
    """:func:`json_field` for a field that holds a finite number, as a float.

    A value that is not a number within the range of a double (null, a
    string, a bool, a list, an object, NaN or an infinity) is refused with
    SpecValidationError naming ``path.key``; a ``default`` is returned as is.
    """
    value = json_field(obj, key, path, default)
    if key not in obj:
        return value
    if not _finite_number(value):
        raise SpecValidationError(
            f"{_field_path(key, path)} must be a finite number, got {value!r}"
        )
    return float(value)


def json_kind(obj, tag: str, path: str, kinds: dict, what: str):
    """The entry of ``kinds`` named by the ``tag`` field of the model-JSON
    object at ``path``; a name that is not a key of ``kinds`` (a string it
    lacks, or any other JSON value) is refused with SpecValidationError."""
    name = json_field(obj, tag, path)
    if not isinstance(name, str) or name not in kinds:
        raise SpecValidationError(f"unknown {what} {name!r} at {_field_path(tag, path)}")
    return kinds[name]


def _json_object(obj, path: str) -> None:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path or 'model spec'} must be a JSON object, got {obj!r}")


def _finite_number(v) -> bool:
    """Whether a JSON value is a number within the range of a double."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _field_path(key: str, path: str) -> str:
    return f"{path}.{key}" if path else key


def json_known_fields(obj, path: str, fields, owner: str) -> None:
    """Refuse the first key of the model-JSON object at ``path``, in sorted
    order, that is not in ``fields``, naming it, its ``owner`` and ``fields``."""
    unknown = sorted(k for k in obj if k not in fields)
    if unknown:
        key = _field_path(unknown[0], path)
        raise SpecValidationError(f"{key} is not a field of {owner}; it takes {', '.join(fields)}")


@functools.cache
def _parameters(cls):
    """The parameters of ``cls``'s signature, read once per class."""
    return inspect.signature(cls).parameters


def json_kwargs(cls, obj: dict, path: str, tag: str | None = None) -> dict:
    """The fields of the model-JSON object at ``path`` other than its ``tag``,
    as keyword arguments of ``cls``.

    A non-object, a required argument of ``cls`` that is missing, a field
    ``cls`` does not take, or a value other than a finite number (a string,
    null, a bool, NaN or an infinity) for an argument annotated ``float``, is
    refused with SpecValidationError naming its path.
    """
    _json_object(obj, path)
    params = _parameters(cls)
    kwargs = {k: v for k, v in obj.items() if k != tag}
    missing = [k for k, p in params.items() if p.default is p.empty and k not in kwargs]
    if missing:
        raise SpecValidationError(f"{path}.{missing[0]} is missing")
    json_known_fields(kwargs, path, params, f"{tag} {obj[tag]!r}" if tag else path)
    for k, v in kwargs.items():
        # annotations are strings in modules that postpone their evaluation
        if params[k].annotation in (float, "float") and not _finite_number(v):
            raise SpecValidationError(f"{path}.{k} must be a finite number, got {v!r}")
    return kwargs
