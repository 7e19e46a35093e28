"""Config schema check: exactly the draft-2020-12 keywords ``schemas/config_schema.json`` uses.

``type``, ``properties``, ``required``, ``additionalProperties``, ``items``, ``minItems``,
``maxItems``, ``minimum``, ``exclusiveMinimum``, ``enum``, ``const``, ``oneOf`` and local
``$ref``, plus the root annotations ``$schema``, ``$id``, ``title`` and ``$defs``.  Any
other keyword raises, so the schema cannot outgrow the checker unnoticed.  As in the draft,
``4.0`` is an integer, a boolean is never a number, and ``true`` never equals ``1``.
``conform`` also hands back the config with each such integral float turned into an int.
"""

from __future__ import annotations

import json

_ROOT_ANNOTATIONS = {"$schema", "$id", "title", "$defs"}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minItems",
             "maxItems", "minimum", "exclusiveMinimum", "enum", "const", "oneOf", "$ref"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _json_equal(a, b) -> bool:
    """JSON equality: 1 == 1.0, but a boolean equals only itself."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _subschemas(schema: dict):
    for key, arg in schema.items():
        if key in ("properties", "$defs"):
            yield from arg.values()
        elif key == "oneOf":
            yield from arg
        elif key in ("items", "additionalProperties"):
            yield arg


def _check_keywords(schema, root: bool = False) -> None:
    """Raise on any keyword outside the implemented subset, anywhere in ``schema``."""
    if isinstance(schema, bool):
        return
    unknown = set(schema) - _KEYWORDS - (_ROOT_ANNOTATIONS if root else set())
    if unknown:
        raise NotImplementedError(f"config schema uses unsupported keywords {sorted(unknown)}")
    for sub in _subschemas(schema):
        _check_keywords(sub)


def _cut(text: str) -> str:
    """At most 40 characters of ``text``: messages echo values and keys from the config."""
    return text if len(text) <= 40 else f"{text[:36]}..."


def _show(value) -> str:
    return _cut(json.dumps(value))


def _first_error(value, schema, root: dict, path: tuple, floats: list):
    """(path, message) of the first way ``value`` breaks ``schema``, or None if it conforms.

    Appends to ``floats`` the path of each float that conforms as an ``integer``; inside
    ``oneOf`` only the branch that matches contributes.
    """
    if isinstance(schema, bool):
        return None if schema else (path, "not allowed here")
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise NotImplementedError(f"config schema $ref {ref!r} is not local")
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        error = _first_error(value, target, root, path, floats)
        if error:
            return error
    if "type" in schema and not _TYPES[schema["type"]](value):
        return path, f"expected {schema['type']}, got {_show(value)}"
    if schema.get("type") == "integer" and isinstance(value, float):
        floats.append(path)
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        return path, f"{_show(value)} is not one of {_show(schema['enum'])}"
    if "const" in schema and not _json_equal(value, schema["const"]):
        return path, f"{_show(value)} is not {_show(schema['const'])}"
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value} is less than the minimum {schema['minimum']}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, f"{value} is not greater than {schema['exclusiveMinimum']}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"missing required key {key!r}"
        props = schema.get("properties", {})
        for key, item in value.items():
            sub = props.get(key, schema.get("additionalProperties", True))
            error = _first_error(item, sub, root, (*path, key), floats)
            if error:
                return error
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            return path, f"has {len(value)} items, fewer than {schema['minItems']}"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            return path, f"has {len(value)} items, more than {schema['maxItems']}"
        for i, item in enumerate(value if "items" in schema else ()):
            error = _first_error(item, schema["items"], root, (*path, i), floats)
            if error:
                return error
    if "oneOf" in schema:
        branches = schema["oneOf"]
        found = [[] for _ in branches]
        errors = [_first_error(value, branch, root, path, f) for branch, f in zip(branches, found)]
        matched = errors.count(None)
        if matched == 0:  # the branch that got deepest names the likeliest mistake
            return max(errors, key=lambda e: len(e[0]))
        if matched > 1:
            return path, f"matches {matched} of the oneOf forms, not exactly one"
        floats.extend(found[errors.index(None)])
    return None


def _with_ints(value, paths: set, path: tuple = ()):
    if path in paths:
        return int(value)
    if isinstance(value, dict):
        return {k: _with_ints(v, paths, (*path, k)) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_ints(v, paths, (*path, i)) for i, v in enumerate(value)]
    return value


def conform(instance, schema: dict):
    """Check ``instance`` against ``schema``: (error, instance).

    ``error`` names the JSON path of the first offending value, or is None if the instance
    conforms; then ``instance`` is a copy in which every float that conforms as an
    ``integer`` (``241.0``) is an int, so code past the check sees one type per integer
    slot.  Raises NotImplementedError if ``schema`` uses a keyword outside the subset
    implemented here."""
    _check_keywords(schema, root=True)
    floats = []
    error = _first_error(instance, schema, schema, (), floats)
    if error is None:
        return None, _with_ints(instance, set(floats))
    path, message = error
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
    return f"{_cut(where) or 'config'}: {message}", instance
