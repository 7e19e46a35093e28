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


def _conformed(value, schema, root: dict, path: tuple):
    """(error, copy): the (path, message) of the first way ``value`` breaks ``schema``, or None;
    then ``value`` with each float that conforms as an ``integer`` an int.  Dicts and lists
    are rebuilt from their children's copies, a ``oneOf`` takes the copy of the branch that
    matches, and a value under a ``true`` schema is handed back shared, not copied."""
    if isinstance(schema, bool):
        return (None, value) if schema else ((path, "not allowed here"), value)
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise NotImplementedError(f"config schema $ref {ref!r} is not local")
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        error, value = _conformed(value, target, root, path)
        if error:
            return error, value
    if "type" in schema and not _TYPES[schema["type"]](value):
        return (path, f"expected {schema['type']}, got {_show(value)}"), value
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        return (path, f"{_show(value)} is not one of {_show(schema['enum'])}"), value
    if "const" in schema and not _json_equal(value, schema["const"]):
        return (path, f"{_show(value)} is not {_show(schema['const'])}"), value
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return (path, f"{value} is less than the minimum {schema['minimum']}"), value
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return (path, f"{value} is not greater than {schema['exclusiveMinimum']}"), value
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return (path, f"missing required key {key!r}"), value
        props, copy = schema.get("properties", {}), {}
        for key, item in value.items():
            sub = props.get(key, schema.get("additionalProperties", True))
            error, copy[key] = _conformed(item, sub, root, (*path, key))
            if error:
                return error, value
        value = copy
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            return (path, f"has {len(value)} items, fewer than {schema['minItems']}"), value
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            return (path, f"has {len(value)} items, more than {schema['maxItems']}"), value
        copy = list(value)
        for i, item in enumerate(value if "items" in schema else ()):
            error, copy[i] = _conformed(item, schema["items"], root, (*path, i))
            if error:
                return error, value
        value = copy
    if "oneOf" in schema:
        results = [_conformed(value, branch, root, path) for branch in schema["oneOf"]]
        errors = [error for error, _ in results]
        matched = errors.count(None)
        if matched == 0:  # the branch that got deepest names the likeliest mistake
            return max(errors, key=lambda e: len(e[0])), value
        if matched > 1:
            return (path, f"matches {matched} of the oneOf forms, not exactly one"), value
        value = results[errors.index(None)][1]
    if schema.get("type") == "integer" and isinstance(value, float):
        value = int(value)
    return None, value


def conform(instance, schema: dict):
    """Check ``instance`` against ``schema``: (error, instance), in one traversal.

    ``error`` names the JSON path of the first offending value, or is None if the instance
    conforms; then ``instance`` is a copy in which every float that conforms as an
    ``integer`` (``241.0``) is an int, so code past the check sees one type per integer
    slot.  Values under a ``true`` schema (the insides of a weight object) are shared with
    ``instance``, not copied, as nothing past the check mutates a config.  Raises
    NotImplementedError if ``schema`` uses a keyword outside the subset implemented here."""
    _check_keywords(schema, root=True)
    error, conformed = _conformed(instance, schema, schema, ())
    if error is None:
        return None, conformed
    path, message = error
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
    return f"{_cut(where) or 'config'}: {message}", instance
