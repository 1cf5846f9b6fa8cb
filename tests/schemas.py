"""Wire-format schemas for CLI inputs and outputs, with a small validator.

The validator covers the subset of JSON Schema used here: type, required,
properties, items, enum. It exists so golden outputs can be checked
structurally without an external dependency.
"""

from __future__ import annotations

from stefan1d.errors import ValidationError

MEASURE_SCHEMA = {
    "type": "object",
    "required": ["breaks", "values"],
    "properties": {
        "breaks": {"type": "array", "items": {"type": "number"}},
        "values": {"type": "array", "items": {"type": "number"}},
    },
}

OPEN_SET_SCHEMA = {
    "type": "object",
    "required": ["components"],
    "properties": {
        "components": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        }
    },
}

CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["ordered", "mass_gap", "moment_gap", "worst_point", "worst_gap"],
    "properties": {
        "ordered": {"type": "boolean"},
        "mass_gap": {"type": "number"},
        "moment_gap": {"type": "number"},
        "worst_point": {"type": "number"},
        "worst_gap": {"type": "number"},
        "per_component": {"type": "array"},
        "assumptions": {"type": "array", "items": {"type": "string"}},
        "note": {"type": "string"},
    },
}

SOLUTION_SCHEMA = {
    "type": "object",
    "required": ["blocks", "k", "beta", "measure", "certificate"],
    "properties": {
        "blocks": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "k": {"type": "array", "items": {"type": "number"}},
        "beta": {"type": "array", "items": {"type": "number"}},
        "measure": MEASURE_SCHEMA,
        "certificate": CERTIFICATE_SCHEMA,
    },
}

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["components", "measure", "config", "all_frozen"],
    "properties": {
        "components": {"type": "array"},
        "measure": MEASURE_SCHEMA,
        "config": {"type": "object"},
        "all_frozen": {"type": "boolean"},
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["passed", "scenarios"],
    "properties": {
        "passed": {"type": "boolean"},
        "scenarios": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "rows"],
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "rows": {"type": "array"},
                },
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def validate(obj, schema, path: str = "$") -> None:
    """Raise ValidationError when obj does not conform to the schema subset."""
    kind = schema.get("type")
    if kind == "number":
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ValidationError(f"{path}: expected number, got {type(obj).__name__}")
    elif kind == "integer":
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ValidationError(f"{path}: expected integer, got {type(obj).__name__}")
    elif kind is not None:
        expected = _TYPES.get(kind)
        if expected is None:
            raise ValidationError(f"{path}: unknown schema type {kind!r}")
        if not isinstance(obj, expected) or (
            kind != "boolean" and isinstance(obj, bool)
        ):
            raise ValidationError(
                f"{path}: expected {kind}, got {type(obj).__name__}"
            )
    if "enum" in schema and obj not in schema["enum"]:
        raise ValidationError(f"{path}: {obj!r} not one of {schema['enum']!r}")
    if kind == "object":
        for key in schema.get("required", ()):
            if key not in obj:
                raise ValidationError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate(obj[key], sub, f"{path}.{key}")
    if kind == "array" and "items" in schema:
        for i, item in enumerate(obj):
            validate(item, schema["items"], f"{path}[{i}]")
