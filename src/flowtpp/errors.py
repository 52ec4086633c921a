"""Error types shared across modules, mapped to CLI exit codes; the one
decoder of every input file; and the check behind every config section:
closed keys, typed values."""

import json
import math
import numbers
import typing
from dataclasses import MISSING, asdict, fields


class ValidationError(ValueError):
    """Bad input data, config, or arguments (CLI exit code 1)."""


class NumericalError(FloatingPointError):
    """Non-finite values or a diverged computation (CLI exit code 2)."""


def read_text(path) -> str:
    """The UTF-8 text of the file at path, else ValidationError naming it;
    OSError passes through (main names the file)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None


def parse_json(text: str, where: str):
    """json.loads(text), else ValidationError "<where>: invalid JSON (...)".
    ValueError covers syntax, decode errors and the integer digit limit;
    RecursionError a document nested too deeply."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc})") from None


# per scalar kind: the class a value must be an instance of, and its name
_KINDS = {int: (numbers.Integral, "integer"), float: (numbers.Real, "number"),
          str: (str, "string")}


def check_value(name: str, value, kind):
    """value as kind (int, float, str, tuple[int, ...] or tuple[float, ...]),
    else ValidationError naming name; a bool is not a number, and a float is
    finite."""
    if kind not in _KINDS:  # a tuple kind, from a list or a tuple
        item = kind.__args__[0]
        if not isinstance(value, (list, tuple)):
            raise ValidationError(
                f"{name} must be a list of {_KINDS[item][1]}s, got {value!r}")
        return tuple(check_value(name, v, item) for v in value)
    abc, what = _KINDS[kind]
    if isinstance(value, abc) and not isinstance(value, bool):
        try:  # float() of an integer past the float range overflows
            if kind is not float or math.isfinite(float(value)):
                return kind(value)
        except OverflowError:
            pass
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    raise ValidationError(
        f"{name} must be {'an' if kind is int else 'a'} {what}, got {value!r}")


def check_seed(name: str, value) -> int:
    """value as a seed, an integer >= 0 (numpy's generators take no negative
    seed), else ValidationError naming name."""
    seed = check_value(name, value, int)
    if seed < 0:
        raise ValidationError(f"{name} must be >= 0, got {seed}")
    return seed


def check_section(section: str, data, types: dict) -> dict:
    """One config section, its keys all in types, its values check_value'd."""
    if not isinstance(data, dict):
        raise ValidationError(f"config section {section!r} must be an object")
    unknown = sorted(set(data) - types.keys())
    if unknown:
        raise ValidationError(
            f"unknown {section} config keys: {unknown} "
            f"({', '.join(f'{section}.{key}' for key in unknown)})")
    return {key: check_value(f"{section}.{key}", value, types[key])
            for key, value in data.items()}


class Config:
    """Base of the frozen config dataclasses, one per config-file section
    (the class keyword section); field_types maps each field to its
    annotation. Making one converts each field by check_value against its
    annotation, checks a seed field by check_seed, then runs the subclass's
    validate()."""

    def __init_subclass__(cls, section: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.section, cls.field_types = section, typing.get_type_hints(cls)

    def __post_init__(self):
        for name, kind in self.field_types.items():
            object.__setattr__(self, name, check_value(
                f"{self.section}.{name}", getattr(self, name), kind))
        if "seed" in self.field_types:
            check_seed(f"{self.section}.seed", self.seed)
        self.validate()

    @classmethod
    def from_dict(cls, data):
        """An instance from a config section, checked by check_section."""
        data = check_section(cls.section, data, cls.field_types)
        for f in fields(cls):
            if f.default is MISSING and f.name not in data:
                raise ValidationError(f"{cls.section}.{f.name} is required")
        return cls(**data)

    def validate(self):
        """Checks across fields, beyond each field's type; none by default."""

    def require(self, ok: bool, key: str, rule: str):
        """Unless ok, ValidationError "section.key must be rule, got value"."""
        if not ok:
            raise ValidationError(
                f"{self.section}.{key} must be {rule}, got {getattr(self, key)!r}")

    def to_dict(self) -> dict:
        return asdict(self)
