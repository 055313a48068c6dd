"""INI-style config parsing helpers shared across the package.

Config files use configparser sections ([subject], [personalizer],
[experiment]). Vectors are comma- or space-separated finite floats;
matrices use ';' between rows ("0 1; 0.068 0.35").
"""

import configparser
import math
import operator
from dataclasses import fields

import numpy as np


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_vector(text):
    return np.array([_finite_float(p) for p in text.replace(",", " ").split()])


def parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([parse_vector(r) for r in rows])


def format_vector(vec):
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


def format_matrix(mat):
    mat = np.asarray(mat)
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in mat)


def parsed(parser, text, name):
    """parser(text), with a ValueError that names where the text came from."""
    try:
        return parser(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def parse_section(section, where, parsers, required=()):
    """{key: parsers[key](text)} for each key of section, an INI section.

    An unknown key, a missing required key or a value its parser rejects
    raises a ValueError '<where> <key>: <reason>'; where is
    '<path>: [<section name>]'.
    """
    for key in section:
        if key not in parsers:
            raise ValueError(f"{where} {key}: unknown key, expected one of "
                             f"{', '.join(parsers)}")
    for key in required:
        if key not in section:
            raise ValueError(f"{where} {key}: missing")
    return {key: parsed(parsers[key], text, f"{where} {key}")
            for key, text in section.items()}


def check_fields(obj, finite=(), positive=(), nonnegative=(), ints=(),
                 lengths=None, labels=None):
    """Check the named fields of the dataclass obj, then store them: ints
    as ints, lengths ({name: n}, n values each) as tuples of floats, the
    rest as floats, -0.0 as 0.0, so equal values make equal objects. A
    lengths entry that is a shape, such as (n, n), stores a read-only
    float64 array of that shape instead, signs of zero kept.

    Each must be finite, and one in positive > 0, in nonnegative >= 0.
    The first that fails, in field order, raises a ValueError naming it
    by labels.get(name, name).
    """
    lengths, labels = lengths or {}, labels or {}
    named = {*finite, *positive, *nonnegative, *ints, *lengths}
    for name in (f.name for f in fields(obj) if f.name in named):
        value, label = getattr(obj, name), labels.get(name, name)
        n = lengths.get(name)
        array = isinstance(n, tuple)
        if np.shape(value) != (n if array else () if n is None else (n,)):
            raise ValueError(f"{label} must have shape {n}, not {np.shape(value)}" if array
                             else f"{label} must have {n} values, not {value}" if n
                             else f"{label} = {value} must be one number")
        if name in ints:
            try:
                stored = operator.index(value)
            except TypeError:
                raise ValueError(f"{label} = {value} must be an integer") from None
        elif not np.isfinite(value).all():
            raise ValueError(f"{label} = {value} must be finite")
        elif array:
            stored = np.array(value, dtype=float)
            stored.flags.writeable = False
        else:
            stored = tuple(float(v) + 0.0 for v in value) if n else float(value) + 0.0
        if name in positive and not stored > 0:
            raise ValueError(f"{label} = {stored} must be positive")
        if name in nonnegative and not stored >= 0:
            raise ValueError(f"{label} = {stored} must be >= 0")
        object.__setattr__(obj, name, stored)


def read_config(path):
    """Read an INI config file, returning a configparser with case kept."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def write_config(path, sections):
    """Write {section: {key: value}} to an INI file; sequences as vectors."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for name, kv in sections.items():
        cp[name] = {k: format_vector(v) if isinstance(v, (list, tuple, np.ndarray))
                    else str(v) for k, v in kv.items()}
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
