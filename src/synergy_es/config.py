"""INI-style config parsing helpers shared across the package.

Config files use configparser sections ([subject], [personalizer],
[experiment]). Vectors are comma- or space-separated finite floats;
matrices use ';' between rows ("0 1; 0.068 0.35").
"""

import io
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


def _shown(value):
    """value as an error message shows it: an array as nested lists."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def check_fields(obj, finite=(), positive=(), nonnegative=(), ints=(),
                 lengths=None, labels=None):
    """Check the named fields of the dataclass obj, then store them as
    check_value gives them: ints as ints, lengths ({name: n}, n values
    each) as tuples of floats or, where n is a shape such as (n, n), as
    read-only float64 arrays, the rest as floats.

    Each must be finite, and one in positive > 0, in nonnegative >= 0.
    The first that fails, in field order, raises a ValueError naming it
    by labels.get(name, name), with its value on one line.
    """
    lengths, labels = lengths or {}, labels or {}
    named = {*finite, *positive, *nonnegative, *ints, *lengths}
    for name in (f.name for f in fields(obj) if f.name in named):
        label = labels.get(name, name)
        stored = check_value(getattr(obj, name), label, lengths.get(name), name in ints)
        if name in positive and not stored > 0:
            raise ValueError(f"{label} = {stored} must be positive")
        if name in nonnegative and not stored >= 0:
            raise ValueError(f"{label} = {stored} must be >= 0")
        object.__setattr__(obj, name, stored)


def check_value(value, label, n=None, integer=False):
    """value, checked, as it is stored: an int if integer; for n values (n
    a count) a tuple of floats; for n a shape, such as (n, n), a read-only
    float64 array of that shape, signs of zero kept; else a float. A
    float is stored with -0.0 as 0.0, so equal values make equal objects.

    A value of the wrong shape, not an integer where integer is set, or
    not finite raises a ValueError '<label> = <value> ...', the value on
    one line.
    """
    if n is None and type(value) in (float, int):  # no numpy call; not bool
        if integer:
            if type(value) is float:
                raise ValueError(f"{label} = {value} must be an integer")
            return value
        if not math.isfinite(value):
            raise ValueError(f"{label} = {value} must be finite")
        return float(value) + 0.0
    array = isinstance(n, tuple)
    if np.shape(value) != (n if array else () if n is None else (n,)):
        raise ValueError(f"{label} must have shape {n}, not {np.shape(value)}" if array
                         else f"{label} must have {n} values, not {_shown(value)}" if n
                         else f"{label} = {_shown(value)} must be one number")
    if integer:
        try:
            return operator.index(value)
        except TypeError:
            raise ValueError(f"{label} = {_shown(value)} must be an integer") from None
    if not np.isfinite(value).all():
        raise ValueError(f"{label} = {_shown(value)} must be finite")
    if array:
        stored = np.array(value, dtype=float)
        stored.flags.writeable = False
        return stored
    return tuple(float(v) + 0.0 for v in value) if n else float(value) + 0.0


def open_text(path, newline=None):
    """The UTF-8 file at path, read whole, as a text stream whose line ends
    are those open(path, newline=newline) gives. A byte that is not UTF-8
    raises a ValueError '<path>: byte <offset>: not UTF-8 (<reason>)'."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None


def read_config(path):
    """Read an INI config file, returning a configparser with case kept and
    no interpolation ('%' is an ordinary character). A file that is not
    UTF-8 raises open_text's ValueError, and one the parser rejects a
    ValueError '<path>: line <n>: <reason>'."""
    import configparser  # here, not at import: building a model reads no file
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_file(open_text(path))
    except configparser.MissingSectionHeaderError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.line.strip()!r} "
                         "is not under a [section] header") from None
    except configparser.ParsingError as exc:
        line, text = exc.errors[0]
        raise ValueError(f"{path}: line {line}: cannot parse {text}") from None
    except configparser.DuplicateOptionError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: [{exc.section}] "
                         f"{exc.option}: repeated key") from None
    except configparser.DuplicateSectionError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: [{exc.section}]: "
                         "repeated section") from None
    return cp


def write_config(path, sections):
    """Write {section: {key: value}} to an INI file; sequences as vectors."""
    import configparser
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for name, kv in sections.items():
        cp[name] = {k: format_vector(v) if isinstance(v, (list, tuple, np.ndarray))
                    else str(v) for k, v in kv.items()}
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
