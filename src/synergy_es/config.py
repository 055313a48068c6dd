"""INI-style config parsing helpers shared across the package.

Config files use configparser sections ([subject], [personalizer],
[experiment]). Vectors are comma- or space-separated floats; matrices use
';' between rows ("0 1; 0.068 0.35").
"""

import configparser

import numpy as np


def parse_vector(text):
    parts = text.replace(",", " ").split()
    return np.array([float(p) for p in parts])


def parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip()]
    mat = np.array([ [float(v) for v in r.replace(",", " ").split()] for r in rows ])
    return mat


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


def store_floats(obj, names):
    """Store each named field of the frozen dataclass obj as a float, or a
    sequence as a tuple of floats, with -0.0 as 0.0.

    Called once its checks pass, so ints, numpy scalars and 0-d arrays
    all compute in float64, and two NaN-free objects are equal exactly
    when their fields have the same bits (and hash alike).
    """
    for name in names:
        value = getattr(obj, name)
        object.__setattr__(obj, name, float(value) + 0.0 if np.ndim(value) == 0
                           else tuple(float(v) + 0.0 for v in value))


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
