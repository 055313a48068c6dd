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
