"""The CSV and JSON writers behind every artifact: lists, tuples or arrays in, no numpy.

Each makes its file's missing parent directories, so a run that writes nothing makes none.
"""

import json
import os


def write_csv(path, header: str, columns) -> None:
    """Write header, then row i of columns with each field as "%.17g" text, which round-trips."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(c.tolist() if hasattr(c, "tolist") else c for c in columns))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def write_json(path, obj) -> None:
    """Write obj as JSON indented by 2 with sorted keys and a final newline."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
