"""CSV/JSON emission helpers: every artifact carries a seed/config comment line."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_csv(path, header: list[str], rows, meta: dict | None = None) -> Path:
    """Write `header` and `rows` as csv.writer writes them, after a comment line
    of `meta`.  `rows` is an iterable of rows, or a `CsvRows` of numpy columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        if isinstance(rows, CsvRows):
            fh.writelines(rows)
        else:
            w.writerows(rows)
    return path


class CsvRows:
    """The rows zip(*columns) of numpy columns of numbers, which iterate as
    strings of at most BLOCK rows in csv.writer's form, so a long file is
    formatted in bounded memory.

    Each field is the str of its Python scalar, which equals that of the
    numpy scalar (inf, -inf and nan included), and csv.writer quotes no
    number, so the bytes are those of csv.writer's rows.
    """

    BLOCK = 4096

    def __init__(self, *columns):
        self.columns = columns

    def __iter__(self):
        n, k = len(self.columns[0]), len(self.columns)
        line = ",".join(["%s"] * k) + "\r\n"
        for lo in range(0, n, self.BLOCK):
            hi = min(n, lo + self.BLOCK)
            fields = [None] * ((hi - lo) * k)
            for at, column in enumerate(self.columns):     # row by row, interleaved
                fields[at::k] = column[lo:hi].tolist()
            yield (line * (hi - lo)) % tuple(fields)


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
