"""Reference UCR parser: the per-line list-of-lists parse that ``parse_ucr``
replaced with a preallocated array.

Kept only as a test oracle. It builds one Python float list per line and
stacks them with ``np.array``; ``esnrae.data.parse_ucr`` must return the same
Dataset, or raise the same FormatError message, for every input.
"""

from __future__ import annotations

import math

import numpy as np

from esnrae.data import Dataset, _detect_separator, _read_lines, _split_line, _stem
from esnrae.errors import FormatError


def parse_ucr_per_line(
    path: str,
    name: str = "",
    split: str = "",
    label_names: tuple[int, ...] | None = None,
) -> Dataset:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(_read_lines(path)) if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: file is empty")

    sep = _detect_separator(lines[0][1])
    rows: list[list[float]] = []
    originals: list[int] = []
    width = None
    for lineno, text in lines:
        fields = _split_line(text, sep)
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric field") from None
        if len(values) < 2:
            raise FormatError(
                f"{path}: line {lineno}: expected a label plus at least one value"
            )
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(
                f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
            )
        try:
            label = int(fields[0])
        except ValueError:
            label = values[0]
            if not math.isfinite(label) or abs(label - round(label)) > 1e-9:
                raise FormatError(
                    f"{path}: line {lineno}: class label {label!r} is not an integer"
                ) from None
            label = int(round(label))
        originals.append(label)
        rows.append(values[1:])

    patterns = np.array(rows, dtype=float)
    if not np.isfinite(patterns).all():
        first_bad = int(np.argmin(np.isfinite(patterns).all(axis=1)))
        raise FormatError(f"{path}: line {lines[first_bad][0]}: non-finite value")

    if label_names is None:
        label_names = tuple(sorted(set(originals)))
    remap = {orig: i for i, orig in enumerate(label_names)}
    unknown = sorted(set(originals) - set(remap))
    if unknown:
        raise FormatError(
            f"{path}: class labels {unknown} are not among the known labels "
            f"{list(label_names)}"
        )
    if not name:
        name = _stem(path)
    return Dataset(
        name=name,
        patterns=patterns,
        labels=np.array([remap[o] for o in originals], dtype=int),
        label_names=label_names,
        split=split,
    )
