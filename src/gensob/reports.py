"""Deterministic CSV/JSON report writers.

Reports must regenerate byte-identically from the same config and seed list,
so floats are written with repr (shortest round-trip form), JSON keys are
sorted, and wall-clock timing goes to a sidecar file that is not part of the
deterministic artifact.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "nan", "inf" or "-inf": standard JSON has no such number
    return value


def write_csv(path, header, rows) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in map(_plain, row)])


def write_report(out_dir, command, config, rows_header, rows, verdicts, version,
                 wall_clock_s, extra=None) -> None:
    """Write results.csv, report.json and the timing.json sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "results.csv", rows_header, rows)
    report = {
        "command": command,
        "config": _plain(config),
        "version": version,
        "columns": list(rows_header),
        "rows": _plain(rows),
        "verdicts": _plain(verdicts),
    }
    if extra:
        report["extra"] = _plain(extra)
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out_dir / "timing.json").write_text(json.dumps({"wall_clock_s": wall_clock_s}, indent=2) + "\n")
