"""Results serialization: the fixed results.csv schema, the run manifest,
and self-contained SVG heatmap rendering (no plotting dependency).

The CSV schema is versioned and pinned by a golden-file test: columns in
the order below, probabilities printed with exactly six fractional digits.
"""

from __future__ import annotations

import csv
import hashlib
import json

__all__ = [
    "RESULTS_COLUMNS",
    "ReportError",
    "results_rows",
    "write_results_csv",
    "read_results_csv",
    "config_hash",
    "write_manifest",
    "write_trace_csv",
    "render_heatmaps_svg",
]

RESULTS_SCHEMA_VERSION = 1

RESULTS_COLUMNS = (
    "scenario_id",
    "n_drop",
    "n_feas",
    "order_first",
    "p_retain_correct",
    "p_retain_both",
    "p_proceed",
    "p_success_A1",
    "p_success_A2",
    "p_success_Apooled",
    "p_success_B1",
    "p_success_A1_B1",
    "p_success_A2_B1",
    "power",
    "fwer",
    "n_effective",
    "n_failed",
)

_FLOAT_COLUMNS = frozenset(
    c for c in RESULTS_COLUMNS if c.startswith("p_") or c in ("power", "fwer")
)


class ReportError(ValueError):
    """Malformed or incomplete results input."""


def _format(column: str, value) -> str:
    if column in _FLOAT_COLUMNS:
        return f"{float(value):.6f}"
    return str(value)


def results_rows(characteristics) -> list[dict]:
    """Flatten OperatingCharacteristics values into schema-ordered dicts."""
    rows = []
    for oc in characteristics:
        rows.append(
            {
                "scenario_id": oc.scenario_id,
                "n_drop": oc.n_drop,
                "n_feas": oc.n_feas,
                "order_first": oc.order_first,
                "p_retain_correct": oc.p_retain_correct,
                "p_retain_both": oc.p_retain_both,
                "p_proceed": oc.p_proceed,
                "p_success_A1": oc.p_success["A1"],
                "p_success_A2": oc.p_success["A2"],
                "p_success_Apooled": oc.p_success["A_pooled"],
                "p_success_B1": oc.p_success["B1"],
                "p_success_A1_B1": oc.p_success["A1:B1"],
                "p_success_A2_B1": oc.p_success["A2:B1"],
                "power": oc.power,
                "fwer": oc.fwer,
                "n_effective": oc.n_replicates_effective,
                "n_failed": oc.n_failed,
            }
        )
    rows.sort(key=lambda r: (r["scenario_id"], r["n_drop"], r["n_feas"]))
    return rows


def write_results_csv(characteristics, path) -> None:
    rows = results_rows(characteristics)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RESULTS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format(c, row[c]) for c in RESULTS_COLUMNS) + "\n")


def read_results_csv(path) -> list[dict]:
    """Parse a results.csv, checking the schema and value types: every
    probability is finite and in [0, 1], and no (scenario_id, n_drop,
    n_feas) cell appears twice."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in RESULTS_COLUMNS:
            if column not in header:
                raise ReportError(f"missing column {column!r} in results file")
        rows = []
        cells = set()
        for i, raw in enumerate(reader, start=2):
            if any(raw.get(c) in (None, "") for c in RESULTS_COLUMNS):
                raise ReportError(f"line {i}: incomplete row")
            try:
                row = {
                    c: (
                        float(raw[c])
                        if c in _FLOAT_COLUMNS
                        else (raw[c] if c == "order_first" else int(raw[c]))
                    )
                    for c in RESULTS_COLUMNS
                }
            except ValueError as exc:
                raise ReportError(f"line {i}: {exc}") from None
            for c in RESULTS_COLUMNS:
                if c in _FLOAT_COLUMNS and not 0.0 <= row[c] <= 1.0:  # also true for nan
                    raise ReportError(f"line {i}: {c} = {raw[c]} is not a probability in [0, 1]")
            cell = (row["scenario_id"], row["n_drop"], row["n_feas"])
            if cell in cells:
                raise ReportError(f"line {i}: duplicate cell (scenario_id, n_drop, n_feas) = {cell}")
            cells.add(cell)
            rows.append(row)
    if not rows:
        raise ReportError("results file has no data rows")
    return rows


def config_hash(scenario_dicts) -> str:
    """SHA-256 of the canonical JSON form; stable under key reordering in
    the source file."""
    canonical = json.dumps(scenario_dicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(rows, fields, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# SVG heatmaps
# ---------------------------------------------------------------------------

_HEATMAP_METRICS = ("p_retain_correct", "p_proceed", "power")
_CELL_W = 52
_CELL_H = 26
_LEFT = 64
_TOP = 34
_PANEL_GAP = 48
_BAND_GAP = 40
_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


def _fill(value: float) -> str:
    v = min(max(float(value), 0.0), 1.0)
    rgb = tuple(round(lo + v * (hi - lo)) for lo, hi in zip(_LIGHT, _DARK))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _esc(text) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _panel(out: list, x0: int, y0: int, title: str, rows: list, metric: str) -> None:
    n_drops = sorted({r["n_drop"] for r in rows})
    n_feass = sorted({r["n_feas"] for r in rows})
    values = {(r["n_drop"], r["n_feas"]): r[metric] for r in rows}
    height = len(n_feass) * _CELL_H
    out.append(
        f'<text x="{x0 + len(n_drops) * _CELL_W / 2:.0f}" y="{y0 - 12}" '
        f'text-anchor="middle" class="title">{_esc(title)}</text>'
    )
    for j, nf in enumerate(n_feass):  # y axis increases upward
        y = y0 + height - (j + 1) * _CELL_H
        out.append(
            f'<text x="{x0 - 6}" y="{y + _CELL_H / 2 + 3:.0f}" text-anchor="end" '
            f'class="tick">{nf}</text>'
        )
        for i, nd in enumerate(n_drops):
            x = x0 + i * _CELL_W
            v = values.get((nd, nf))
            if v is None:
                out.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                    f'fill="none" stroke="#cccccc"/>'
                )
                continue
            text_fill = "#ffffff" if v > 0.6 else "#1a1a1a"
            out.append(
                f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                f'fill="{_fill(v)}" stroke="#ffffff" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x + _CELL_W / 2:.0f}" y="{y + _CELL_H / 2 + 3:.0f}" '
                f'text-anchor="middle" class="cell" fill="{text_fill}">{v:.3f}</text>'
            )
    for i, nd in enumerate(n_drops):
        out.append(
            f'<text x="{x0 + i * _CELL_W + _CELL_W / 2:.0f}" y="{y0 + height + 14}" '
            f'text-anchor="middle" class="tick">{nd}</text>'
        )
    out.append(
        f'<text x="{x0 + len(n_drops) * _CELL_W / 2:.0f}" y="{y0 + height + 28}" '
        f'text-anchor="middle" class="axis">timing: n_drop</text>'
    )


def render_heatmaps_svg(rows: list, path) -> None:
    """One band per scenario, three panels per band (retention, proceed,
    power); x-axis is the arm-dropping trigger, y-axis the feasibility
    trigger; darker cells are higher probabilities."""
    if not rows:
        raise ReportError("no rows to render")
    scenario_ids = sorted({r["scenario_id"] for r in rows})
    n_drops = sorted({r["n_drop"] for r in rows})
    n_feass = sorted({r["n_feas"] for r in rows})
    panel_w = len(n_drops) * _CELL_W
    panel_h = len(n_feass) * _CELL_H
    band_h = _TOP + panel_h + _BAND_GAP
    width = _LEFT + 3 * panel_w + 2 * _PANEL_GAP + 20
    height = band_h * len(scenario_ids) + 10

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>"
        "text{font-family:Helvetica,Arial,sans-serif}"
        ".title{font-size:13px;font-weight:bold}"
        ".tick{font-size:10px;fill:#333333}"
        ".cell{font-size:10px}"
        ".axis{font-size:11px;fill:#333333}"
        ".scenario{font-size:12px;font-weight:bold;fill:#111111}"
        "</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for band, sid in enumerate(scenario_ids):
        scenario_rows = [r for r in rows if r["scenario_id"] == sid]
        y0 = band * band_h + _TOP
        out.append(
            f'<text x="8" y="{y0 - 16}" class="scenario">scenario {sid}</text>'
        )
        out.append(
            f'<text x="16" y="{y0 + panel_h / 2:.0f}" class="axis" '
            f'transform="rotate(-90 16 {y0 + panel_h / 2:.0f})" '
            f'text-anchor="middle">timing: n_feas</text>'
        )
        for p, metric in enumerate(_HEATMAP_METRICS):
            x0 = _LEFT + p * (panel_w + _PANEL_GAP)
            _panel(out, x0, y0, metric, scenario_rows, metric)
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
