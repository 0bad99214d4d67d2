"""Report bundle: JSON payload, text summary, weight table and SVG charts.

Each run under ``runs`` is what ``evaluate.evaluate_cv`` returns.  All
artifacts have fixed formatting and no timestamps, so identical inputs give
byte-identical files, and ``render`` re-creates the rest from report.json alone.
"""

from __future__ import annotations

import hashlib
import json
import os

from . import __version__

REPORT_JSON = "report.json"
SUMMARY_TXT = "summary.txt"

_CLASS_NAMES = ("no-failure", "failure")
_BAR_POS = "#1f77b4"
_BAR_NEG = "#d62728"


def dataset_digest(paths) -> str:
    """sha256 over the named input files, order-independent."""
    digest = hashlib.sha256()
    for label, path in sorted(paths.items()):
        digest.update(label.encode())
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return "sha256:" + digest.hexdigest()


def write_bundle(out_dir, payload: dict):
    """Write report.json plus every rendered artifact."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, REPORT_JSON), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    render(out_dir, payload)


def render(out_dir, payload: dict):
    """Render summary, weight CSVs and SVGs from a report payload.  Every
    artifact is rendered before any is written, so a payload that fails to
    render leaves ``out_dir`` as it was."""
    artifacts = {SUMMARY_TXT: _summary_text(payload)}
    for run_name, run in sorted(payload.get("runs", {}).items()):
        artifacts[f"weights_{run_name}.csv"] = _weights_csv(run)
        artifacts[f"weights_{run_name}.svg"] = _weights_svg(
            run, f"coefficients ({run_name} feature set)")
        artifacts[f"confusion_{run_name}.svg"] = _confusion_svg(
            run, f"average normalized confusion ({run_name})")
    for name, text in artifacts.items():
        _write_text(os.path.join(out_dir, name), text)


def load_bundle_payload(bundle_dir) -> dict:
    path = os.path.join(bundle_dir, REPORT_JSON)
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _write_text(path, text):
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _matrix_block(counts, normalized, indent="  "):
    lines = []
    header = f"{'':14s}{'pred ' + _CLASS_NAMES[0]:>16s}{'pred ' + _CLASS_NAMES[1]:>16s}"
    lines.append(indent + header)
    for t in (0, 1):
        label = f"true {_CLASS_NAMES[t]}"
        lines.append(indent + f"{label:16s}{counts[t][0]:>16d}{counts[t][1]:>16d}")
    lines.append(indent + "normalized:")
    for t in (0, 1):
        label = f"true {_CLASS_NAMES[t]}"
        lines.append(indent + f"{label:16s}{normalized[t][0]:>16.6f}{normalized[t][1]:>16.6f}")
    return lines


def _summary_text(payload) -> str:
    lines = []
    lines.append(f"failcast {payload.get('version', '?')} evaluation report")
    lines.append("=" * 48)
    lines.append(f"command:         {payload.get('command', '?')}")
    lines.append(f"dataset digest:  {payload.get('dataset_digest', '?')}")
    lines.append(f"label semantics: {payload.get('label_semantics', '?')}")
    config = payload.get("config", {})
    lines.append("resolved config:")
    for key in sorted(config):
        lines.append(f"  {key} = {config[key]}")
    for run_name, run in sorted(payload.get("runs", {}).items()):
        lines.append("")
        features = run["features"]
        lines.append(f"[{run_name}] {len(features)} features: {', '.join(features)}")
        for fold in run["folds"]:
            fit = ""  # bundles written before fits were reported lack it
            if "converged" in fold:
                fit = (f", {fold['iterations']} iterations, "
                       f"{'converged' if fold['converged'] else 'NOT converged'}")
            lines.append(f"fold {fold['fold_index']} "
                         f"(train {fold['n_train']}, test {fold['n_test']}{fit}):")
            lines.extend(_matrix_block(fold["counts"], fold["normalized"]))
        lines.append("average normalized matrix:")
        avg = run["average_normalized"]
        for t in (0, 1):
            label = f"true {_CLASS_NAMES[t]}"
            lines.append(f"  {label:16s}{avg[t][0]:>16.6f}{avg[t][1]:>16.6f}")
        lines.append("coefficients by |mean| (feature, mean, std):")
        for entry in run["weights"]:
            lines.append(f"  {entry['feature']:12s} {entry['mean']:>14.6f} "
                         f"{entry['std']:>12.6f}")
    return "\n".join(lines) + "\n"


def _weights_csv(run) -> str:
    lines = ["feature,mean,std,abs_rank"]
    for entry in run["weights"]:
        lines.append(f"{entry['feature']},{entry['mean']!r},{entry['std']!r},"
                     f"{entry['abs_rank']}")
    return "\n".join(lines) + "\n"


def _svg_header(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{title}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _weights_svg(run, title) -> str:
    entries = run["weights"]
    bar_h = 16
    gap = 4
    left = 120
    plot_w = 360
    top = 32
    height = top + len(entries) * (bar_h + gap) + 12
    width = left + plot_w + 90
    peak = max(abs(e["mean"]) for e in entries) or 1.0
    parts = _svg_header(width, height, title)
    for i, entry in enumerate(entries):
        y = top + i * (bar_h + gap)
        frac = abs(entry["mean"]) / peak
        w = max(frac * plot_w, 0.5)
        color = _BAR_POS if entry["mean"] >= 0 else _BAR_NEG
        parts.append(f'<text x="{left - 6}" y="{y + bar_h - 4}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{entry["feature"]}</text>')
        parts.append(f'<rect x="{left}" y="{y}" width="{w:.2f}" height="{bar_h}" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{left + w + 5:.2f}" y="{y + bar_h - 4}" '
                     f'font-family="monospace" font-size="11">{entry["mean"]:+.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(value):
    # white at 0 to a saturated blue at 1
    r = int(round(255 - value * (255 - 31)))
    g = int(round(255 - value * (255 - 119)))
    b = int(round(255 - value * (255 - 180)))
    return f"#{r:02x}{g:02x}{b:02x}"


def _confusion_svg(run, title) -> str:
    matrix = run["average_normalized"]
    cell = 110
    left = 130
    top = 60
    width = left + 2 * cell + 40
    height = top + 2 * cell + 50
    parts = _svg_header(width, height, title)
    for p in (0, 1):
        x = left + p * cell + cell / 2
        parts.append(f'<text x="{x:.1f}" y="{top - 10}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">pred {_CLASS_NAMES[p]}</text>')
    for t in (0, 1):
        y = top + t * cell + cell / 2
        parts.append(f'<text x="{left - 10}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">true {_CLASS_NAMES[t]}</text>')
        for p in (0, 1):
            value = float(matrix[t][p])
            x = left + p * cell
            yy = top + t * cell
            text_fill = "black" if value < 0.6 else "white"
            parts.append(f'<rect x="{x}" y="{yy}" width="{cell}" height="{cell}" '
                         f'fill="{_heat_color(value)}" stroke="#555"/>')
            parts.append(f'<text x="{x + cell / 2:.1f}" y="{yy + cell / 2 + 5:.1f}" '
                         f'text-anchor="middle" font-family="sans-serif" font-size="16" '
                         f'fill="{text_fill}">{value:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
