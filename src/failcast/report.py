"""Report bundle: JSON payload, text summary, weight table and SVG charts.

Each run under ``runs`` is what ``evaluate.evaluate_cv`` returns.  All
artifacts have fixed formatting and no timestamps, so identical inputs give
byte-identical files, and ``render`` re-creates the rest from report.json alone.
"""

from __future__ import annotations

import json
import os

from . import __version__

try:  # the interpreter's own SHA-256, which hashlib falls back on; OpenSSL only without one
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

REPORT_JSON = "report.json"
SUMMARY_TXT = "summary.txt"

_CLASS_NAMES = ("no-failure", "failure")
_BAR_POS = "#1f77b4"
_BAR_NEG = "#d62728"


def dataset_digest(digest) -> str:
    """The dataset digest: ``sha256:`` and the hex digest of ``digest``, a
    ``sha256()`` that ``ingest.load_bundle`` fed the inputs as it read them."""
    return "sha256:" + digest.hexdigest()


def write_json(path, payload: dict):
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path):
    """The JSON value in ``path``; ValueError names a file that is not JSON
    or nests too deep to parse."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_bundle(out_dir, payload: dict):
    """Write report.json plus every rendered artifact."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, REPORT_JSON), payload)
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
        with open(os.path.join(out_dir, name), "w", newline="\n") as handle:
            handle.write(text)


def load_bundle_payload(bundle_dir) -> dict:
    return read_json(os.path.join(bundle_dir, REPORT_JSON))


def _class_rows(matrix, spec):
    """One line per true class, its two cells formatted with ``spec``."""
    return [f"  {'true ' + name:16s}{matrix[t][0]:>16{spec}}{matrix[t][1]:>16{spec}}"
            for t, name in enumerate(_CLASS_NAMES)]


def _matrix_block(counts, normalized):
    header = f"{'':16s}{'pred ' + _CLASS_NAMES[0]:>16s}{'pred ' + _CLASS_NAMES[1]:>16s}"
    return [header, *_class_rows(counts, "d"), "  normalized:",
            *_class_rows(normalized, ".6f")]


def _summary_text(payload) -> str:
    config = payload.get("config", {})
    lines = [f"failcast {payload.get('version', '?')} evaluation report",
             "=" * 48,
             f"command:         {payload.get('command', '?')}",
             f"dataset digest:  {payload.get('dataset_digest', '?')}",
             f"label semantics: {payload.get('label_semantics', '?')}",
             "resolved config:",
             *(f"  {key} = {config[key]}" for key in sorted(config))]
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
        lines.extend(_class_rows(run["average_normalized"], ".6f"))
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
    bar_h, gap, left, plot_w, top = 16, 4, 120, 360, 32
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
    # white at 0 to a saturated blue (31, 119, 180) at 1
    return "#" + "".join(f"{int(round(255 - value * (255 - c))):02x}" for c in (31, 119, 180))


def _confusion_svg(run, title) -> str:
    matrix = run["average_normalized"]
    cell, left, top = 110, 130, 60
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
