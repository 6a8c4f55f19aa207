"""Minimal SVG rendering for evaluation reports.

Pure string assembly, no drawing libraries: charts stay reproducible
byte for byte and render anywhere.
"""

from .errors import DataError
from .report import EvalReport

__all__ = ["reliability_chart", "group_chart"]

_WIDTH = 520
_HEIGHT = 420
_MARGIN = 56


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{_escape(title)}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN, _MARGIN
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{_escape(y_label)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        px = x0 + frac * (x1 - x0)
        py = y0 - frac * (y0 - y1)
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 16}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="10">{frac:g}</text>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 3:.1f}" text-anchor="end" font-family="sans-serif" '
            f'font-size="10">{frac:g}</text>'
        )
    return parts


def _identity_line() -> str:
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN, _MARGIN
    return (
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#888888" '
        f'stroke-width="1" stroke-dasharray="5,4"/>'
    )


def reliability_chart(report: EvalReport, title: str = "Reliability") -> str:
    """Accuracy bars per confidence bin; occupancy shows as opacity."""
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN
    m = report.grid_m
    if m < 1:
        raise DataError("report has no bin grid")
    parts = _header(title)
    parts.extend(_axes("confidence", "accuracy"))
    max_count = max((row[1] for row in report.reliability), default=0)
    bar_w = span_x / m
    for bin_index, count, _conf, acc in report.reliability:
        if count == 0:
            continue
        opacity = 0.15 + 0.85 * (count / max_count)
        left = x0 + (bin_index - 1) * bar_w
        height = acc * span_y
        parts.append(
            f'<rect class="bar" x="{left + 1:.2f}" y="{y0 - height:.2f}" '
            f'width="{bar_w - 2:.2f}" height="{height:.2f}" fill="#4878a8" '
            f'opacity="{opacity:.3f}"/>'
        )
    parts.append(_identity_line())
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def group_chart(report: EvalReport, title: str = "Groups") -> str:
    """Mean confidence vs accuracy, one labeled point per group."""
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN
    parts = _header(title)
    parts.extend(_axes("mean confidence", "accuracy"))
    parts.append(_identity_line())
    for name in sorted(report.group_summary):
        stats = report.group_summary[name]
        if stats.get("degenerate"):
            continue
        px = x0 + stats["mean_conf"] * span_x
        py = y0 - stats["accuracy"] * span_y
        parts.append(
            f'<circle class="pt" cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#a85048" '
            f'opacity="0.8"/>'
        )
        parts.append(
            f'<text x="{px + 6:.2f}" y="{py - 5:.2f}" font-family="sans-serif" '
            f'font-size="10">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
