"""Map and error-curve rendering: deterministic SVG plus a stable text grid.

Every unit gets a cell even when empty; supplementary observations (rows
classified after training without influencing it) are styled distinctly,
super-classes color the cells, and an optional categorical overlay draws a
shaded proportion bar per unit.
"""

from __future__ import annotations

from .evaluation import EvalReport
from .metric import Assignment, CodeBook

SUPERCLASS_PALETTE = (
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#dbdb8d", "#9edae5", "#d9d9d9",
)

_CELL_WIDTH, _LINE_HEIGHT = 150, 13  # map cells
_CURVE_WIDTH, _CURVE_HEIGHT = 640, 420


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities: the bytes of
    ``xml.sax.saxutils.escape``, whose import pulls in ``urllib.request``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _cell_members(assignment: Assignment, row_labels, supplementary) -> list[list[tuple[str, bool]]]:
    cells: list[list[tuple[str, bool]]] = [[] for _ in range(assignment.n_units)]
    for i, label in enumerate(row_labels):
        u = int(assignment.units[i])
        if u < 0:
            continue
        cells[u].append((label, bool(supplementary[i])))
    return cells


def render_map_text(
    codebook: CodeBook,
    assignment: Assignment,
    row_labels,
    supplementary,
    superclassing=None,
) -> str:
    """Fixed-width grid of member labels; supplementary rows carry a ``*``
    suffix and super-classes show as a ``[k]`` tag line.  Output is a pure
    function of the inputs (golden-file stable)."""
    topo = codebook.topology
    cells = _cell_members(assignment, row_labels, supplementary)
    content: list[list[str]] = []
    for u in range(topo.n_units):
        lines = []
        if superclassing is not None:
            lines.append(f"[{int(superclassing.labels[u])}]")
        lines.extend(label + ("*" if supp else "") for label, supp in cells[u])
        content.append(lines)
    widths = [3] * topo.cols
    for u, lines in enumerate(content):
        _, c = topo.unit_coords(u)
        for line in lines:
            widths[c] = max(widths[c], len(line))
    border = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = [border]
    for r in range(topo.rows):
        row_cells = [content[topo.unit_index(r, c)] for c in range(topo.cols)]
        height = max(1, max(len(lines) for lines in row_cells))
        for line_i in range(height):
            parts = []
            for c in range(topo.cols):
                text = row_cells[c][line_i] if line_i < len(row_cells[c]) else ""
                parts.append(" " + text.ljust(widths[c]) + " ")
            out.append("|" + "|".join(parts) + "|")
        out.append(border)
    return "\n".join(out) + "\n"


def render_map_svg(
    codebook: CodeBook,
    assignment: Assignment,
    row_labels,
    supplementary,
    superclassing=None,
    modality_table=None,
) -> str:
    """SVG analogue of the text grid with super-class fills and an optional
    grayscale modality bar at the bottom of each cell."""
    topo = codebook.topology
    cells = _cell_members(assignment, row_labels, supplementary)
    max_lines = max(1, max(len(c) for c in cells))
    bar_h = 10 if modality_table is not None else 0
    cell_h = 8 + max_lines * _LINE_HEIGHT + bar_h + 4
    width = topo.cols * _CELL_WIDTH
    height = topo.rows * cell_h
    modalities: list[str] = []
    if modality_table is not None:
        modalities = sorted({m for table in modality_table.values() for m in table})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text { font-family: monospace; font-size: 11px; } '
        ".supp { font-style: italic; fill: #444444; }</style>",
    ]
    for u in range(topo.n_units):
        r, c = topo.unit_coords(u)
        x, y = c * _CELL_WIDTH, r * cell_h
        fill = "#ffffff"
        if superclassing is not None:
            fill = SUPERCLASS_PALETTE[int(superclassing.labels[u]) % len(SUPERCLASS_PALETTE)]
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_CELL_WIDTH}" height="{cell_h}" '
            f'fill="{fill}" stroke="#333333"/>'
        )
        for line_i, (label, supp) in enumerate(cells[u]):
            cls = ' class="supp"' if supp else ""
            text = _escape(label + ("*" if supp else ""))
            parts.append(
                f'<text x="{x + 4}" y="{y + 14 + line_i * _LINE_HEIGHT}"{cls}>{text}</text>'
            )
        if modality_table is not None and modalities:
            table = modality_table.get(u, {})
            bx = x + 4.0
            by = y + cell_h - bar_h - 2
            avail = _CELL_WIDTH - 8.0
            for mi, m in enumerate(modalities):
                frac = table.get(m, 0.0)
                if frac <= 0.0:
                    continue
                w = frac * avail
                shade = 230 - int(round(180 * mi / max(1, len(modalities) - 1)))
                parts.append(
                    f'<rect x="{bx:.2f}" y="{by}" width="{w:.2f}" height="{bar_h}" '
                    f'fill="rgb({shade},{shade},{shade})" stroke="none"/>'
                )
                bx += w
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_curve_svg(report: EvalReport) -> str:
    """Line chart of imputation RMSE versus deletions per row, with the
    column-mean baseline dashed for scale."""
    ml, mr, mt, mb = 55, 15, 15, 45
    plot_w = _CURVE_WIDTH - ml - mr
    plot_h = _CURVE_HEIGHT - mt - mb
    ds = list(report.d_values)
    som = [report.rmse_som[d] for d in ds]
    base = [report.rmse_mean_baseline[d] for d in ds]
    y_max = max(max(som), max(base)) * 1.1 or 1.0
    x_min, x_max = min(ds), max(ds)
    x_span = max(1, x_max - x_min)

    def xpos(d):
        return ml + (d - x_min) / x_span * plot_w

    def ypos(v):
        return mt + plot_h - v / y_max * plot_h

    def polyline(vals, color, dash=""):
        pts = " ".join(f"{xpos(d):.2f},{ypos(v):.2f}" for d, v in zip(ds, vals))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"{extra}/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CURVE_WIDTH}" height="{_CURVE_HEIGHT}" '
        f'viewBox="0 0 {_CURVE_WIDTH} {_CURVE_HEIGHT}">',
        '<style>text { font-family: monospace; font-size: 12px; }</style>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#333333"/>',
    ]
    for d in ds:
        parts.append(
            f'<line x1="{xpos(d):.2f}" y1="{mt + plot_h}" x2="{xpos(d):.2f}" '
            f'y2="{mt + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{xpos(d):.2f}" y="{mt + plot_h + 20}" text-anchor="middle">{d}</text>'
        )
    n_ticks = 5
    for t in range(n_ticks + 1):
        v = y_max * t / n_ticks
        parts.append(
            f'<line x1="{ml - 5}" y1="{ypos(v):.2f}" x2="{ml}" y2="{ypos(v):.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{ypos(v) + 4:.2f}" text-anchor="end">{v:.2f}</text>'
        )
    parts.append(polyline(som, "#1f5fbf"))
    parts.append(polyline(base, "#888888", dash="6,4"))
    for d, v in zip(ds, som):
        parts.append(f'<circle cx="{xpos(d):.2f}" cy="{ypos(v):.2f}" r="3" fill="#1f5fbf"/>')
    parts.append(
        f'<text x="{ml + 10}" y="{mt + 16}" fill="#1f5fbf">codebook imputation</text>'
    )
    parts.append(
        f'<text x="{ml + 10}" y="{mt + 32}" fill="#888888">column-mean baseline</text>'
    )
    parts.append(
        f'<text x="{ml + plot_w / 2:.0f}" y="{_CURVE_HEIGHT - 8}" text-anchor="middle">'
        "values deleted per row</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
