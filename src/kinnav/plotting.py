"""Deterministic SVG rendering of maps and trajectory logs."""


class PlotError(ValueError):
    """Trajectory log does not fit on the given map."""


_SUCCESS_COLOR = "#2a9d57"
_FAILURE_COLOR = "#d33f3f"
_SCALE = 32.0  # SVG pixels per meter


def emit_plot(grid, trajectories=(), start=None, goal=None):
    """Render the map plus trajectory polylines as an SVG document string.

    `trajectories` is a sequence of (records, success) pairs as produced by the
    episode loop; byte-identical output for identical inputs.
    """
    x0, y0, x1, y1 = grid.extent
    w = (x1 - x0) * _SCALE
    h = (y1 - y0) * _SCALE

    def sx(x):
        return (x - x0) * _SCALE

    def sy(y):
        # text row order: world y grows downward in the image
        return (y - y0) * _SCALE

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.6g}" height="{h:.6g}" '
           f'viewBox="0 0 {w:.6g} {h:.6g}">',
           f'<rect width="{w:.6g}" height="{h:.6g}" fill="#ffffff"/>']
    cs = grid.cell_size * _SCALE
    for iy in range(grid.height):
        for ix in range(grid.width):
            if grid.cells[iy, ix]:
                out.append(f'<rect x="{ix * cs:.6g}" y="{iy * cs:.6g}" '
                           f'width="{cs:.6g}" height="{cs:.6g}" fill="#333333"/>')
    for records, success in trajectories:
        if not records:
            continue
        for rec in records:
            if not grid.in_bounds(rec["x"], rec["y"]):
                raise PlotError(f"trajectory point ({rec['x']}, {rec['y']}) off the map")
        pts = " ".join(f"{sx(r['x']):.6g},{sy(r['y']):.6g}" for r in records)
        color = _SUCCESS_COLOR if success else _FAILURE_COLOR
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
    if start is not None:
        out.append(f'<circle cx="{sx(start[0]):.6g}" cy="{sy(start[1]):.6g}" r="5" '
                   f'fill="#2060c0"/>')
    if goal is not None:
        out.append(f'<circle cx="{sx(goal[0]):.6g}" cy="{sy(goal[1]):.6g}" r="5" '
                   f'fill="none" stroke="#c0a020" stroke-width="3"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
