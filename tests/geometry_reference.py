"""Per-polygon Python references for the array geometry of the mask path.

Each function is the loop the array code in ``repro.geometry`` and
``repro.litho.polygon_band`` replaced: the fragment-by-fragment
``apply_offsets``, ``Polygon``'s vertex cleanup, the band-by-band slab
generator, the slab-by-slab antialiased raster and the per-call interval
DFT.  The array code must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError, RasterError
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid


def apply_offsets(segments, offsets) -> Polygon:
    """One polygon from its CCW fragments and their offsets, vertex by
    vertex: a corner where the axis turns, a jog where it does not."""
    offs = np.asarray(offsets, dtype=np.float64)
    if len(segments) != len(offs):
        raise GeometryError(f"{len(segments)} segments but {len(offs)} offsets")
    if len(segments) < 4:
        raise GeometryError("need at least 4 fragments to rebuild a polygon")
    levels = []
    for segment, off in zip(segments, offs):
        nx, ny = segment.normal
        levels.append(segment.level + off * (ny if segment.axis == "h" else nx))
    vertices = []
    n = len(segments)
    for i in range(n):
        j = (i + 1) % n
        seg_i, seg_j = segments[i], segments[j]
        if seg_i.axis != seg_j.axis:
            if seg_i.axis == "h":
                vertices.append((levels[j], levels[i]))
            else:
                vertices.append((levels[i], levels[j]))
        elif seg_i.axis == "h":
            vertices.append((seg_i.b[0], levels[i]))
            vertices.append((seg_i.b[0], levels[j]))
        else:
            vertices.append((levels[i], seg_i.b[1]))
            vertices.append((levels[j], seg_i.b[1]))
    return Polygon(tuple(vertices))


def mask_polygons(state) -> tuple[Polygon, ...]:
    """A mask state's polygons: every target rebuilt by
    :func:`apply_offsets` from its fragments, then the SRAFs."""
    by_poly: dict[int, list[int]] = {}
    for k, segment in enumerate(state.segments):
        by_poly.setdefault(segment.poly_index, []).append(k)
    rebuilt = []
    for poly_index, target in enumerate(state.clip.targets):
        seg_ids = by_poly.get(poly_index)
        if not seg_ids:
            rebuilt.append(target)
            continue
        segs = [state.segments[k] for k in seg_ids]
        rebuilt.append(apply_offsets(segs, state.offsets[seg_ids]))
    return (*rebuilt, *state.clip.srafs)


def cleaned_vertices(vertices) -> list[tuple[float, float]]:
    """``Polygon``'s cleanup, before orientation: drop consecutive
    duplicates, then the wrap duplicate, then collinear middles judged
    against the deduplicated list; raise as ``Polygon`` does."""
    verts = [tuple(map(float, v)) for v in vertices]
    if len(verts) < 4:
        raise GeometryError(f"polygon needs >= 4 vertices, got {len(verts)}")
    dedup: list[tuple[float, float]] = []
    for vertex in verts:
        if not dedup or dedup[-1] != vertex:
            dedup.append(vertex)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    cleaned = []
    n = len(dedup)
    for i in range(n):
        prev_v, cur, nxt = dedup[(i - 1) % n], dedup[i], dedup[(i + 1) % n]
        if not (prev_v[0] == cur[0] == nxt[0] or prev_v[1] == cur[1] == nxt[1]):
            cleaned.append(cur)
    if len(cleaned) < 4:
        raise GeometryError("polygon degenerates after vertex cleanup")
    for i, a in enumerate(cleaned):
        b = cleaned[(i + 1) % len(cleaned)]
        if a[0] != b[0] and a[1] != b[1]:
            raise GeometryError(f"non-rectilinear edge {a} -> {b}")
    return cleaned


def slab_decomposition(polygon: Polygon):
    """Yield ``(x_lo, x_hi, y_lo, y_hi)`` band by band (ascending y),
    pairing the sorted x crossings of each band's midline."""
    verts = polygon.vertices
    n = len(verts)
    vertical_edges = []
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        if ax == bx:
            vertical_edges.append((ax, min(ay, by), max(ay, by)))
    if not vertical_edges:
        raise RasterError("polygon has no vertical edges")
    y_cuts = sorted({v[1] for v in verts})
    for y_lo, y_hi in zip(y_cuts, y_cuts[1:]):
        y_mid = (y_lo + y_hi) / 2
        crossings = sorted(
            ex for ex, ey0, ey1 in vertical_edges if ey0 <= y_mid < ey1
        )
        for k in range(0, len(crossings) - 1, 2):
            yield (crossings[k], crossings[k + 1], y_lo, y_hi)


def slabs(polygons) -> np.ndarray:
    """``(S, 4)`` slabs of a polygon collection, polygon by polygon."""
    return np.array(
        [slab for polygon in polygons for slab in slab_decomposition(polygon)],
        dtype=np.float64,
    ).reshape(-1, 4)


def rasterize(polygons, grid: Grid, antialias: bool = True) -> np.ndarray:
    """Antialiased raster, one slab's coverage outer product at a time."""
    image = np.zeros(grid.shape, dtype=np.float64)
    px = grid.pixel_nm
    for polygon in polygons:
        for x_lo, x_hi, y_lo, y_hi in slab_decomposition(polygon):
            x_lo = max(x_lo, grid.x0)
            y_lo = max(y_lo, grid.y0)
            x_hi = min(x_hi, grid.x0 + grid.cols * px)
            y_hi = min(y_hi, grid.y0 + grid.rows * px)
            if x_lo >= x_hi or y_lo >= y_hi:
                continue
            col_lo = int((x_lo - grid.x0) // px)
            col_hi = int(np.ceil((x_hi - grid.x0) / px))
            row_lo = int((y_lo - grid.y0) // px)
            row_hi = int(np.ceil((y_hi - grid.y0) / px))
            col_starts = grid.x0 + np.arange(col_lo, col_hi) * px
            row_starts = grid.y0 + np.arange(row_lo, row_hi) * px
            wx = (np.minimum(col_starts + px, x_hi) - np.maximum(col_starts, x_lo)) / px
            wy = (np.minimum(row_starts + px, y_hi) - np.maximum(row_starts, y_lo)) / px
            image[row_lo:row_hi, col_lo:col_hi] += np.outer(wy, wx)
    np.clip(image, 0.0, 1.0, out=image)
    if not antialias:
        return (image >= 0.5).astype(np.uint8)
    return image


def interval_coverage_dft(lo, hi, n_pixels, freqs) -> np.ndarray:
    """The closed-form coverage DFT with the roots of unity rebuilt per
    call and each term added only to the rows it applies to."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.int64) % n_pixels
    roots = np.exp((-2j * np.pi / n_pixels) * np.arange(n_pixels))
    first = np.floor(lo).astype(np.int64)
    last = np.ceil(hi).astype(np.int64) - 1
    z_first = roots[np.outer(first, freqs) % n_pixels]
    z_last = roots[np.outer(last, freqs) % n_pixels]
    single = first == last
    head = np.where(single, hi - lo, first + 1 - lo)
    out = head[:, None] * z_first
    multi = ~single
    if np.any(multi):
        out[multi] += (hi - last)[multi, None] * z_last[multi]
    interior = last - first - 1
    inner = interior > 0
    if np.any(inner):
        dc = freqs == 0
        denom = 1.0 - roots[freqs]
        denom[dc] = 1.0
        z_next = roots[np.outer(first[inner] + 1, freqs) % n_pixels]
        geo = (z_next - z_last[inner]) / denom
        geo[:, dc] = interior[inner, None].astype(np.float64)
        out[inner] += geo
    return out


def band_coeffs(polygon_sets, grid: Grid, band) -> np.ndarray:
    """Hermitian-half band coefficients: each mask's window-clipped
    slabs, their per-axis DFTs, and one GEMM per mask."""
    b1 = band.band[1]
    coeffs = np.zeros(
        (len(polygon_sets), len(band.rows_src), b1 + 1), dtype=np.complex128
    )
    x_max = grid.cols * grid.pixel_nm
    y_max = grid.rows * grid.pixel_nm
    for index, polygons in enumerate(polygon_sets):
        rows = [
            (max(x_lo - grid.x0, 0.0), min(x_hi - grid.x0, x_max),
             max(y_lo - grid.y0, 0.0), min(y_hi - grid.y0, y_max))
            for x_lo, x_hi, y_lo, y_hi in slabs(polygons)
        ]
        bounds = np.array(rows, dtype=np.float64).reshape(-1, 4)
        bounds = bounds[(bounds[:, 0] < bounds[:, 1]) & (bounds[:, 2] < bounds[:, 3])]
        if not len(bounds):
            continue
        x_lo, x_hi, y_lo, y_hi = (bounds / grid.pixel_nm).T
        row_dft = interval_coverage_dft(y_lo, y_hi, grid.rows, band.rows_src)
        col_dft = interval_coverage_dft(x_lo, x_hi, grid.cols, np.arange(b1 + 1))
        coeffs[index] = row_dft.T @ col_dft
    return coeffs
