//! Lorenzo prediction over 1-D/2-D/3-D row-major grids.
//!
//! Each point is predicted from its already-processed neighbors
//! (the *reconstructed* values, so encoder and decoder stay in
//! lockstep and the error bound holds end-to-end). Out-of-grid
//! neighbors contribute zero, the classic Lorenzo convention.
//!
//! [`Lorenzo::predict`] is the per-point form the reference codecs use;
//! the fast codecs share one row walker that evaluates the same
//! expression along the grid with a shorter serial chain.

use crate::config::Dims;

/// Strides for up to 3 dimensions, slowest first.
#[derive(Debug, Clone, Copy)]
pub struct Strides {
    /// Number of dimensions in use.
    pub ndims: usize,
    /// Extents, slowest-varying first (padded with 1).
    pub ext: [usize; 3],
    /// Linear strides matching `ext`.
    pub stride: [usize; 3],
}

impl Strides {
    /// Compute strides for a row-major layout of `dims`.
    pub fn new(dims: &Dims) -> Self {
        let e = dims.extents();
        let mut ext = [1usize; 3];
        // Right-align extents so ext[2] is always the fastest axis.
        let off = 3 - e.len();
        for (i, &d) in e.iter().enumerate() {
            ext[off + i] = d;
        }
        let stride = [ext[1] * ext[2], ext[2], 1];
        Strides {
            ndims: e.len(),
            ext,
            stride,
        }
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.ext[0] * self.ext[1] * self.ext[2]
    }

    /// True if the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lorenzo predictor of the appropriate order for the grid.
///
/// For 3-D:
/// `p = f(z-1) + f(y-1) + f(x-1) − f(z-1,y-1) − f(z-1,x-1) − f(y-1,x-1) + f(z-1,y-1,x-1)`
/// with lower-dimensional degenerations on the boundary planes.
#[derive(Debug, Clone, Copy)]
pub struct Lorenzo {
    s: Strides,
}

impl Lorenzo {
    /// Build a predictor for the grid.
    pub fn new(dims: &Dims) -> Self {
        Lorenzo {
            s: Strides::new(dims),
        }
    }

    /// Grid strides.
    pub fn strides(&self) -> &Strides {
        &self.s
    }

    /// Predict point `(z, y, x)` (right-aligned coordinates: for 1-D
    /// data use `(0, 0, x)`) from the reconstruction buffer `recon`,
    /// which must hold valid values for all previously visited points
    /// in raster order.
    #[inline]
    pub fn predict(&self, recon: &[f64], z: usize, y: usize, x: usize) -> f64 {
        let st = &self.s;
        let idx = z * st.stride[0] + y * st.stride[1] + x;
        let gx = x > 0;
        let gy = y > 0;
        let gz = z > 0;
        let mut p = 0.0f64;
        if gx {
            p += recon[idx - 1];
        }
        if gy {
            p += recon[idx - st.stride[1]];
        }
        if gz {
            p += recon[idx - st.stride[0]];
        }
        if gx && gy {
            p -= recon[idx - st.stride[1] - 1];
        }
        if gx && gz {
            p -= recon[idx - st.stride[0] - 1];
        }
        if gy && gz {
            p -= recon[idx - st.stride[0] - st.stride[1]];
        }
        if gx && gy && gz {
            p += recon[idx - st.stride[0] - st.stride[1] - 1];
        }
        p
    }
}

/// The 3-D Lorenzo stencil in the one fixed evaluation order both
/// directions of the codec (and [`Lorenzo::predict`]) use:
/// `+x +y +z −xy −xz −yz +xyz`, accumulated from `+0.0`.
///
/// `cx`, `pyx`, `pzx`, `pzyx` are the `x-1` neighbours in the current,
/// `y-1`, `z-1` and `(z-1, y-1)` rows; `ry`, `rz`, `rzy` the same-`x`
/// neighbours. An absent neighbour is passed as `+0.0`: the accumulator
/// starts at `+0.0` and round-to-nearest only yields `-0.0` from two
/// negative zeros, so it is never `-0.0` and adding or subtracting
/// `+0.0` leaves it unchanged — the result is bit-identical to the
/// branchy boundary form of [`Lorenzo::predict`].
#[inline(always)]
fn stencil(cx: f64, ry: f64, rz: f64, pyx: f64, pzx: f64, rzy: f64, pzyx: f64) -> f64 {
    ((((((0.0 + cx) + ry) + rz) - pyx) - pzx) - rzy) + pzyx
}

/// One direction of the codec at a single grid point: quantize or
/// reconstruct point `i` (raster index) against its Lorenzo prediction
/// and return the reconstructed value the recurrence carries on.
///
/// [`replay`] calls `point` for every index exactly once, but not in
/// raster order (rows are interleaved in pairs), so an implementation
/// must key every side effect on `i`.
pub(crate) trait PointKernel {
    /// Process point `i` with prediction `pred`; return its
    /// reconstruction.
    fn point(&mut self, i: usize, pred: f64) -> f64;
}

/// Replay the Lorenzo recurrence over a grid, writing reconstructions
/// into `recon` (one entry per point) and handing each point's
/// prediction to `k`.
///
/// The recurrence is a serial floating-point chain through the `x-1`
/// neighbour, and its fixed evaluation order (see [`stencil`]) puts
/// that neighbour first, so every stencil add sits on the chain. Three
/// row shapes shorten it without changing a bit:
///
/// * a row none of whose neighbours lie in the grid — every row of 1-D
///   data and the first row of a grid — predicts `0.0 + cx`, the whole
///   stencil with its zero terms dropped (one add on the chain, not
///   seven);
/// * the other rows of a plane go in pairs `y`/`y+1`, with row `y+1`
///   one point behind: point `x-1` of row `y+1` needs row `y` only up
///   to `x-1`, so the two rows' chains are independent and overlap —
///   points on the same `x + y` wavefront, each evaluating the
///   textually identical expression;
/// * a plane's odd last row runs alone.
pub(crate) fn replay<K: PointKernel>(
    st: &Strides,
    recon: &mut [f64],
    zero_row: &mut Vec<f64>,
    k: &mut K,
) {
    let (nz, ny, nx) = (st.ext[0], st.ext[1], st.ext[2]);
    let plane = ny * nx;
    debug_assert_eq!(recon.len(), nz * plane);
    zero_row.clear();
    zero_row.resize(nx, 0.0);
    let zero: &[f64] = zero_row;
    zero_neighbour_row(0, &mut recon[..nx], k);
    for z in 0..nz {
        let mut y = usize::from(z == 0);
        while y < ny {
            let base = z * plane + y * nx;
            let (head, tail) = recon.split_at_mut(base);
            let py = if y > 0 { &head[base - nx..base] } else { zero };
            let (pz, pzy) = if z == 0 {
                (zero, zero)
            } else {
                let above = base - plane;
                let pzy = if y > 0 {
                    &head[above - nx..above]
                } else {
                    zero
                };
                (&head[above..above + nx], pzy)
            };
            if y + 1 < ny {
                let (cur0, rest) = tail.split_at_mut(nx);
                // Row y+1's z-1 neighbour row; its (z-1, y-1) row is
                // row y's z-1 row.
                let pz1 = if z == 0 {
                    zero
                } else {
                    &head[base - plane + nx..base - plane + 2 * nx]
                };
                row_pair(base, cur0, &mut rest[..nx], py, pz, pzy, pz1, k);
                y += 2;
            } else {
                row(base, &mut tail[..nx], py, pz, pzy, k);
                y += 1;
            }
        }
    }
}

/// A row with no in-grid neighbour: the stencil reduces to `0.0 + cx`.
#[inline(always)]
fn zero_neighbour_row<K: PointKernel>(base: usize, cur: &mut [f64], k: &mut K) {
    let mut cx = 0.0f64;
    for (x, c) in cur.iter_mut().enumerate() {
        cx = k.point(base + x, 0.0 + cx);
        *c = cx;
    }
}

/// One row under the full stencil; `py`, `pz`, `pzy` are its `y-1`,
/// `z-1` and `(z-1, y-1)` rows (all-zero outside the grid).
#[inline(always)]
fn row<K: PointKernel>(
    base: usize,
    cur: &mut [f64],
    py: &[f64],
    pz: &[f64],
    pzy: &[f64],
    k: &mut K,
) {
    let nx = cur.len();
    let (py, pz, pzy) = (&py[..nx], &pz[..nx], &pzy[..nx]);
    let (mut cx, mut pyx, mut pzx, mut pzyx) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for x in 0..nx {
        let (ry, rz, rzy) = (py[x], pz[x], pzy[x]);
        cx = k.point(base + x, stencil(cx, ry, rz, pyx, pzx, rzy, pzyx));
        cur[x] = cx;
        (pyx, pzx, pzyx) = (ry, rz, rzy);
    }
}

/// Rows `y` (`cur0`, starting at `base`) and `y+1` (`cur1`) of one
/// plane, row `y+1` lagging one point: each step evaluates point `x`
/// of row `y` and point `x-1` of row `y+1`. Row `y+1`'s `y-1`
/// neighbour is `cur0` itself (its latest value rides in a register)
/// and its `(z-1, y-1)` row is `pz0`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_pair<K: PointKernel>(
    base: usize,
    cur0: &mut [f64],
    cur1: &mut [f64],
    py0: &[f64],
    pz0: &[f64],
    pzy0: &[f64],
    pz1: &[f64],
    k: &mut K,
) {
    let nx = cur0.len();
    let (cur1, py0, pz0, pzy0, pz1) = (
        &mut cur1[..nx],
        &py0[..nx],
        &pz0[..nx],
        &pzy0[..nx],
        &pz1[..nx],
    );
    let base1 = base + nx;
    let mut cx0 = k.point(base, stencil(0.0, py0[0], pz0[0], 0.0, 0.0, pzy0[0], 0.0));
    cur0[0] = cx0;
    let (mut pyx0, mut pzx0, mut pzyx0) = (py0[0], pz0[0], pzy0[0]);
    let (mut cx1, mut pyx1, mut pzx1, mut pzyx1) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for x in 1..nx {
        let (ry0, rz0, rzy0) = (py0[x], pz0[x], pzy0[x]);
        let pred0 = stencil(cx0, ry0, rz0, pyx0, pzx0, rzy0, pzyx0);
        let (ry1, rz1, rzy1) = (cx0, pz1[x - 1], pz0[x - 1]);
        let pred1 = stencil(cx1, ry1, rz1, pyx1, pzx1, rzy1, pzyx1);
        cx0 = k.point(base + x, pred0);
        cx1 = k.point(base1 + x - 1, pred1);
        cur0[x] = cx0;
        cur1[x - 1] = cx1;
        (pyx0, pzx0, pzyx0) = (ry0, rz0, rzy0);
        (pyx1, pzx1, pzyx1) = (ry1, rz1, rzy1);
    }
    let x = nx - 1;
    let pred1 = stencil(cx1, cx0, pz1[x], pyx1, pzx1, pz0[x], pzyx1);
    cur1[x] = k.point(base1 + x, pred1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_1d() {
        let s = Strides::new(&Dims::d1(10));
        assert_eq!(s.ext, [1, 1, 10]);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn strides_3d() {
        let s = Strides::new(&Dims::d3(2, 3, 4));
        assert_eq!(s.ext, [2, 3, 4]);
        assert_eq!(s.stride, [12, 4, 1]);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn predict_origin_is_zero() {
        let p = Lorenzo::new(&Dims::d3(2, 2, 2));
        let recon = vec![5.0; 8];
        assert_eq!(p.predict(&recon, 0, 0, 0), 0.0);
    }

    #[test]
    fn predict_1d_is_previous_value() {
        let p = Lorenzo::new(&Dims::d1(4));
        let recon = vec![1.0, 2.0, 3.0, 0.0];
        assert_eq!(p.predict(&recon, 0, 0, 3), 3.0);
    }

    #[test]
    fn linear_field_is_predicted_exactly_in_interior() {
        // f(z,y,x) = 2z + 3y + 5x is affine, so the 3-D Lorenzo stencil
        // reproduces it exactly away from the boundary.
        let dims = Dims::d3(4, 4, 4);
        let p = Lorenzo::new(&dims);
        let mut recon = vec![0.0f64; 64];
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    recon[z * 16 + y * 4 + x] = 2.0 * z as f64 + 3.0 * y as f64 + 5.0 * x as f64;
                }
            }
        }
        for z in 1..4 {
            for y in 1..4 {
                for x in 1..4 {
                    let pred = p.predict(&recon, z, y, x);
                    let truth = recon[z * 16 + y * 4 + x];
                    assert!(
                        (pred - truth).abs() < 1e-12,
                        "({z},{y},{x}): {pred} vs {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_field_interior_exact_2d() {
        let dims = Dims::d2(5, 5);
        let p = Lorenzo::new(&dims);
        let recon = vec![7.5f64; 25];
        // interior of a constant field: pred = c + c - c = c
        assert!((p.predict(&recon, 0, 2, 3) - 7.5).abs() < 1e-12);
    }
}
