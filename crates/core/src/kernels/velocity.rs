//! The update-velocities loop: interpolate E at each particle (CIC) and kick.
//!
//! Redundant-layout variants read one contiguous `[f64; 8]` block per
//! particle; standard-layout variants gather from four scattered grid
//! points. The hoisted variants assume the stored field already carries the
//! `q·Δt/m` (and grid-unit) factors, so the loop body is pure
//! interpolate-and-add — the shape the paper reports for its optimized code.
//!
//! The redundant kicks return `(Σvx², Σvy²)` of the velocities they just
//! wrote, so the kinetic-energy diagnostic needs no pass of its own. Every
//! such sum — scalar kick, lane kick, and the standalone
//! [`square_sums`] pass — uses one reduction order ([`SquareSums`]), so the
//! kernel path never changes a diagnostic bit.

// SoA kernels take one slice per particle field by design; bundling them
// into a struct would obscure the loop shapes the paper compares.
#![allow(clippy::too_many_arguments)]

use super::simd::LANES;
use crate::fields::Field2D;

/// Per-lane accumulators of `(Σvx², Σvy²)`, and with them the one reduction
/// order of every kinetic-energy sum: element `i` of the lane-blocked
/// prefix (`n − n mod LANES` elements) goes to lane `i mod LANES`, the lanes
/// are summed pairwise, then the tail is added in order.
#[derive(Debug, Clone, Copy)]
pub struct SquareSums {
    x: [f64; LANES],
    y: [f64; LANES],
}

impl SquareSums {
    /// All lanes zero.
    pub const ZERO: Self = Self {
        x: [0.0; LANES],
        y: [0.0; LANES],
    };

    /// Accumulate one particle's squared velocity into `lane`.
    #[inline(always)]
    pub fn add(&mut self, lane: usize, vx: f64, vy: f64) {
        self.x[lane] += vx * vx;
        self.y[lane] += vy * vy;
    }

    /// Sum the lanes pairwise, then add the tail's squares in order.
    pub fn finish(&self, tail: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
        fn pairwise(a: &[f64; LANES]) -> f64 {
            ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
        }
        let (mut sx, mut sy) = (pairwise(&self.x), pairwise(&self.y));
        for (vx, vy) in tail {
            sx += vx * vx;
            sy += vy * vy;
        }
        (sx, sy)
    }

    /// [`finish`](Self::finish) with the tail read from SoA slices.
    #[inline]
    pub fn finish_slices(&self, vx: &[f64], vy: &[f64]) -> (f64, f64) {
        self.finish(vx.iter().copied().zip(vy.iter().copied()))
    }
}

/// `(Σvx², Σvy²)` over `n` particles whose velocities `v(i)` yields, in the
/// [`SquareSums`] order — bit-identical to the sums the redundant kicks
/// return for the same velocities.
pub fn square_sums(n: usize, v: impl Fn(usize) -> (f64, f64)) -> (f64, f64) {
    let main = n - n % LANES;
    let mut acc = SquareSums::ZERO;
    for i in 0..main {
        let (vx, vy) = v(i);
        acc.add(i % LANES, vx, vy);
    }
    acc.finish((main..n).map(v))
}

/// Kick from the redundant field: `v += coeff · E_CIC(particle)`. Returns
/// `(Σvx², Σvy²)` of the kicked velocities ([`SquareSums`] order).
///
/// # Panics
/// Panics if the slice lengths disagree.
pub fn update_velocities_redundant(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    e8: &[[f64; 8]],
    coeff_x: f64,
    coeff_y: f64,
) -> (f64, f64) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    let main = n - n % LANES;
    let mut sq = SquareSums::ZERO;
    for i in 0..n {
        let e = &e8[icell[i] as usize];
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        let ex = w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        let ey = w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];
        vx[i] += coeff_x * ex;
        vy[i] += coeff_y * ey;
        if i < main {
            sq.add(i % LANES, vx[i], vy[i]);
        }
    }
    sq.finish_slices(&vx[main..], &vy[main..])
}

/// Hoisted kick: the field is pre-scaled, no per-particle coefficient.
/// Returns `(Σvx², Σvy²)` of the kicked velocities ([`SquareSums`] order).
pub fn update_velocities_redundant_hoisted(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    e8: &[[f64; 8]],
) -> (f64, f64) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    let main = n - n % LANES;
    let mut sq = SquareSums::ZERO;
    for i in 0..n {
        let e = &e8[icell[i] as usize];
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        vx[i] += w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        vy[i] += w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];
        if i < main {
            sq.add(i % LANES, vx[i], vy[i]);
        }
    }
    sq.finish_slices(&vx[main..], &vy[main..])
}

/// Kick from standard grid-point storage: four scattered gathers per
/// component, with periodic neighbour wrap (grid dims are powers of two).
pub fn update_velocities_standard(
    ix: &[u32],
    iy: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    field: &Field2D,
    coeff_x: f64,
    coeff_y: f64,
) {
    let n = ix.len();
    assert!(iy.len() == n && dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    let (ncx, ncy) = (field.ncx, field.ncy);
    for i in 0..n {
        let cx = ix[i] as usize;
        let cy = iy[i] as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        let g00 = cx * ncy + cy;
        let g01 = cx * ncy + cyp;
        let g10 = cxp * ncy + cy;
        let g11 = cxp * ncy + cyp;
        let ex =
            w00 * field.ex[g00] + w01 * field.ex[g01] + w10 * field.ex[g10] + w11 * field.ex[g11];
        let ey =
            w00 * field.ey[g00] + w01 * field.ey[g01] + w10 * field.ey[g10] + w11 * field.ey[g11];
        vx[i] += coeff_x * ex;
        vy[i] += coeff_y * ey;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::RedundantE;
    use crate::grid::Grid2D;
    use sfc::{CellLayout, Morton, RowMajor};

    fn constant_field(v: f64) -> Field2D {
        let g = Grid2D::new(8, 8, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        f.ex.fill(v);
        f.ey.fill(-v);
        f
    }

    #[test]
    fn constant_field_kicks_uniformly() {
        let f = constant_field(2.0);
        let layout = RowMajor::new(8, 8).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);

        let icell = vec![layout.encode(3, 4) as u32, layout.encode(0, 0) as u32];
        let dx = vec![0.3, 0.9];
        let dy = vec![0.7, 0.1];
        let mut vx = vec![1.0, -1.0];
        let mut vy = vec![0.0, 0.0];
        update_velocities_redundant(&icell, &dx, &dy, &mut vx, &mut vy, &e8.e8, 0.5, 0.5);
        // CIC of a constant is the constant: Δvx = 0.5·2 = 1.
        assert!((vx[0] - 2.0).abs() < 1e-14);
        assert!((vx[1] - 0.0).abs() < 1e-14);
        assert!((vy[0] + 1.0).abs() < 1e-14);
    }

    #[test]
    fn redundant_matches_standard() {
        // A deterministic "random" field; both storage paths must agree.
        let g = Grid2D::new(16, 16, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for i in 0..f.ex.len() {
            f.ex[i] = ((i * 37 + 11) % 101) as f64 * 0.1;
            f.ey[i] = ((i * 53 + 29) % 97) as f64 * -0.2;
        }
        let layout = Morton::new(16, 16).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);

        let npart = 200;
        let mut icell = Vec::new();
        let mut ix = Vec::new();
        let mut iy = Vec::new();
        let mut dx = Vec::new();
        let mut dy = Vec::new();
        for i in 0..npart {
            let cx = (i * 7) % 16;
            let cy = (i * 13) % 16;
            ix.push(cx as u32);
            iy.push(cy as u32);
            icell.push(layout.encode(cx, cy) as u32);
            dx.push(((i * 31) % 100) as f64 / 100.0);
            dy.push(((i * 17) % 100) as f64 / 100.0);
        }
        let mut vx_a = vec![0.0; npart];
        let mut vy_a = vec![0.0; npart];
        let mut vx_b = vec![0.0; npart];
        let mut vy_b = vec![0.0; npart];
        update_velocities_redundant(&icell, &dx, &dy, &mut vx_a, &mut vy_a, &e8.e8, 1.5, 2.5);
        update_velocities_standard(&ix, &iy, &dx, &dy, &mut vx_b, &mut vy_b, &f, 1.5, 2.5);
        for i in 0..npart {
            assert!((vx_a[i] - vx_b[i]).abs() < 1e-13, "i={i}");
            assert!((vy_a[i] - vy_b[i]).abs() < 1e-13, "i={i}");
        }
    }

    #[test]
    fn hoisted_equals_scaled_coeff() {
        let f = constant_field(3.0);
        let layout = RowMajor::new(8, 8).unwrap();
        // Pre-scale by 0.25 in the redundant copy…
        let mut e8_scaled = RedundantE::new(&layout);
        e8_scaled.fill_from(&f, &layout, 0.25, 0.25);
        // …and compare against coeff = 0.25 on the raw copy.
        let mut e8_raw = RedundantE::new(&layout);
        e8_raw.fill_from(&f, &layout, 1.0, 1.0);

        let icell = vec![0u32; 16];
        let dx: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let dy: Vec<f64> = (0..16).map(|i| (15 - i) as f64 / 16.0).collect();
        let mut vx_a = vec![0.0; 16];
        let mut vy_a = vec![0.0; 16];
        let mut vx_b = vec![0.0; 16];
        let mut vy_b = vec![0.0; 16];
        update_velocities_redundant_hoisted(&icell, &dx, &dy, &mut vx_a, &mut vy_a, &e8_scaled.e8);
        update_velocities_redundant(
            &icell, &dx, &dy, &mut vx_b, &mut vy_b, &e8_raw.e8, 0.25, 0.25,
        );
        for i in 0..16 {
            assert!((vx_a[i] - vx_b[i]).abs() < 1e-14);
            assert!((vy_a[i] - vy_b[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn linear_field_interpolates_exactly() {
        // CIC reproduces linear fields exactly: Ex = ix + iy on an interior
        // patch; a particle at (2 + 0.25, 3 + 0.5) sees 2.25 + 3.5.
        let g = Grid2D::new(8, 8, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for ix in 0..8 {
            for iy in 0..8 {
                f.ex[ix * 8 + iy] = ix as f64 + iy as f64;
            }
        }
        let layout = RowMajor::new(8, 8).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        let icell = vec![layout.encode(2, 3) as u32];
        let (dx, dy) = (vec![0.25], vec![0.5]);
        let mut vx = vec![0.0];
        let mut vy = vec![0.0];
        update_velocities_redundant(&icell, &dx, &dy, &mut vx, &mut vy, &e8.e8, 1.0, 1.0);
        assert!((vx[0] - 5.75).abs() < 1e-14);
    }

    #[test]
    fn kicks_return_square_sums_of_written_velocities() {
        let layout = RowMajor::new(16, 16).unwrap();
        let g = Grid2D::new(16, 16, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for i in 0..f.ex.len() {
            f.ex[i] = (i % 13) as f64 - 6.0;
            f.ey[i] = (i % 7) as f64 * 0.5;
        }
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        for n in [0usize, 1, 7, 8, 9, 1001] {
            let mut p = crate::particles::ParticlesSoA::zeroed(n);
            for i in 0..n {
                p.icell[i] = (i * 37 % 256) as u32;
                p.dx[i] = (i % 10) as f64 / 10.0;
                p.dy[i] = (i % 9) as f64 / 9.0;
                p.vx[i] = (i % 5) as f64 - 2.0;
            }
            let mut q = p.clone();
            let hoisted = update_velocities_redundant_hoisted(
                &p.icell, &p.dx, &p.dy, &mut p.vx, &mut p.vy, &e8.e8,
            );
            let coeff = update_velocities_redundant(
                &q.icell, &q.dx, &q.dy, &mut q.vx, &mut q.vy, &e8.e8, 0.5, -2.0,
            );
            for (got, v) in [(hoisted, &p), (coeff, &q)] {
                let want = square_sums(n, |i| (v.vx[i], v.vy[i]));
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "n={n}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "n={n}");
                let naive: f64 = v.vx.iter().map(|x| x * x).sum();
                assert!((got.0 - naive).abs() <= 1e-13 * naive.max(1.0), "n={n}");
            }
        }
    }
}
