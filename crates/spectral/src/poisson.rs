//! Spectral solver for the periodic Poisson equation of the Vlasov–Poisson
//! system:
//!
//! ```text
//! −Δφ = ρ / ε₀        E = −∇φ
//! ```
//!
//! on a uniform `nx × ny` Cartesian grid over `[0, Lx) × [0, Ly)` with
//! periodic boundary conditions and normalized units (ε₀ = 1, the standard
//! choice for the Landau test cases of the paper).
//!
//! In Fourier space `φ̂_k = ρ̂_k / |k|²` and `Ê_k = −i k φ̂_k`. The `k = 0`
//! mode of ρ (the mean charge) is projected out: a periodic system must be
//! globally neutral, and PIC codes enforce this by subtracting the uniform
//! ion background — dropping the zero mode is exactly that subtraction.
//!
//! Both field components are real, so one inverse transform recovers both:
//! the solve inverts the packed spectrum `P = Ê_x + iÊ_y = φ̂·(k_y′ − i·k_x′)`
//! and reads `E_x = Re`, `E_y = Im`. The derivative wavenumbers `k′` are the
//! signed wavenumbers with the Nyquist entry zeroed ([`PackedScale`]):
//! `Ê_x` on the `ix = nx/2` plane is anti-Hermitian, so it contributes only
//! to the imaginary part of its own inverse and a separate-inverse solve
//! discards it with `.re`. Zeroing it keeps both packed halves Hermitian, so
//! neither component leaks into the other's part.

use crate::fft::{Fft2Plan, RowExecutor};
use crate::{Complex64, SpectralError};

/// The signed angular wavenumbers of an `n`-point periodic axis of extent
/// `l`: `2π · s(i) / l` with `s(i) = i` for `i ≤ n/2` and `i − n` above —
/// the frequency convention of every solver in this crate, exposed so
/// distributed solvers scale spectral coefficients with bit-identical
/// values.
pub fn wavenumbers(n: usize, l: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let s = if i <= n / 2 {
                i as f64
            } else {
                i as f64 - n as f64
            };
            2.0 * std::f64::consts::PI * s / l
        })
        .collect()
}

/// [`wavenumbers`] with the Nyquist entry (`i = n/2`) zeroed: the
/// wavenumbers of the spectral derivative. The Nyquist mode of a real grid
/// function has no odd part, so its derivative is zero on the grid.
fn derivative_wavenumbers(n: usize, l: f64) -> Vec<f64> {
    let mut k = wavenumbers(n, l);
    k[n / 2] = 0.0;
    k
}

/// The wavenumber tables of the packed field solve and its per-mode scale
/// ([`mode`](Self::mode)). Every solve path — serial, pooled and the
/// slab-distributed one — scales each coefficient with this one expression,
/// so they stay bit-identical.
#[derive(Debug, Clone)]
pub struct PackedScale {
    /// Signed wavenumbers along x: `kx[ix] = 2π·s(ix)/Lx`.
    kx: Vec<f64>,
    /// Signed wavenumbers along y.
    ky: Vec<f64>,
    /// `kx` with the Nyquist entry zeroed.
    dkx: Vec<f64>,
    /// `ky` with the Nyquist entry zeroed.
    dky: Vec<f64>,
}

impl PackedScale {
    /// The tables of an `nx × ny` grid over `Lx × Ly`.
    pub fn new(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        Self {
            kx: wavenumbers(nx, lx),
            ky: wavenumbers(ny, ly),
            dkx: derivative_wavenumbers(nx, lx),
            dky: derivative_wavenumbers(ny, ly),
        }
    }

    /// The packed field coefficient `P = Ê_x + iÊ_y = φ̂·(k_y′ − i·k_x′)`
    /// of mode `(ix, iy)`, with `φ̂ = ρ̂/|k|²` and the zero mode projected
    /// out.
    #[inline]
    pub fn mode(&self, ix: usize, iy: usize, rho_hat: Complex64) -> Complex64 {
        let (kx, ky) = (self.kx[ix], self.ky[iy]);
        let k2 = kx * kx + ky * ky;
        if k2 == 0.0 {
            return Complex64::ZERO;
        }
        let phi_hat = rho_hat / k2;
        phi_hat * Complex64::new(self.dky[iy], -self.dkx[ix])
    }
}

/// Reusable buffers for [`PoissonSolver2D::solve_e_with`]: the spectral
/// workspaces that [`PoissonSolver2D::solve_e`] allocates on every call.
/// Own one per simulation and the per-step field solve allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct SolveScratch {
    /// ρ̂, then the packed spectrum, then `E_x + iE_y`, all in place.
    hat: Vec<Complex64>,
    colbuf: Vec<Complex64>,
    /// Transpose buffer for the pool-parallel transform passes
    /// ([`PoissonSolver2D::solve_e_pooled`]); grown lazily like the rest.
    tbuf: Vec<Complex64>,
}

impl SolveScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize, nx: usize) {
        if self.hat.len() < n {
            self.hat.resize(n, Complex64::ZERO);
        }
        if self.colbuf.len() < nx {
            self.colbuf.resize(nx, Complex64::ZERO);
        }
    }

    fn ensure_tbuf(&mut self, n: usize) {
        if self.tbuf.len() < n {
            self.tbuf.resize(n, Complex64::ZERO);
        }
    }
}

/// A reusable spectral Poisson solver for a fixed grid.
#[derive(Debug, Clone)]
pub struct PoissonSolver2D {
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
    plan: Fft2Plan,
    scale: PackedScale,
}

impl PoissonSolver2D {
    /// Create a solver for an `nx × ny` power-of-two grid over `Lx × Ly`.
    pub fn new(nx: usize, ny: usize, lx: f64, ly: f64) -> Result<Self, SpectralError> {
        if nx == 0 || ny == 0 {
            return Err(SpectralError::ZeroDimension);
        }
        if lx.is_nan() || lx <= 0.0 {
            return Err(SpectralError::BadExtent { extent: lx });
        }
        if ly.is_nan() || ly <= 0.0 {
            return Err(SpectralError::BadExtent { extent: ly });
        }
        let plan = Fft2Plan::new(nx, ny)?;
        Ok(Self {
            nx,
            ny,
            lx,
            ly,
            plan,
            scale: PackedScale::new(nx, ny, lx, ly),
        })
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Physical extent along x.
    pub fn lx(&self) -> f64 {
        self.lx
    }

    /// Physical extent along y.
    pub fn ly(&self) -> f64 {
        self.ly
    }

    /// Signed wavenumbers along x (`kx[ix] = 2π·s(ix)/Lx`).
    pub fn kx(&self) -> &[f64] {
        &self.scale.kx
    }

    /// Signed wavenumbers along y.
    pub fn ky(&self) -> &[f64] {
        &self.scale.ky
    }

    /// Solve for the potential: given `rho` (row-major, `rho[ix*ny + iy]`),
    /// write φ into `phi`. The mean of φ is zero.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_phi(&self, rho: &[f64], phi: &mut [f64]) {
        let n = self.nx * self.ny;
        assert_eq!(rho.len(), n);
        assert_eq!(phi.len(), n);
        let mut hat: Vec<Complex64> = rho.iter().map(|&r| Complex64::from_re(r)).collect();
        self.plan.forward(&mut hat);
        for (row, &kx) in hat.chunks_exact_mut(self.ny).zip(self.kx()) {
            for (h, &ky) in row.iter_mut().zip(self.ky()) {
                let k2 = kx * kx + ky * ky;
                *h = if k2 == 0.0 { Complex64::ZERO } else { *h / k2 };
            }
        }
        self.plan.inverse(&mut hat);
        for (p, h) in phi.iter_mut().zip(&hat) {
            *p = h.re;
        }
    }

    /// Solve directly for the electric field `E = −∇φ` with `−Δφ = ρ`.
    ///
    /// One forward transform and one inverse of the packed spectrum
    /// `Ê_x + iÊ_y` (see the module docs); `Ê = −ik ρ̂ / |k|²`.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_e(&self, rho: &[f64], ex: &mut [f64], ey: &mut [f64]) {
        let mut scratch = SolveScratch::new();
        self.solve_e_with(rho, ex, ey, &mut scratch);
    }

    /// [`solve_e`](Self::solve_e) with caller-owned spectral workspaces:
    /// allocation-free once `scratch` has grown to the grid size.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_e_with(
        &self,
        rho: &[f64],
        ex: &mut [f64],
        ey: &mut [f64],
        scratch: &mut SolveScratch,
    ) {
        let n = self.nx * self.ny;
        assert_eq!(rho.len(), n);
        assert_eq!(ex.len(), n);
        assert_eq!(ey.len(), n);
        scratch.ensure(n, self.nx);
        let hat = &mut scratch.hat[..n];
        let colbuf = &mut scratch.colbuf[..self.nx];
        for (h, &r) in hat.iter_mut().zip(rho) {
            *h = Complex64::from_re(r);
        }
        self.plan.forward_with(hat, colbuf);
        self.scale_spectral(hat);
        self.plan.inverse_with(hat, colbuf);
        unpack(hat, ex, ey);
    }

    /// [`solve_e_with`](Self::solve_e_with) with the transform passes run
    /// on `exec` (a thread pool in the simulation hot path): row batches
    /// striped across workers, column passes on contiguous rows of a tiled
    /// transpose. Bit-exact with the sequential path — every 1-D transform
    /// and every spectral scale performs the identical operation sequence —
    /// and allocation-free once `scratch` has grown to the grid size.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_e_pooled(
        &self,
        rho: &[f64],
        ex: &mut [f64],
        ey: &mut [f64],
        scratch: &mut SolveScratch,
        exec: &dyn RowExecutor,
    ) {
        let n = self.nx * self.ny;
        assert_eq!(rho.len(), n);
        assert_eq!(ex.len(), n);
        assert_eq!(ey.len(), n);
        scratch.ensure(n, self.nx);
        scratch.ensure_tbuf(n);
        let hat = &mut scratch.hat[..n];
        let tbuf = &mut scratch.tbuf[..n];
        for (h, &r) in hat.iter_mut().zip(rho) {
            *h = Complex64::from_re(r);
        }
        self.plan.forward_par(hat, tbuf, exec);
        self.scale_spectral(hat);
        self.plan.inverse_par(hat, tbuf, exec);
        unpack(hat, ex, ey);
    }

    /// ρ̂ → packed `Ê_x + iÊ_y`, in place ([`PackedScale::mode`]).
    fn scale_spectral(&self, hat: &mut [Complex64]) {
        for (ix, row) in hat.chunks_exact_mut(self.ny).enumerate() {
            for (iy, h) in row.iter_mut().enumerate() {
                *h = self.scale.mode(ix, iy, *h);
            }
        }
    }

    /// The electrostatic field energy `½ ∫ |E|² dx dy` approximated on the
    /// grid — the diagnostic the paper's Landau-damping validation tracks.
    pub fn field_energy(&self, ex: &[f64], ey: &[f64]) -> f64 {
        let cell = (self.lx / self.nx as f64) * (self.ly / self.ny as f64);
        0.5 * cell * ex.iter().zip(ey).map(|(&x, &y)| x * x + y * y).sum::<f64>()
    }
}

/// Split the inverted packed spectrum into `E_x = Re`, `E_y = Im`.
fn unpack(e: &[Complex64], ex: &mut [f64], ey: &mut [f64]) {
    for ((z, x), y) in e.iter().zip(ex).zip(ey) {
        *x = z.re;
        *y = z.im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn grid_fn(nx: usize, ny: usize, lx: f64, ly: f64, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let (dx, dy) = (lx / nx as f64, ly / ny as f64);
        (0..nx * ny)
            .map(|i| {
                let (ix, iy) = (i / ny, i % ny);
                f(ix as f64 * dx, iy as f64 * dy)
            })
            .collect()
    }

    #[test]
    fn single_mode_phi() {
        // ρ = cos(x) on [0,2π)² ⇒ φ = cos(x) (since −Δcos = cos).
        let n = 64;
        let s = PoissonSolver2D::new(n, n, 2.0 * PI, 2.0 * PI).unwrap();
        let rho = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.cos());
        let mut phi = vec![0.0; n * n];
        s.solve_phi(&rho, &mut phi);
        let expect = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.cos());
        for i in 0..n * n {
            assert!((phi[i] - expect[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn single_mode_field() {
        // ρ = cos(x) ⇒ E_x = −∂φ/∂x = sin(x), E_y = 0.
        let n = 64;
        let s = PoissonSolver2D::new(n, n, 2.0 * PI, 2.0 * PI).unwrap();
        let rho = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.cos());
        let (mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n]);
        s.solve_e(&rho, &mut ex, &mut ey);
        let expect = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.sin());
        for i in 0..n * n {
            assert!((ex[i] - expect[i]).abs() < 1e-10, "i={i}");
            assert!(ey[i].abs() < 1e-10);
        }
    }

    #[test]
    fn mixed_mode_manufactured() {
        // φ = sin(2x)cos(3y) on [0,2π)² ⇒ ρ = −Δφ = 13 φ, E = −∇φ.
        let n = 128;
        let l = 2.0 * PI;
        let s = PoissonSolver2D::new(n, n, l, l).unwrap();
        let rho = grid_fn(n, n, l, l, |x, y| 13.0 * (2.0 * x).sin() * (3.0 * y).cos());
        let (mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n]);
        s.solve_e(&rho, &mut ex, &mut ey);
        let eex = grid_fn(n, n, l, l, |x, y| -2.0 * (2.0 * x).cos() * (3.0 * y).cos());
        let eey = grid_fn(n, n, l, l, |x, y| 3.0 * (2.0 * x).sin() * (3.0 * y).sin());
        for i in 0..n * n {
            assert!((ex[i] - eex[i]).abs() < 1e-9, "ex i={i}");
            assert!((ey[i] - eey[i]).abs() < 1e-9, "ey i={i}");
        }
    }

    #[test]
    fn non_square_domain() {
        // Landau grids use L = 2π/k with k = 0.5 ⇒ L = 4π; check a 4π × 2π box.
        let (nx, ny) = (64, 32);
        let (lx, ly) = (4.0 * PI, 2.0 * PI);
        let s = PoissonSolver2D::new(nx, ny, lx, ly).unwrap();
        // ρ = cos(kx·x) with kx = 2π/Lx = 0.5 ⇒ φ = ρ/kx², E_x = sin(kx x)/kx.
        let kx = 2.0 * PI / lx;
        let rho = grid_fn(nx, ny, lx, ly, |x, _| (kx * x).cos());
        let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
        s.solve_e(&rho, &mut ex, &mut ey);
        let expect = grid_fn(nx, ny, lx, ly, |x, _| (kx * x).sin() / kx);
        for i in 0..nx * ny {
            assert!((ex[i] - expect[i]).abs() < 1e-10, "i={i}");
            assert!(ey[i].abs() < 1e-10);
        }
    }

    #[test]
    fn zero_mode_projected_out() {
        // A uniform ρ produces no field (neutralizing background).
        let n = 16;
        let s = PoissonSolver2D::new(n, n, 1.0, 1.0).unwrap();
        let rho = vec![3.7; n * n];
        let (mut ex, mut ey) = (vec![1.0; n * n], vec![1.0; n * n]);
        s.solve_e(&rho, &mut ex, &mut ey);
        assert!(ex.iter().chain(&ey).all(|&v| v.abs() < 1e-12));
        let mut phi = vec![0.0; n * n];
        s.solve_phi(&rho, &mut phi);
        assert!(phi.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn phi_has_zero_mean() {
        let n = 32;
        let s = PoissonSolver2D::new(n, n, 2.0 * PI, 2.0 * PI).unwrap();
        let rho = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, y| {
            (x).cos() + 0.3 * (2.0 * y).sin() + 5.0
        });
        let mut phi = vec![0.0; n * n];
        s.solve_phi(&rho, &mut phi);
        let mean: f64 = phi.iter().sum::<f64>() / (n * n) as f64;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn field_energy_of_plane_wave() {
        // E_x = sin(x), E_y = 0 on [0,2π)²: ½∫sin² = ½·(2π)²/2 = π².
        let n = 64;
        let l = 2.0 * PI;
        let s = PoissonSolver2D::new(n, n, l, l).unwrap();
        let ex = grid_fn(n, n, l, l, |x, _| x.sin());
        let ey = vec![0.0; n * n];
        let e = s.field_energy(&ex, &ey);
        assert!((e - PI * PI).abs() < 1e-8, "energy {e}");
    }

    #[test]
    fn pooled_solve_bit_exact_with_sequential() {
        use crate::fft::SerialExec;
        for (nx, ny) in [(16usize, 16usize), (32, 16), (8, 64)] {
            let s = PoissonSolver2D::new(nx, ny, 2.0 * PI, 4.0 * PI).unwrap();
            let rho = grid_fn(nx, ny, 2.0 * PI, 4.0 * PI, |x, y| {
                (x).cos() * (0.5 * y).sin() + 0.25 * (2.0 * x).sin()
            });
            let n = nx * ny;
            let (mut ex_s, mut ey_s) = (vec![0.0; n], vec![0.0; n]);
            let mut scratch = SolveScratch::new();
            s.solve_e_with(&rho, &mut ex_s, &mut ey_s, &mut scratch);
            let (mut ex_p, mut ey_p) = (vec![0.0; n], vec![0.0; n]);
            s.solve_e_pooled(&rho, &mut ex_p, &mut ey_p, &mut scratch, &SerialExec);
            for i in 0..n {
                assert_eq!(ex_s[i].to_bits(), ex_p[i].to_bits(), "ex {nx}x{ny} i={i}");
                assert_eq!(ey_s[i].to_bits(), ey_p[i].to_bits(), "ey {nx}x{ny} i={i}");
            }
        }
    }

    /// Uniform values in `[-1, 1)` from a fixed 64-bit LCG.
    fn random_grid(n: usize, mut state: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// The two-inverse solve: `Ê_x` and `Ê_y` inverted separately with the
    /// full wavenumber tables, each component read from `.re`.
    fn two_inverse_reference(
        nx: usize,
        ny: usize,
        lx: f64,
        ly: f64,
        rho: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let plan = Fft2Plan::new(nx, ny).unwrap();
        let (kx, ky) = (wavenumbers(nx, lx), wavenumbers(ny, ly));
        let mut hat: Vec<Complex64> = rho.iter().map(|&r| Complex64::from_re(r)).collect();
        plan.forward(&mut hat);
        let (mut hx, mut hy) = (hat.clone(), hat);
        for i in 0..nx * ny {
            let (kx, ky) = (kx[i / ny], ky[i % ny]);
            let k2 = kx * kx + ky * ky;
            let phi_hat = if k2 == 0.0 {
                Complex64::ZERO
            } else {
                hx[i] / k2
            };
            hx[i] = -phi_hat.mul_i().scale(kx);
            hy[i] = -phi_hat.mul_i().scale(ky);
        }
        plan.inverse(&mut hx);
        plan.inverse(&mut hy);
        (
            hx.iter().map(|z| z.re).collect(),
            hy.iter().map(|z| z.re).collect(),
        )
    }

    #[test]
    fn packed_inverse_matches_two_inverse_reference() {
        for (nx, ny, seed) in [(32usize, 32usize, 1u64), (128, 128, 2), (64, 32, 3)] {
            let (lx, ly) = (4.0 * PI, 2.0 * PI);
            let s = PoissonSolver2D::new(nx, ny, lx, ly).unwrap();
            let rho = random_grid(nx * ny, seed);
            let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
            s.solve_e(&rho, &mut ex, &mut ey);
            let (rx, ry) = two_inverse_reference(nx, ny, lx, ly, &rho);
            let emax = rx.iter().chain(&ry).fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(emax > 0.0);
            for i in 0..nx * ny {
                assert!((ex[i] - rx[i]).abs() <= 1e-12 * emax, "{nx}x{ny} ex[{i}]");
                assert!((ey[i] - ry[i]).abs() <= 1e-12 * emax, "{nx}x{ny} ey[{i}]");
            }
        }
    }

    #[test]
    fn nyquist_modes_carry_no_field() {
        // The checkerboards along x, along y and along both: each is a pure
        // Nyquist mode, whose spectral derivative vanishes on the grid.
        let (nx, ny) = (16, 8);
        let s = PoissonSolver2D::new(nx, ny, 2.0 * PI, 1.0).unwrap();
        let phases: [fn(usize, usize) -> usize; 3] = [|ix, _| ix, |_, iy| iy, |ix, iy| ix + iy];
        for (m, phase) in phases.iter().enumerate() {
            let rho: Vec<f64> = (0..nx * ny)
                .map(|i| (-1.0f64).powi(phase(i / ny, i % ny) as i32))
                .collect();
            let (mut ex, mut ey) = (vec![1.0; nx * ny], vec![1.0; nx * ny]);
            s.solve_e(&rho, &mut ex, &mut ey);
            for i in 0..nx * ny {
                assert!(ex[i].abs() <= 1e-12, "shape {m}: ex[{i}] = {}", ex[i]);
                assert!(ey[i].abs() <= 1e-12, "shape {m}: ey[{i}] = {}", ey[i]);
            }
        }
    }

    #[test]
    fn derivative_wavenumbers_zero_only_nyquist() {
        let (k, d) = (wavenumbers(8, 2.0), derivative_wavenumbers(8, 2.0));
        assert_eq!(d[4], 0.0);
        assert!(k[4] > 0.0);
        for i in (0..8).filter(|&i| i != 4) {
            assert_eq!(k[i].to_bits(), d[i].to_bits(), "i={i}");
        }
        assert_eq!(derivative_wavenumbers(1, 1.0), vec![0.0]);
    }

    #[test]
    fn wavenumber_convention_matches_solver() {
        let s = PoissonSolver2D::new(8, 16, 1.0, 3.0).unwrap();
        assert_eq!(s.kx(), wavenumbers(8, 1.0).as_slice());
        assert_eq!(s.ky(), wavenumbers(16, 3.0).as_slice());
        assert!(wavenumbers(8, 1.0)[5] < 0.0, "upper half is negative");
    }

    #[test]
    fn bad_arguments_rejected() {
        assert!(PoissonSolver2D::new(0, 8, 1.0, 1.0).is_err());
        assert!(PoissonSolver2D::new(8, 8, -1.0, 1.0).is_err());
        assert!(PoissonSolver2D::new(8, 8, 1.0, f64::NAN).is_err());
        assert!(PoissonSolver2D::new(12, 8, 1.0, 1.0).is_err());
    }
}
