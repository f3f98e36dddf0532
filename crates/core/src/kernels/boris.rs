//! The 2d3v Boris velocity push: half electric kick, magnetic rotation,
//! half electric kick (Boris 1970; the de-facto standard leapfrog pusher).
//!
//! The rotation is the exact Rodrigues form
//! `v⁺ = v⁻ + (v⁻ + v⁻ × t) × s` with `t = (qΔt/2m)·B` and
//! `s = 2t/(1 + |t|²)`, which rotates `v⟂` by `θ = 2·atan(|t|)` — a
//! second-order approximation of the true gyro-angle `Ω·Δt`, so the
//! simulated gyro-period matches the analytic `2πm/(|q|B)` to
//! `O((ΩΔt)²)` and `|v|` is preserved *exactly* (the rotation is
//! norm-conserving in exact arithmetic and to rounding in floats).
//!
//! With a static uniform **B**, `t` and `s` are per-species constants
//! ([`BorisCoeffs`]) hoisted out of the particle loop; the loop body is
//! then one redundant-layout E gather (the same contiguous 8-double block
//! as [`super::velocity`]) plus straight-line rotation arithmetic with no
//! lane-to-lane dependence — which is why the lane-blocked variant is
//! bit-identical to the scalar one, extending the `KernelPath` contract to
//! the electromagnetic push.
//!
//! Velocities here are in *physical* units (the multi-species driver does
//! not hoist Δt/Δx into v; per-species q/m would need a field copy per
//! species, spending the redundant layout's memory budget 2·S-fold).

// SoA kernels take one slice per particle field by design, matching the
// loop shapes of the sibling electrostatic kernels.
#![allow(clippy::too_many_arguments)]

pub use super::simd::LANES;

/// Per-species, per-Δt constants of the Boris rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BorisCoeffs {
    /// Half-kick factor `qΔt/(2m)` applied to the gathered E.
    pub h: f64,
    /// Rotation vector `t = h·B`.
    pub t: [f64; 3],
    /// Rotation vector `s = 2t/(1 + |t|²)`.
    pub s: [f64; 3],
}

impl BorisCoeffs {
    /// Coefficients for a species with `charge`/`mass` stepping `dt`
    /// against the static uniform field `b = (Bx, By, Bz)`.
    pub fn new(charge: f64, mass: f64, dt: f64, b: [f64; 3]) -> Self {
        let h = charge * dt / (2.0 * mass);
        let t = [h * b[0], h * b[1], h * b[2]];
        let t2 = t[0] * t[0] + t[1] * t[1] + t[2] * t[2];
        let f = 2.0 / (1.0 + t2);
        Self {
            h,
            t,
            s: [t[0] * f, t[1] * f, t[2] * f],
        }
    }

    /// The rotation angle per step about the B axis: `2·atan(|t|)`.
    pub fn rotation_angle(&self) -> f64 {
        let t2 = self.t[0] * self.t[0] + self.t[1] * self.t[1] + self.t[2] * self.t[2];
        2.0 * t2.sqrt().atan()
    }
}

/// SoA Boris-push kernel signature shared by the scalar and lane variants.
pub type BorisFn =
    fn(&[u32], &[f64], &[f64], &mut [f64], &mut [f64], &mut [f64], &[[f64; 8]], &BorisCoeffs);

/// One particle's push — the single body both variants execute, so
/// bit-identity between them reduces to iteration order alone.
#[inline(always)]
fn push_one(
    e: &[f64; 8],
    odx: f64,
    ody: f64,
    vx: &mut f64,
    vy: &mut f64,
    vz: &mut f64,
    c: &BorisCoeffs,
) {
    // CIC gather, in the exact expression order of `super::velocity`.
    let w00 = (1.0 - odx) * (1.0 - ody);
    let w01 = (1.0 - odx) * ody;
    let w10 = odx * (1.0 - ody);
    let w11 = odx * ody;
    let ex = w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
    let ey = w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];
    // Half electric kick (Ez = 0 in the electrostatic + static-B model).
    let vmx = *vx + c.h * ex;
    let vmy = *vy + c.h * ey;
    let vmz = *vz;
    // v' = v⁻ + v⁻ × t
    let vpx = vmx + (vmy * c.t[2] - vmz * c.t[1]);
    let vpy = vmy + (vmz * c.t[0] - vmx * c.t[2]);
    let vpz = vmz + (vmx * c.t[1] - vmy * c.t[0]);
    // v⁺ = v⁻ + v' × s
    let vfx = vmx + (vpy * c.s[2] - vpz * c.s[1]);
    let vfy = vmy + (vpz * c.s[0] - vpx * c.s[2]);
    let vfz = vmz + (vpx * c.s[1] - vpy * c.s[0]);
    // Second half electric kick.
    *vx = vfx + c.h * ex;
    *vy = vfy + c.h * ey;
    *vz = vfz;
}

/// Scalar Boris push over a species' SoA slices (the reference kernel and
/// the shared `n mod LANES` tail of the lane variant).
pub fn boris_push(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    vz: &mut [f64],
    e8: &[[f64; 8]],
    c: &BorisCoeffs,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n && vz.len() == n);
    for i in 0..n {
        let e = &e8[icell[i] as usize];
        push_one(e, dx[i], dy[i], &mut vx[i], &mut vy[i], &mut vz[i], c);
    }
}

/// Lane-blocked Boris push: processes [`LANES`] particles per block with
/// the same straight-line body and iteration order as [`boris_push`], so
/// the two are bit-identical on any input (each particle's arithmetic has
/// no cross-lane dependence).
pub fn boris_push_lanes(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    vz: &mut [f64],
    e8: &[[f64; 8]],
    c: &BorisCoeffs,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n && vz.len() == n);
    let main = n - n % LANES;
    let mut o = 0;
    while o < main {
        let bc = super::simd::block(icell, o);
        let bdx = super::simd::block(dx, o);
        let bdy = super::simd::block(dy, o);
        let bvx = super::simd::block_mut(vx, o);
        let bvy = super::simd::block_mut(vy, o);
        let bvz = super::simd::block_mut(vz, o);
        for l in 0..LANES {
            let e = &e8[bc[l] as usize];
            push_one(e, bdx[l], bdy[l], &mut bvx[l], &mut bvy[l], &mut bvz[l], c);
        }
        o += LANES;
    }
    boris_push(
        &icell[main..],
        &dx[main..],
        &dy[main..],
        &mut vx[main..],
        &mut vy[main..],
        &mut vz[main..],
        e8,
        c,
    );
}

/// The Boris kernel for a [`crate::sim::KernelPath`] — both bit-identical
/// by the argument above; the knob exists so parity tests can flip it like
/// the electrostatic paths.
pub fn select_boris(kernel_path: crate::sim::KernelPath) -> BorisFn {
    match kernel_path {
        crate::sim::KernelPath::Scalar => boris_push,
        crate::sim::KernelPath::Lanes => boris_push_lanes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Phase = (Vec<u32>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

    fn mk(n: usize) -> Phase {
        let mut rng = crate::rng::Rng::seed_from_u64(7);
        let icell: Vec<u32> = (0..n).map(|_| (rng.uniform() * 16.0) as u32).collect();
        let dx: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let dy: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let vx: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let vy: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let vz: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        (icell, dx, dy, vx, vy, vz)
    }

    #[test]
    fn lanes_bit_identical_to_scalar() {
        let (icell, dx, dy, vx, vy, vz) = mk(1003);
        let mut e8 = vec![[0.0f64; 8]; 16];
        let mut rng = crate::rng::Rng::seed_from_u64(9);
        for e in &mut e8 {
            for v in e.iter_mut() {
                *v = rng.normal();
            }
        }
        let c = BorisCoeffs::new(-1.0, 1.0, 0.05, [0.1, -0.2, 0.9]);
        let (mut ax, mut ay, mut az) = (vx.clone(), vy.clone(), vz.clone());
        let (mut bx, mut by, mut bz) = (vx, vy, vz);
        boris_push(&icell, &dx, &dy, &mut ax, &mut ay, &mut az, &e8, &c);
        boris_push_lanes(&icell, &dx, &dy, &mut bx, &mut by, &mut bz, &e8, &c);
        assert_eq!(ax, bx);
        assert_eq!(ay, by);
        assert_eq!(az, bz);
    }

    #[test]
    fn pure_rotation_preserves_speed() {
        // E = 0, B = ẑ: |v| must be conserved to rounding, every step.
        let e8 = vec![[0.0f64; 8]; 4];
        let c = BorisCoeffs::new(-1.0, 1.0, 0.1, [0.0, 0.0, 1.5]);
        let (mut vx, mut vy, mut vz): (Vec<f64>, Vec<f64>, Vec<f64>) =
            (vec![0.7], vec![-0.3], vec![0.45]);
        let speed0 = (vx[0] * vx[0] + vy[0] * vy[0] + vz[0] * vz[0]).sqrt();
        for _ in 0..1000 {
            boris_push(&[0], &[0.5], &[0.5], &mut vx, &mut vy, &mut vz, &e8, &c);
        }
        let speed = (vx[0] * vx[0] + vy[0] * vy[0] + vz[0] * vz[0]).sqrt();
        assert!((speed - speed0).abs() < 1e-12 * speed0.max(1.0));
        // vz is untouched by a ẑ rotation.
        assert!((vz[0] - 0.45).abs() < 1e-15);
    }

    #[test]
    fn rotation_angle_matches_analytic_to_second_order() {
        let dt = 0.05;
        let c = BorisCoeffs::new(-1.0, 1.0, dt, [0.0, 0.0, 2.0]);
        let omega_dt = 2.0 * dt; // |q|B/m · Δt
        let theta = c.rotation_angle();
        // θ = 2 atan(ΩΔt/2) = ΩΔt − (ΩΔt)³/12 + …
        assert!((theta - omega_dt).abs() < omega_dt.powi(3) / 11.0);
        assert!(theta < omega_dt);
    }
}
