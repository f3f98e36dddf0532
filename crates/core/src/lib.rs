//! # pic-core — the 2d2v Vlasov–Poisson Particle-in-Cell library
//!
//! This crate implements the system of *Barsamian, Hirstoaga, Violard,
//! “Efficient Data Structures for a Hybrid Parallel and Vectorized
//! Particle-in-Cell Code”, IPDPSW 2017*: a minimal 2-D electrostatic PIC
//! code whose every data-structure and loop-shape decision is exposed as a
//! configuration knob, so the paper's optimization ladder (Table IV), layout
//! comparison (Tables II–III), and parallel experiments (Figs. 7–9,
//! Tables VI–VII) can all be reproduced from one code base.
//!
//! ## The PIC loop
//!
//! Each time step (paper's Fig. 1):
//! 1. periodically **sort** particles by cell index ([`sort`]);
//! 2. zero ρ, then for each particle **update velocity** (interpolate E),
//!    **update position** (periodic wrap), **accumulate charge**
//!    ([`kernels`] — fused in one loop or split into three);
//! 3. solve **Poisson** for E from ρ (the `spectral` crate).
//!
//! ## Data-structure knobs
//!
//! * particles: AoS vs SoA ([`particles`]);
//! * grid quantities: standard 2-D arrays vs redundant cell-based arrays
//!   ([`fields`]);
//! * cell ordering: row-major, L4D, Morton, Hilbert (the `sfc` crate);
//! * position update: `if`+modulo, integer modulo, or branchless bitwise
//!   ([`kernels::position`]);
//! * loop structure: one fused loop vs three split loops;
//! * coefficient hoisting: raw vs pre-scaled fields and velocities.
//!
//! ## Quickstart
//!
//! ```
//! use pic_core::sim::{PicConfig, Simulation};
//!
//! let mut cfg = PicConfig::landau_table1(10_000); // Table I, scaled down
//! cfg.grid_nx = 32;
//! cfg.grid_ny = 32;
//! let mut sim = Simulation::new(cfg).unwrap();
//! sim.run(20);
//! // Total energy is conserved to a few percent at this resolution.
//! assert!(sim.diagnostics().relative_energy_drift() < 0.05);
//! ```

// `deny`, not `forbid`: the persistent worker pool ([`pool`]) borrows job
// closures across threads through a type-erased pointer and carries the one
// documented `#![allow(unsafe_code)]` in the crate. Everything else is
// checked safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod diag;
pub mod em;
pub mod faultlog;
pub mod fields;
pub mod grid;
pub mod kernels;
pub mod par;
pub mod particles;
pub mod pool;
pub mod resilience;
pub mod rng;
pub mod sim;
pub mod sort;
pub mod species;
pub mod trace;

/// Errors produced when configuring, constructing, or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PicError {
    /// The grid layout could not be built.
    Layout(sfc::LayoutError),
    /// The spectral solver could not be built.
    Spectral(spectral::SpectralError),
    /// A configuration value was invalid.
    Config(String),
    /// A checkpoint snapshot could not be encoded, decoded, or applied.
    Checkpoint(String),
    /// A runtime invariant failed (NaN/Inf field values, out-of-range cell
    /// indices, charge loss, or energy drift beyond the watchdog threshold).
    Diverged(String),
    /// An I/O operation on a checkpoint file failed.
    Io(String),
}

impl std::fmt::Display for PicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PicError::Layout(e) => write!(f, "layout error: {e}"),
            PicError::Spectral(e) => write!(f, "spectral error: {e}"),
            PicError::Config(msg) => write!(f, "config error: {msg}"),
            PicError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            PicError::Diverged(msg) => write!(f, "invariant violation: {msg}"),
            PicError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for PicError {}

impl From<sfc::LayoutError> for PicError {
    fn from(e: sfc::LayoutError) -> Self {
        PicError::Layout(e)
    }
}

impl From<spectral::SpectralError> for PicError {
    fn from(e: spectral::SpectralError) -> Self {
        PicError::Spectral(e)
    }
}
