//! The multi-species 2d3v electromagnetostatic driver: Boris push against a
//! static uniform **B**, electrostatic E from the spectral Poisson solve,
//! lane-blocked current deposition, and per-species moment diagnostics.
//!
//! [`EmSimulation`] is the species-generalized sibling of
//! [`crate::sim::Simulation`]. It reuses the paper's data structures
//! unchanged — per-species [`crate::species::SpeciesArena`]s over the same
//! SoA layout, the redundant 8-double E view for gathers, redundant
//! per-corner ρ and **J** arenas for contiguous deposits — and the same
//! `KernelPath`/`DepositPath` knobs drive the 2d3v kernels
//! ([`crate::kernels::boris`], [`crate::kernels::current`]).
//!
//! Velocities are stored in *physical* units throughout (no §IV-D
//! hoisting: per-species q/m would need one scaled field copy per species,
//! forfeiting the redundant layout's bandwidth win). The position push
//! therefore runs the branchless kernels with the single scale `Δt/Δx`,
//! which — like the unhoisted electrostatic baseline — requires square
//! cells.
//!
//! Determinism contract: trajectories depend only on the config and the
//! executing pool *width*, exactly as in the electrostatic driver, and the
//! `Exact` deposit path over `Scalar`/`Lanes` kernels is bit-identical.

use crate::control::{self, ControllerConfig, HotPathController, SwitchEvent};
use crate::fields::{Field2D, RedundantE, RedundantJ, RedundantRho};
use crate::grid::Grid2D;
use crate::kernels::accumulate;
use crate::kernels::boris::{select_boris, BorisCoeffs};
use crate::kernels::current;
use crate::kernels::deposit::DepositPath;
use crate::kernels::{position, simd, velocity};
use crate::particles::InitialDistribution;
use crate::pool::ThreadPool;
use crate::resilience::checkpoint::{self as ckpt, EmSpeciesState, EmState};
use crate::resilience::watchdog::{WatchdogConfig, WatchdogViolation};
use crate::rng::Rng;
use crate::sim::{AnyLayout, DiagSample, Diagnostics, KernelPath};
use crate::species::{
    species_moments, split_species_mut, SpeciesArena, SpeciesDef, SpeciesMoments,
};
use crate::PicError;
use sfc::Ordering;
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use std::sync::Arc;

/// Configuration of a multi-species 2d3v run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmConfig {
    /// Cells along x (power of two).
    pub grid_nx: usize,
    /// Cells along y (power of two).
    pub grid_ny: usize,
    /// Domain length along x.
    pub lx: f64,
    /// Domain length along y.
    pub ly: f64,
    /// Time step.
    pub dt: f64,
    /// The species table, in initialization order (the sampling RNG stream
    /// is shared, so the order is part of the physics).
    pub species: Vec<SpeciesDef>,
    /// Static uniform magnetic field `(Bx, By, Bz)`.
    pub b0: [f64; 3],
    /// Solve Poisson for the self-consistent E each step. `false` freezes
    /// `E = 0` — pure gyro-motion, the analytic-validation mode.
    pub solve_e: bool,
    /// Cell ordering for the redundant structures.
    pub ordering: Ordering,
    /// Scalar vs lane-blocked inner kernels.
    pub kernel_path: KernelPath,
    /// Deposition kernel for both ρ and **J**.
    pub deposit_path: DepositPath,
    /// Sort every `sort_period` steps (0 = never).
    pub sort_period: usize,
    /// Workers in the persistent thread pool (1 = sequential, no pool).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Replicated-decomposition slice `(rank, nranks)`: every rank samples
    /// the full population deterministically but keeps only its contiguous
    /// `1/nranks` of *each* species; the per-step ρ/J reductions
    /// ([`EmSimulation::step_with_reduce`]) restore the global densities.
    pub replica: Option<(usize, usize)>,
    /// Disorder-driven sort scheduling ([`crate::control`]) — same
    /// semantics as [`crate::sim::PicConfig::controller`]: `Some` drives
    /// the sort schedule from observed disorder.
    pub controller: Option<crate::control::ControllerConfig>,
}

impl EmConfig {
    fn base(species: Vec<SpeciesDef>) -> Self {
        Self {
            grid_nx: 32,
            grid_ny: 32,
            lx: 4.0 * std::f64::consts::PI,
            ly: 4.0 * std::f64::consts::PI,
            dt: 0.05,
            species,
            b0: [0.0; 3],
            solve_e: true,
            ordering: Ordering::Morton,
            kernel_path: KernelPath::Lanes,
            deposit_path: DepositPath::LaneReduce,
            sort_period: 20,
            threads: 1,
            seed: 0xB1C0DE,
            replica: None,
            controller: None,
        }
    }

    /// Cyclotron motion: a cold drifting electron population in `B = ẑ`
    /// with the field solve off. Every marker gyrates on the analytic
    /// circle of radius `v₀·m/(|q|B) = 0.5` with period `2πm/(|q|B) = 2π`,
    /// so the simulated gyro-period and gyro-radius can be checked against
    /// closed forms (the Boris rotation angle is `2·atan(ΩΔt/2)`, an
    /// `O((ΩΔt)²)` approximation — 0.05² /12 ≈ 2·10⁻⁵ relative here).
    pub fn cyclotron(n: usize) -> Self {
        let mut cfg = Self::base(vec![SpeciesDef::electrons(
            n,
            InitialDistribution::DriftingMaxwellian {
                alpha: 0.0,
                k: 1.0,
                v0x: 0.5,
                vt: 0.0,
            },
        )]);
        cfg.lx = 16.0;
        cfg.ly = 16.0;
        cfg.grid_nx = 16;
        cfg.grid_ny = 16;
        cfg.b0 = [0.0, 0.0, 1.0];
        cfg.solve_e = false;
        cfg.sort_period = 0; // nothing moves between cells coherently; keep the stream pure
        cfg
    }

    /// Magnetized two-stream: counter-streaming electron beams over a
    /// heavy immobile-ish ion background, with a weak axial `B`. The
    /// electrostatic two-stream instability grows mode 1 of `E_x`.
    pub fn magnetized_two_stream(n: usize) -> Self {
        let k = 0.2;
        let l = 2.0 * std::f64::consts::PI / k;
        let mut cfg = Self::base(vec![
            SpeciesDef::electrons(
                n,
                InitialDistribution::TwoStream {
                    alpha: 0.01,
                    k,
                    v0: 3.0,
                    vt: 0.3,
                },
            ),
            // The unstable mode stands near zero phase velocity, so the
            // ions must be cold (vt ≪ v₀) or their Landau resonance at
            // v ≈ 0 damps the very mode the scenario is meant to grow.
            SpeciesDef::ions(
                n / 4,
                100.0,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.0,
                    k: 1.0,
                    v0x: 0.0,
                    vt: 0.05,
                },
            )
            .named("heavy-ions"),
        ]);
        cfg.lx = l;
        cfg.ly = l;
        // Weakly magnetized: the electrostatic growth rate here is
        // γ ≈ 0.14 ωp, and the axial B rotates the beam drift at Ω = |q|B/m.
        // Growth survives only for γ ≫ Ω (at Ω ≈ γ the beams rotate away
        // from the x-mode before it can saturate), so keep Ω = 0.02.
        cfg.b0 = [0.0, 0.0, 0.02];
        cfg
    }

    /// Bump-on-tail: a 90 %-density Maxwellian core plus a 10 %-density
    /// fast beam (v₀ = 4 vₜ). The beam-plasma interaction feeds field
    /// energy growth from the velocity-space gradient.
    pub fn bump_on_tail(n: usize) -> Self {
        Self::base(vec![
            SpeciesDef::electrons(
                n,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.01,
                    k: 0.5,
                    v0x: 0.0,
                    vt: 1.0,
                },
            )
            .named("core")
            .with_density(0.9),
            SpeciesDef::electrons(
                n / 10,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.0,
                    k: 0.5,
                    v0x: 4.0,
                    vt: 0.5,
                },
            )
            .named("beam")
            .with_density(0.1),
        ])
    }

    /// Ion-acoustic waves: warm electrons neutralized by cold ions
    /// (m = 25) carrying a density perturbation. The perturbation
    /// oscillates at the ion-acoustic frequency instead of damping away.
    pub fn ion_acoustic(n: usize) -> Self {
        Self::base(vec![
            SpeciesDef::electrons(
                n,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.0,
                    k: 0.5,
                    v0x: 0.0,
                    vt: 1.0,
                },
            ),
            SpeciesDef::ions(
                n,
                25.0,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.05,
                    k: 0.5,
                    v0x: 0.0,
                    vt: 0.2,
                },
            ),
        ])
    }

    /// Lift a single-species electrostatic [`crate::sim::PicConfig`] into a
    /// one-electron-species EM config (the legacy-snapshot restore path).
    /// `b0 = 0` and the Poisson solve stays on, so stepping reproduces the
    /// same physics the 2d2v driver ran (plus an inert `vz = 0`).
    pub fn from_legacy(cfg: &crate::sim::PicConfig) -> Self {
        Self {
            grid_nx: cfg.grid_nx,
            grid_ny: cfg.grid_ny,
            lx: cfg.lx,
            ly: cfg.ly,
            dt: cfg.dt,
            species: vec![SpeciesDef::electrons(cfg.n_particles, cfg.distribution)],
            b0: [0.0; 3],
            solve_e: true,
            ordering: cfg.ordering,
            kernel_path: cfg.kernel_path,
            deposit_path: cfg.deposit_path,
            sort_period: cfg.sort_period,
            threads: cfg.threads,
            seed: cfg.seed,
            replica: None,
            controller: cfg.controller.clone(),
        }
    }

    /// Total marker count across the species table (before any replica
    /// slice).
    pub fn total_particles(&self) -> usize {
        self.species.iter().map(|s| s.n_particles).sum()
    }

    fn validate(&self) -> Result<(), PicError> {
        if self.species.is_empty() {
            return Err(PicError::Config("need at least one species".into()));
        }
        for s in &self.species {
            if s.n_particles == 0 {
                return Err(PicError::Config(format!(
                    "species '{}' needs at least one particle",
                    s.name
                )));
            }
            if !s.mass.is_finite() || s.mass <= 0.0 {
                return Err(PicError::Config(format!(
                    "species '{}' mass must be positive and finite",
                    s.name
                )));
            }
            if !s.density.is_finite() || s.density <= 0.0 {
                return Err(PicError::Config(format!(
                    "species '{}' density must be positive and finite",
                    s.name
                )));
            }
        }
        if self.dt.is_nan() || self.dt <= 0.0 {
            return Err(PicError::Config(format!(
                "dt must be positive, got {}",
                self.dt
            )));
        }
        if !self.b0.iter().all(|b| b.is_finite()) {
            return Err(PicError::Config("b0 must be finite".into()));
        }
        let (dx, dy) = (self.lx / self.grid_nx as f64, self.ly / self.grid_ny as f64);
        if (dx - dy).abs() > 1e-12 * dx {
            return Err(PicError::Config(
                "the 2d3v driver stores physical velocities and requires square cells (Δx = Δy)"
                    .into(),
            ));
        }
        if self.threads == 0 {
            return Err(PicError::Config("threads must be at least 1".into()));
        }
        if let Some((rank, nranks)) = self.replica {
            if nranks == 0 || rank >= nranks {
                return Err(PicError::Config(format!(
                    "replica rank {rank} out of range for {nranks} ranks"
                )));
            }
        }
        Ok(())
    }
}

/// A running multi-species 2d3v simulation.
pub struct EmSimulation {
    cfg: EmConfig,
    grid: Grid2D,
    layout: AnyLayout,
    solver: PoissonSolver2D,
    species: Vec<SpeciesArena>,
    /// Per-species Boris rotation constants, index-parallel with `species`.
    boris: Vec<BorisCoeffs>,
    field: Field2D,
    jx: Vec<f64>,
    jy: Vec<f64>,
    jz: Vec<f64>,
    e8: RedundantE,
    rho4: RedundantRho,
    j12: RedundantJ,
    rho_arenas: Vec<RedundantRho>,
    j_arenas: Vec<RedundantJ>,
    pool: Option<Arc<ThreadPool>>,
    step_count: usize,
    diag: Diagnostics,
    rng: Rng,
    charge_ref: f64,
    solve_scratch: SolveScratch,
    /// Sort scheduler (present when `cfg.controller` is set).
    controller: Option<HotPathController>,
}

impl EmSimulation {
    /// Build and initialize: sample every species (one shared RNG stream,
    /// in table order), sort, deposit the initial ρ, solve the initial E
    /// (when `solve_e`), and take the leap-frog half-kick back.
    pub fn new(cfg: EmConfig) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, None)?, |_| {})
    }

    /// Like [`new`](Self::new) but calls `reduce` on the initial deposited
    /// ρ before the first solve — required in replicated runs so every
    /// rank's initial field (and half-kick) sees the *global* density.
    pub fn new_with_reduce(
        cfg: EmConfig,
        reduce: impl FnOnce(&mut [f64]),
    ) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, None)?, reduce)
    }

    /// Like [`new`](Self::new) over a shared worker pool (multi-tenant
    /// runtimes). Trajectories depend only on the pool width.
    pub fn new_shared(cfg: EmConfig, pool: Arc<ThreadPool>) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, Some(pool))?, |_| {})
    }

    /// Rebuild directly from an EM checkpoint snapshot.
    pub fn from_snapshot(cfg: EmConfig, snapshot: &[u8]) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, None)?;
        sim.restore(snapshot)?;
        Ok(sim)
    }

    /// [`from_snapshot`](Self::from_snapshot) over a shared pool.
    pub fn from_snapshot_shared(
        cfg: EmConfig,
        snapshot: &[u8],
        pool: Arc<ThreadPool>,
    ) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, Some(pool))?;
        sim.restore(snapshot)?;
        Ok(sim)
    }

    /// Restore a *legacy* single-species electrostatic snapshot (the
    /// `b"PIC2DCKP"` v1 format) into a one-species EM world: the electron
    /// arena takes the checkpointed particles with `vz = 0` (hoisted
    /// velocities are un-normalized back to physical units), fields and
    /// the RNG stream carry over, and `B = 0` + `solve_e` reproduce the
    /// electrostatic physics the snapshot was running.
    pub fn from_legacy_snapshot(
        cfg: &crate::sim::PicConfig,
        snapshot: &[u8],
    ) -> Result<Self, PicError> {
        let state = ckpt::decode(snapshot)?;
        let expect = ckpt::config_fingerprint(cfg);
        if state.config_fingerprint != expect {
            return Err(PicError::Checkpoint(format!(
                "legacy snapshot fingerprint {:#018x} does not match the config ({expect:#018x})",
                state.config_fingerprint
            )));
        }
        let em_cfg = EmConfig::from_legacy(cfg);
        let mut sim = Self::shell(em_cfg, None)?;
        let mut p = state.particles;
        if cfg.hoisted {
            // Legacy hoisted runs store velocities in grid units per step;
            // the EM arenas are physical.
            let (cx, cy) = (sim.grid.dx() / cfg.dt, sim.grid.dy() / cfg.dt);
            for v in p.vx.iter_mut() {
                *v *= cx;
            }
            for v in p.vy.iter_mut() {
                *v *= cy;
            }
        }
        let n = p.len();
        let def = sim.cfg.species[0].clone();
        sim.species = vec![SpeciesArena::from_parts(def, p, vec![0.0; n], &sim.grid)];
        sim.field.rho.copy_from_slice(&state.rho);
        sim.field.ex.copy_from_slice(&state.ex);
        sim.field.ey.copy_from_slice(&state.ey);
        sim.step_count = state.step_count as usize;
        sim.rng = Rng::from_state(state.rng_state);
        sim.charge_ref = state.charge_ref;
        sim.diag = Diagnostics {
            history: state.diag,
        };
        sim.refresh_field_views();
        Ok(sim)
    }

    fn shell(cfg: EmConfig, shared: Option<Arc<ThreadPool>>) -> Result<Self, PicError> {
        cfg.validate()?;
        let grid = Grid2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
        let layout = AnyLayout::build(cfg.ordering, cfg.grid_nx, cfg.grid_ny)?;
        let solver = PoissonSolver2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
        let field = Field2D::new(&grid);
        let ng = field.rho.len();
        let e8 = RedundantE::new(layout.as_dyn());
        let rho4 = RedundantRho::new(layout.as_dyn());
        let j12 = RedundantJ::new(layout.as_dyn());
        let boris = cfg
            .species
            .iter()
            .map(|s| BorisCoeffs::new(s.charge, s.mass, cfg.dt, cfg.b0))
            .collect();
        let pool = match shared {
            Some(p) => Some(p),
            None => (cfg.threads > 1).then(|| Arc::new(ThreadPool::new(cfg.threads))),
        };
        let (rho_arenas, j_arenas) = match &pool {
            Some(p) => (
                (0..p.nthreads())
                    .map(|_| RedundantRho::new(layout.as_dyn()))
                    .collect(),
                (0..p.nthreads())
                    .map(|_| RedundantJ::new(layout.as_dyn()))
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        let controller = cfg
            .controller
            .clone()
            .map(|cc| HotPathController::new(cc, cfg.kernel_path, cfg.deposit_path));
        Ok(Self {
            grid,
            layout,
            solver,
            species: Vec::new(),
            boris,
            field,
            jx: vec![0.0; ng],
            jy: vec![0.0; ng],
            jz: vec![0.0; ng],
            e8,
            rho4,
            j12,
            rho_arenas,
            j_arenas,
            pool,
            step_count: 0,
            diag: Diagnostics::default(),
            rng: Rng::seed_from_u64(cfg.seed),
            charge_ref: 0.0,
            solve_scratch: SolveScratch::new(),
            controller,
            cfg,
        })
    }

    fn init(mut sim: Self, reduce: impl FnOnce(&mut [f64])) -> Result<Self, PicError> {
        let defs = sim.cfg.species.clone();
        let replica = sim.cfg.replica;
        let ncells = sim.layout.as_dyn().ncells();
        for def in defs {
            let mut arena = SpeciesArena::initialize(
                def,
                &sim.grid,
                sim.layout.as_dyn(),
                &mut sim.rng,
                replica,
            );
            arena.sort(ncells);
            sim.species.push(arena);
        }

        sim.deposit_rho_initial();
        reduce(&mut sim.field.rho);
        sim.charge_ref = sim.field.rho.iter().sum();
        if sim.cfg.solve_e {
            sim.solve_field();
        }
        sim.refresh_field_views();

        // Leap-frog half-kick back, per species: v(−Δt/2) = v(0) −
        // (q/m)·E(x₀)·Δt/2. Ez = 0 so vz is untouched; B contributes no
        // impulse at t = 0 in the Boris stagger.
        for si in 0..sim.species.len() {
            let c = -0.5 * sim.species[si].def.charge * sim.cfg.dt / sim.species[si].def.mass;
            let arena = &mut sim.species[si];
            velocity::update_velocities_redundant(
                &arena.p.icell,
                &arena.p.dx,
                &arena.p.dy,
                &mut arena.p.vx,
                &mut arena.p.vy,
                &sim.e8.e8,
                c,
                c,
            );
        }
        sim.record_diag();
        Ok(sim)
    }

    // ---------------- accessors ----------------

    /// The configuration this simulation runs.
    pub fn config(&self) -> &EmConfig {
        &self.cfg
    }

    /// The spatial grid.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step_count
    }

    /// The live species arenas, in table order.
    pub fn species(&self) -> &[SpeciesArena] {
        &self.species
    }

    /// Diagnostics history (one sample at init + one per step).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// Deposited charge density (post any reduction).
    pub fn rho(&self) -> &[f64] {
        &self.field.rho
    }

    /// Mutable ρ — the hook for external reductions and fault injection.
    pub fn rho_mut(&mut self) -> &mut [f64] {
        &mut self.field.rho
    }

    /// The electric field `(ex, ey)` on grid points.
    pub fn e_field(&self) -> (&[f64], &[f64]) {
        (&self.field.ex, &self.field.ey)
    }

    /// The deposited current density `(jx, jy, jz)` on grid points.
    pub fn j_field(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.jx, &self.jy, &self.jz)
    }

    /// Total deposited charge (Σ over grid values of ρ).
    pub fn total_charge(&self) -> f64 {
        self.field.rho.iter().sum()
    }

    /// The total-charge reference captured right after initialization.
    pub fn charge_reference(&self) -> f64 {
        self.charge_ref
    }

    /// Per-species velocity moments, in table order.
    pub fn moments(&self) -> Vec<SpeciesMoments> {
        self.species.iter().map(species_moments).collect()
    }

    /// Total momentum `Σ_s m_s·w_s·Σ v` across species.
    pub fn total_momentum(&self) -> [f64; 3] {
        let mut p = [0.0; 3];
        for m in self.moments() {
            for (pd, md) in p.iter_mut().zip(m.momentum) {
                *pd += md;
            }
        }
        p
    }

    /// Total kinetic energy `Σ_s ½·m_s·w_s·Σ|v|²` (all three components).
    pub fn kinetic_energy(&self) -> f64 {
        self.species
            .iter()
            .map(|s| {
                let sum: f64 = (0..s.len())
                    .map(|i| s.p.vx[i] * s.p.vx[i] + s.p.vy[i] * s.p.vy[i] + s.vz[i] * s.vz[i])
                    .sum();
                0.5 * s.def.mass * s.weight * sum
            })
            .sum()
    }

    /// Electrostatic field energy from the current grid field.
    pub fn field_energy(&self) -> f64 {
        self.solver.field_energy(&self.field.ex, &self.field.ey)
    }

    /// Amplitude of `E_x`'s Fourier mode `m` along x (y-averaged), same
    /// estimator as the electrostatic driver.
    pub fn ex_mode_amplitude(&self, mode: usize) -> f64 {
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        let mut re = 0.0;
        let mut im = 0.0;
        for ix in 0..ncx {
            let row: f64 = self.field.ex[ix * ncy..(ix + 1) * ncy].iter().sum();
            let theta = -2.0 * std::f64::consts::PI * (mode * ix) as f64 / ncx as f64;
            re += row * theta.cos();
            im += row * theta.sin();
        }
        2.0 * (re * re + im * im).sqrt() / (ncx * ncy) as f64
    }

    /// Switch the deposition kernel mid-run (changes rounding within the
    /// per-cell bound unless moving between the exact forms).
    pub fn set_deposit_path(&mut self, path: DepositPath) {
        self.cfg.deposit_path = path;
    }

    /// Change the fixed sort period mid-run.
    pub fn set_sort_period(&mut self, period: usize) {
        self.cfg.sort_period = period;
    }

    /// Attach a sort scheduler ([`crate::control`]) on the currently active
    /// kernel/deposit paths; the profile is also
    /// recorded in the configuration so checkpoints fingerprint the
    /// controller-enabled run.
    pub fn enable_controller(&mut self, ccfg: ControllerConfig) {
        self.cfg.controller = Some(ccfg.clone());
        self.controller = Some(HotPathController::new(
            ccfg,
            self.cfg.kernel_path,
            self.cfg.deposit_path,
        ));
    }

    /// The attached sort scheduler, if any.
    pub fn controller(&self) -> Option<&HotPathController> {
        self.controller.as_ref()
    }

    /// Hot-path switch events since the last call. The sort scheduler
    /// never switches a path, so this is always empty; it stays for
    /// benchmark drivers that still count switches.
    pub fn take_hot_path_events(&mut self) -> Vec<SwitchEvent> {
        Vec::new()
    }

    // ---------------- stepping ----------------

    /// Advance one step.
    pub fn step(&mut self) {
        self.step_with_reduce(|_| {});
    }

    /// Advance one step, calling `reduce` on each freshly deposited grid
    /// array (ρ, then Jx, Jy, Jz) before the field solve — the replicated
    /// decomposition's allreduce hook. Single-process runs pass a no-op.
    pub fn step_with_reduce(&mut self, mut reduce: impl FnMut(&mut [f64])) {
        self.step_pre_reduce();
        reduce(&mut self.field.rho);
        reduce(&mut self.jx);
        reduce(&mut self.jy);
        reduce(&mut self.jz);
        self.step_post_reduce();
    }

    /// First half of a step: sort (periodically), Boris push, position
    /// push, and the ρ/**J** deposits — leaving the per-rank partial grids
    /// in [`rho_mut`](Self::rho_mut)/[`j_mut`](Self::j_mut). Drivers whose
    /// reduction isn't expressible as a closure call this, reduce, then
    /// finish with [`step_post_reduce`](Self::step_post_reduce).
    pub fn step_pre_reduce(&mut self) {
        self.step_count += 1;
        let sort_now = match &self.controller {
            Some(c) => c.should_sort(),
            None => {
                self.cfg.sort_period > 0 && self.step_count.is_multiple_of(self.cfg.sort_period)
            }
        };
        if sort_now {
            self.sort_all();
            if let Some(c) = self.controller.as_mut() {
                c.on_sort();
            }
        }
        self.push_velocities();
        self.push_positions();
        self.deposit_rho();
        self.deposit_current();
        self.observe_controller();
    }

    /// Feed the attached controller this step's count-weighted mean
    /// disorder across the species arenas.
    fn observe_controller(&mut self) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let stride = c.config().stride;
        let cells = self.grid.ncells();
        let mut weight = 0.0;
        let mut descent = 0.0;
        let mut jump = 0.0;
        for arena in &self.species {
            let n = arena.p.len();
            if n < 2 {
                continue;
            }
            let d = control::measure_disorder(&arena.p.icell, stride, cells);
            let w = n as f64;
            weight += w;
            descent += w * d.descent_frac;
            jump += w * d.jump_frac;
        }
        let d = if weight > 0.0 {
            control::Disorder {
                descent_frac: descent / weight,
                jump_frac: jump / weight,
            }
        } else {
            control::Disorder::NONE
        };
        c.observe(d);
    }

    /// Second half of a step: field solve on the (reduced) ρ, redundant
    /// view refresh, diagnostics. Must follow a
    /// [`step_pre_reduce`](Self::step_pre_reduce).
    pub fn step_post_reduce(&mut self) {
        if self.cfg.solve_e {
            self.solve_field();
            self.refresh_field_views();
        }
        self.record_diag();
    }

    /// Mutable current-density views, for in-place reduction between the
    /// step halves.
    pub fn j_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (&mut self.jx, &mut self.jy, &mut self.jz)
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    fn sort_all(&mut self) {
        let ncells = self.layout.as_dyn().ncells();
        for arena in &mut self.species {
            arena.sort(ncells);
        }
    }

    /// Boris push for every species: E gathered from the redundant view
    /// (physical units, so the same `e8` serves all species), rotation by
    /// the per-species hoisted constants.
    fn push_velocities(&mut self) {
        let kernel = select_boris(self.cfg.kernel_path);
        let e8 = &self.e8.e8;
        for (arena, coeffs) in self.species.iter_mut().zip(&self.boris) {
            match &self.pool {
                Some(pool) => {
                    let mut views = split_species_mut(&mut arena.p, &mut arena.vz, pool.nthreads());
                    pool.run_items(&mut views, |_, v| {
                        kernel(v.icell, v.dx, v.dy, v.vx, v.vy, v.vz, e8, coeffs);
                    });
                }
                None => {
                    kernel(
                        &arena.p.icell,
                        &arena.p.dx,
                        &arena.p.dy,
                        &mut arena.p.vx,
                        &mut arena.p.vy,
                        &mut arena.vz,
                        e8,
                        coeffs,
                    );
                }
            }
        }
    }

    /// Branchless position push with the single physical scale `Δt/Δx`
    /// (square cells enforced at validation). `vz` does not move particles
    /// in the 2d domain.
    fn push_positions(&mut self) {
        let scale = self.cfg.dt / self.grid.dx();
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        let lanes = self.cfg.kernel_path == KernelPath::Lanes;
        for arena in &mut self.species {
            let p = &mut arena.p;
            if let Some(pool) = &self.pool {
                let mut views = split_species_mut(p, &mut arena.vz, pool.nthreads());
                macro_rules! pooled_layout {
                    ($l:expr) => {{
                        let l = $l;
                        pool.run_items(&mut views, |_, v| {
                            if lanes {
                                simd::update_positions_branchless_layout_lanes(
                                    v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, l, scale,
                                );
                            } else {
                                position::update_positions_branchless_layout(
                                    v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, l, scale,
                                );
                            }
                        });
                    }};
                }
                match &self.layout {
                    AnyLayout::RowMajor(_) => pool.run_items(&mut views, |_, v| {
                        if lanes {
                            simd::update_positions_branchless_lanes(
                                v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, ncx, ncy, scale,
                            );
                        } else {
                            position::update_positions_branchless(
                                v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, ncx, ncy, scale,
                            );
                        }
                    }),
                    AnyLayout::L4D(l) => pooled_layout!(l),
                    AnyLayout::Morton(l) => pooled_layout!(l),
                    AnyLayout::Hilbert(l) => pooled_layout!(l),
                }
                continue;
            }
            let crate::particles::ParticlesSoA {
                icell,
                ix,
                iy,
                dx,
                dy,
                vx,
                vy,
            } = p;
            macro_rules! push_layout {
                ($l:expr) => {{
                    let l = $l;
                    if lanes {
                        simd::update_positions_branchless_layout_lanes(
                            icell, ix, iy, dx, dy, vx, vy, l, scale,
                        );
                    } else {
                        position::update_positions_branchless_layout(
                            icell, ix, iy, dx, dy, vx, vy, l, scale,
                        );
                    }
                }};
            }
            match &self.layout {
                AnyLayout::RowMajor(_) => {
                    if lanes {
                        simd::update_positions_branchless_lanes(
                            icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                        );
                    } else {
                        position::update_positions_branchless(
                            icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                        );
                    }
                }
                AnyLayout::L4D(l) => push_layout!(l),
                AnyLayout::Morton(l) => push_layout!(l),
                AnyLayout::Hilbert(l) => push_layout!(l),
            }
        }
    }

    /// Initial ρ deposit: always the scalar `Exact` kernel (off the hot
    /// path) so every `DepositPath` starts from bit-identical state.
    fn deposit_rho_initial(&mut self) {
        self.rho4.clear();
        for si in 0..self.species.len() {
            let w = self.species[si].deposit_weight(&self.grid);
            let arena = &self.species[si];
            accumulate::accumulate_redundant(
                &arena.p.icell,
                &arena.p.dx,
                &arena.p.dy,
                &mut self.rho4.rho4,
                w,
            );
        }
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
    }

    /// Per-step ρ deposit: clear once, accumulate every species' signed
    /// contribution through the configured kernel, reduce corners to grid.
    fn deposit_rho(&mut self) {
        self.rho4.clear();
        for si in 0..self.species.len() {
            let w = self.species[si].deposit_weight(&self.grid);
            match &self.pool {
                Some(pool) => {
                    let arena = &self.species[si];
                    accumulate::pool_accumulate_redundant(
                        pool,
                        &arena.p.icell,
                        &arena.p.dx,
                        &arena.p.dy,
                        &mut self.rho4,
                        &mut self.rho_arenas,
                        w,
                        self.cfg.deposit_path,
                        self.cfg.kernel_path,
                    );
                }
                None => {
                    let arena = &self.species[si];
                    crate::kernels::deposit::select_kernel(
                        self.cfg.deposit_path,
                        self.cfg.kernel_path,
                    )(
                        &arena.p.icell,
                        &arena.p.dx,
                        &arena.p.dy,
                        &mut self.rho4.rho4,
                        w,
                    )
                }
            }
        }
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
    }

    /// Per-step **J** deposit, mirroring [`deposit_rho`](Self::deposit_rho)
    /// over the 12-double current rows.
    fn deposit_current(&mut self) {
        self.j12.clear();
        for si in 0..self.species.len() {
            let w = self.species[si].deposit_weight(&self.grid);
            match &self.pool {
                Some(pool) => {
                    let arena = &self.species[si];
                    current::pool_deposit_current(
                        pool,
                        &arena.p.icell,
                        &arena.p.dx,
                        &arena.p.dy,
                        &arena.p.vx,
                        &arena.p.vy,
                        &arena.vz,
                        &mut self.j12,
                        &mut self.j_arenas,
                        w,
                        self.cfg.deposit_path,
                        self.cfg.kernel_path,
                    );
                }
                None => {
                    let arena = &self.species[si];
                    current::select_current_kernel(self.cfg.deposit_path, self.cfg.kernel_path)(
                        &arena.p.icell,
                        &arena.p.dx,
                        &arena.p.dy,
                        &arena.p.vx,
                        &arena.p.vy,
                        &arena.vz,
                        &mut self.j12.j12,
                        w,
                    )
                }
            }
        }
        self.j12.reduce_to_grid(
            self.layout.as_dyn(),
            &mut self.jx,
            &mut self.jy,
            &mut self.jz,
        );
    }

    fn solve_field(&mut self) {
        match &self.pool {
            Some(pool) => self.solver.solve_e_pooled(
                &self.field.rho,
                &mut self.field.ex,
                &mut self.field.ey,
                &mut self.solve_scratch,
                pool.as_ref(),
            ),
            None => self.solver.solve_e_with(
                &self.field.rho,
                &mut self.field.ex,
                &mut self.field.ey,
                &mut self.solve_scratch,
            ),
        }
    }

    fn refresh_field_views(&mut self) {
        // Physical units: no pre-scaling of the stored field.
        self.e8
            .fill_from(&self.field, self.layout.as_dyn(), 1.0, 1.0);
    }

    fn record_diag(&mut self) {
        self.diag.history.push(DiagSample {
            time: self.step_count as f64 * self.cfg.dt,
            kinetic: self.kinetic_energy(),
            field: self.field_energy(),
            ex_mode: self.ex_mode_amplitude(1),
        });
    }

    // ---------------- checkpoint / restore ----------------

    /// Capture a self-contained checksummed snapshot (EM wire format,
    /// `b"PIC2DEMS"` magic — never confusable with legacy v1 snapshots).
    pub fn checkpoint(&self) -> Vec<u8> {
        let state = EmState {
            config_fingerprint: ckpt::em_config_fingerprint(&self.cfg),
            step_count: self.step_count as u64,
            rng_state: self.rng.state(),
            charge_ref: self.charge_ref,
            hot_path: ckpt::HotPathMeta {
                kernel_path: self.cfg.kernel_path,
                deposit_path: self.cfg.deposit_path,
                sort_period: self.cfg.sort_period as u64,
                controller: self
                    .controller
                    .as_ref()
                    .map(|c| c.encode_state())
                    .unwrap_or_default(),
            },
            species: self
                .species
                .iter()
                .map(|s| EmSpeciesState {
                    particles: s.p.clone(),
                    vz: s.vz.clone(),
                })
                .collect(),
            rho: self.field.rho.clone(),
            ex: self.field.ex.clone(),
            ey: self.field.ey.clone(),
            jx: self.jx.clone(),
            jy: self.jy.clone(),
            jz: self.jz.clone(),
            diag: self.diag.history.clone(),
        };
        ckpt::encode_em(&state)
    }

    /// Restore from a snapshot taken by [`checkpoint`](Self::checkpoint).
    /// Verifies checksum, version, config fingerprint (which covers the
    /// species table) and array shapes before touching any state; stepping
    /// on after a restore is bit-exact against the run that snapshotted.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<(), PicError> {
        let state = ckpt::decode_em(snapshot)?;
        let expect = ckpt::em_config_fingerprint(&self.cfg);
        if state.config_fingerprint != expect {
            return Err(PicError::Checkpoint(format!(
                "EM snapshot fingerprint {:#018x} does not match the config ({expect:#018x})",
                state.config_fingerprint
            )));
        }
        if state.species.len() != self.cfg.species.len() {
            return Err(PicError::Checkpoint(format!(
                "EM snapshot has {} species, config has {}",
                state.species.len(),
                self.cfg.species.len()
            )));
        }
        let ng = self.field.rho.len();
        for arr in [
            &state.rho, &state.ex, &state.ey, &state.jx, &state.jy, &state.jz,
        ] {
            if arr.len() != ng {
                return Err(PicError::Checkpoint(format!(
                    "EM snapshot grid length {} does not match the config ({ng})",
                    arr.len()
                )));
            }
        }
        // Resume the snapshot's scheduler state before adopting anything
        // (a bad blob must reject without touching live state).
        let restored_ctrl = self
            .controller
            .as_ref()
            .map(|c| HotPathController::resume(c.config().clone(), &state.hot_path))
            .transpose()?;
        // Adopt the hot-path metadata so the resumed run continues on the
        // paths and cadence the capturing run was on.
        self.cfg.kernel_path = state.hot_path.kernel_path;
        self.cfg.deposit_path = state.hot_path.deposit_path;
        self.cfg.sort_period = state.hot_path.sort_period as usize;
        self.controller = restored_ctrl;
        self.species = state
            .species
            .into_iter()
            .zip(&self.cfg.species)
            .map(|(s, def)| SpeciesArena::from_parts(def.clone(), s.particles, s.vz, &self.grid))
            .collect();
        self.field.rho.copy_from_slice(&state.rho);
        self.field.ex.copy_from_slice(&state.ex);
        self.field.ey.copy_from_slice(&state.ey);
        self.jx.copy_from_slice(&state.jx);
        self.jy.copy_from_slice(&state.jy);
        self.jz.copy_from_slice(&state.jz);
        self.step_count = state.step_count as usize;
        self.rng = Rng::from_state(state.rng_state);
        self.charge_ref = state.charge_ref;
        self.diag = Diagnostics {
            history: state.diag,
        };
        self.refresh_field_views();
        Ok(())
    }

    // ---------------- invariants ----------------

    /// Scan run invariants: finite fields and particles, in-range cell
    /// coordinates, per-species conservation of marker counts' deposited
    /// charge against the initialization reference, and bounded total
    /// energy drift (when the field solve is on). `None` means healthy.
    pub fn scan_violation(&self, wcfg: &WatchdogConfig) -> Option<WatchdogViolation> {
        match self.check_invariants(wcfg) {
            Ok(()) => None,
            Err(detail) => Some(WatchdogViolation {
                step: self.step_count as u64,
                detail,
            }),
        }
    }

    fn check_invariants(&self, wcfg: &WatchdogConfig) -> Result<(), String> {
        for (name, arr) in [
            ("rho", &self.field.rho),
            ("ex", &self.field.ex),
            ("ey", &self.field.ey),
            ("jx", &self.jx),
            ("jy", &self.jy),
            ("jz", &self.jz),
        ] {
            if let Some(i) = arr.iter().position(|v| !v.is_finite()) {
                return Err(format!("non-finite {name} at grid index {i}"));
            }
        }
        let ncells = self.layout.as_dyn().ncells() as u32;
        for s in &self.species {
            for i in 0..s.len() {
                if s.p.icell[i] >= ncells {
                    return Err(format!(
                        "species '{}' particle {i} cell {} out of range",
                        s.def.name, s.p.icell[i]
                    ));
                }
                let (dx, dy) = (s.p.dx[i], s.p.dy[i]);
                if !(0.0..1.0).contains(&dx) || !(0.0..1.0).contains(&dy) {
                    return Err(format!(
                        "species '{}' particle {i} offsets ({dx}, {dy}) out of [0,1)",
                        s.def.name
                    ));
                }
                if !s.p.vx[i].is_finite() || !s.p.vy[i].is_finite() || !s.vz[i].is_finite() {
                    return Err(format!(
                        "species '{}' particle {i} has a non-finite velocity",
                        s.def.name
                    ));
                }
            }
        }
        // Charge conservation. A neutral plasma's reference is ~0, so the
        // tolerance is scaled by the total |deposited charge|, not |ref|.
        let scale: f64 = self
            .species
            .iter()
            .map(|s| (s.deposit_weight(&self.grid) * s.len() as f64).abs())
            .sum();
        let total = self.total_charge();
        let tol = wcfg.charge_rel_tol * scale.max(1.0);
        if (total - self.charge_ref).abs() > tol {
            return Err(format!(
                "total charge {total} drifted from reference {} (tol {tol})",
                self.charge_ref
            ));
        }
        if self.cfg.solve_e {
            let drift = self.diag.relative_energy_drift();
            if !drift.is_finite() || drift.abs() > wcfg.max_energy_drift {
                return Err(format!(
                    "relative energy drift {drift} exceeds {}",
                    wcfg.max_energy_drift
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: usize) -> EmConfig {
        let mut cfg = EmConfig::ion_acoustic(n);
        cfg.grid_nx = 16;
        cfg.grid_ny = 16;
        cfg.lx = 4.0 * std::f64::consts::PI;
        cfg.ly = 4.0 * std::f64::consts::PI;
        cfg
    }

    #[test]
    fn builds_and_steps_multi_species() {
        let mut sim = EmSimulation::new(tiny(500)).unwrap();
        sim.run(5);
        assert_eq!(sim.steps(), 5);
        assert_eq!(sim.species().len(), 2);
        assert_eq!(sim.diagnostics().history.len(), 6);
        assert!(sim.scan_violation(&WatchdogConfig::default()).is_none());
    }

    #[test]
    fn kernel_paths_bit_identical_on_exact_deposit() {
        let mut a = tiny(400);
        a.deposit_path = DepositPath::Exact;
        a.kernel_path = KernelPath::Scalar;
        let mut b = a.clone();
        b.kernel_path = KernelPath::Lanes;
        let mut sa = EmSimulation::new(a).unwrap();
        let mut sb = EmSimulation::new(b).unwrap();
        sa.run(10);
        sb.run(10);
        for (x, y) in sa.species().iter().zip(sb.species()) {
            assert_eq!(x.p.vx, y.p.vx);
            assert_eq!(x.p.vy, y.p.vy);
            assert_eq!(x.vz, y.vz);
            assert_eq!(x.p.icell, y.p.icell);
        }
        assert_eq!(sa.rho(), sb.rho());
        assert_eq!(sa.j_field().0, sb.j_field().0);
        assert_eq!(sa.j_field().2, sb.j_field().2);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let mut sim = EmSimulation::new(tiny(300)).unwrap();
        sim.run(4);
        let snap = sim.checkpoint();
        let mut resumed = EmSimulation::from_snapshot(tiny(300), &snap).unwrap();
        sim.run(5);
        resumed.run(5);
        assert_eq!(sim.checkpoint(), resumed.checkpoint());
    }

    #[test]
    fn restore_rejects_wrong_species_table() {
        let sim = EmSimulation::new(tiny(300)).unwrap();
        let snap = sim.checkpoint();
        let mut other_cfg = tiny(300);
        other_cfg.species[1].mass = 50.0;
        match EmSimulation::from_snapshot(other_cfg, &snap) {
            Err(PicError::Checkpoint(_)) => {}
            Err(e) => panic!("expected a checkpoint error, got {e}"),
            Ok(_) => panic!("restore into a different species table must fail"),
        }
    }

    #[test]
    fn cyclotron_matches_analytic_gyro_period() {
        let cfg = EmConfig::cyclotron(64);
        let dt = cfg.dt;
        let mut sim = EmSimulation::new(cfg).unwrap();
        // Ω = |q|B/m = 1 ⇒ analytic gyro-period 2π. Accumulate the mean
        // velocity's rotation over many steps (the per-step angle, 0.05
        // rad, never wraps) and derive the simulated period from it.
        let steps = 126;
        let mut prev = sim.moments()[0].mean_v;
        let mut total_rotation = 0.0;
        for _ in 0..steps {
            sim.step();
            let cur = sim.moments()[0].mean_v;
            let da = cur[1].atan2(cur[0]) - prev[1].atan2(prev[0]);
            let da = (da + std::f64::consts::PI).rem_euclid(2.0 * std::f64::consts::PI)
                - std::f64::consts::PI;
            total_rotation += da;
            prev = cur;
        }
        let period = steps as f64 * dt * 2.0 * std::f64::consts::PI / total_rotation.abs();
        let analytic = 2.0 * std::f64::consts::PI;
        let rel = (period - analytic).abs() / analytic;
        // Boris period error is O((ΩΔt)²/12) ≈ 2·10⁻⁴ ≪ the 1 % gate.
        assert!(rel < 0.01, "gyro-period {period} vs analytic {analytic}");
        // Speed is exactly conserved by the rotation (E = 0).
        let m1 = sim.moments()[0];
        let s1 = (m1.mean_v[0].powi(2) + m1.mean_v[1].powi(2)).sqrt();
        assert!((s1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn legacy_snapshot_restores_into_one_species_world() {
        let cfg = {
            let mut c = crate::sim::PicConfig::landau_table1(400);
            c.grid_nx = 16;
            c.grid_ny = 16;
            c
        };
        let mut legacy = crate::sim::Simulation::new(cfg.clone()).unwrap();
        legacy.run(3);
        let snap = legacy.checkpoint();
        let em = EmSimulation::from_legacy_snapshot(&cfg, &snap).unwrap();
        assert_eq!(em.species().len(), 1);
        assert_eq!(em.species()[0].len(), 400);
        assert_eq!(em.steps(), 3);
        assert!(em.species()[0].vz.iter().all(|&v| v == 0.0));
        // Hoisted velocities were converted back to physical units.
        let vx_phys = legacy.particles().vx[0] * em.grid().dx() / cfg.dt;
        assert!((em.species()[0].p.vx[0] - vx_phys).abs() < 1e-15 * vx_phys.abs().max(1.0));
    }

    #[test]
    fn replicated_ranks_reduce_to_the_full_run() {
        let mut cfg = tiny(240);
        cfg.sort_period = 3;
        let mut full = EmSimulation::new(cfg.clone()).unwrap();

        // The initial allreduce: every rank's sampled partial ρ is known
        // deterministically, so precompute the global sum from throwaway
        // shells and hand each real rank the reduced copy at init.
        let nranks = 3;
        let rank_cfg = |r: usize| {
            let mut c = cfg.clone();
            c.replica = Some((r, nranks));
            c
        };
        let mut rho0: Vec<f64> = Vec::new();
        for r in 0..nranks {
            let partial = EmSimulation::new(rank_cfg(r)).unwrap().rho().to_vec();
            if rho0.is_empty() {
                rho0 = partial;
            } else {
                for (a, b) in rho0.iter_mut().zip(&partial) {
                    *a += *b;
                }
            }
        }
        let mut ranks: Vec<EmSimulation> = (0..nranks)
            .map(|r| {
                EmSimulation::new_with_reduce(rank_cfg(r), |arr| arr.copy_from_slice(&rho0))
                    .unwrap()
            })
            .collect();
        let total: usize = ranks.iter().map(|r| r.species()[0].len()).sum();
        assert_eq!(total, full.species()[0].len());

        for _ in 0..4 {
            full.step();
            // Allreduce over the step halves: every rank deposits its
            // partials, the sums are written back, every rank solves.
            for r in &mut ranks {
                r.step_pre_reduce();
            }
            let ng = rho0.len();
            let mut sums = vec![vec![0.0; ng]; 4];
            for r in &mut ranks {
                for (s, arr) in sums[0].iter_mut().zip(r.rho()) {
                    *s += *arr;
                }
                let (jx, jy, jz) = r.j_field();
                for (s, arr) in sums[1].iter_mut().zip(jx) {
                    *s += *arr;
                }
                for (s, arr) in sums[2].iter_mut().zip(jy) {
                    *s += *arr;
                }
                for (s, arr) in sums[3].iter_mut().zip(jz) {
                    *s += *arr;
                }
            }
            for r in &mut ranks {
                r.rho_mut().copy_from_slice(&sums[0]);
                let (jx, jy, jz) = r.j_mut();
                jx.copy_from_slice(&sums[1]);
                jy.copy_from_slice(&sums[2]);
                jz.copy_from_slice(&sums[3]);
                r.step_post_reduce();
            }
        }
        // Every rank now carries the reduced global ρ; it must match the
        // full run's within reassociation noise (the rank partial sums
        // accumulate in a different order than the one-array deposit).
        for r in &ranks {
            for (a, b) in r.rho().iter().zip(full.rho()) {
                assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let mut cfg = tiny(100);
        cfg.species.clear();
        assert!(EmSimulation::new(cfg).is_err());
        let mut cfg = tiny(100);
        cfg.ly *= 2.0; // non-square cells
        assert!(EmSimulation::new(cfg).is_err());
        let mut cfg = tiny(100);
        cfg.replica = Some((3, 3));
        assert!(EmSimulation::new(cfg).is_err());
    }
}
