//! The full PIC simulation loop with every paper knob exposed.
//!
//! [`PicConfig`] selects the data structures and loop shapes; [`Simulation`]
//! runs the leap-frog Vlasov–Poisson loop of the paper's Fig. 1 and records
//! per-phase wall-clock times ([`PhaseTimes`]) and physics diagnostics
//! ([`Diagnostics`]) — everything the table/figure harnesses need.
//!
//! ## Units
//!
//! Normalized plasma units: ε₀ = 1, electron charge `q = −1`, mass `m = 1`,
//! thermal speed 1. With the *hoisted* convention (§IV-D, default) particle
//! velocities are stored in grid cells per time step and the redundant field
//! carries the kick coefficients, so the inner loops are multiply-free; the
//! unhoisted baseline stores physical velocities and multiplies inside the
//! loops (and requires square cells, `Δx = Δy`, as all the paper's test
//! cases have).

use crate::control::{self, ControllerConfig, HotPathController};
use crate::fields::{Field2D, RedundantE, RedundantRho};
use crate::grid::Grid2D;
use crate::kernels::{self, accumulate, aos, deposit, fused, position, simd, velocity, SoaViewMut};
use crate::particles::{self, InitialDistribution, ParticlesAoS, ParticlesSoA};
use crate::pool::{ThreadPool, MAX_THREADS};
use crate::resilience::checkpoint::{self as ckpt};
use crate::rng::Rng;
use crate::sort;
use crate::PicError;
use sfc::{CellLayout, Hilbert, Morton, Ordering, RowMajor, L4D};
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use std::sync::Arc;
use std::time::Instant;

/// Electron charge in normalized units.
pub const QE: f64 = -1.0;
/// Electron mass in normalized units.
pub const ME: f64 = 1.0;

/// Particle storage layout (§IV-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticleLayout {
    /// Array of Structures — the baseline.
    Aos,
    /// Structure of Arrays — the vectorizable layout.
    Soa,
}

/// Grid-quantity storage layout (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldLayout {
    /// Standard 2-D grid-point arrays.
    Standard,
    /// Redundant cell-based arrays (4× memory, contiguous per-particle).
    Redundant,
}

/// Particle-loop structure (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopStructure {
    /// One fused loop doing kick + push + deposit.
    Fused,
    /// Three split loops.
    Split,
}

/// Instruction shape of the optimized inner kernels.
///
/// Both paths compute the same per-particle expressions in the same order,
/// so their results are bit-identical; they differ only in how the loops
/// are presented to the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Plain per-particle scalar loops.
    Scalar,
    /// Explicit lane-blocked loops ([`crate::kernels::simd`]): fixed-width
    /// blocks of 8 particles through array-of-lanes temporaries, which
    /// removes the bounds checks that keep the scalar loops from
    /// autovectorizing.
    Lanes,
}

pub use crate::kernels::deposit::DepositPath;

/// Shape of the update-positions loop (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionUpdate {
    /// `if` + real modulo + `floor()` call.
    NaiveIf,
    /// Unconditional integer modulo.
    ModuloInt,
    /// Branchless int-cast floor + bitwise AND wrap.
    Branchless,
}

/// A concrete layout instance for static-dispatch kernels.
#[derive(Debug, Clone)]
pub enum AnyLayout {
    /// Row-major (scan) order.
    RowMajor(RowMajor),
    /// L4D tiling.
    L4D(L4D),
    /// Morton / Z order.
    Morton(Morton),
    /// Hilbert order.
    Hilbert(Hilbert),
}

impl AnyLayout {
    /// Build from the `sfc` ordering enum.
    pub fn build(ord: Ordering, ncx: usize, ncy: usize) -> Result<Self, PicError> {
        Ok(match ord {
            Ordering::RowMajor | Ordering::ColMajor => {
                AnyLayout::RowMajor(RowMajor::new(ncx, ncy)?)
            }
            Ordering::L4D(size) => AnyLayout::L4D(L4D::new(ncx, ncy, size)?),
            Ordering::Morton => AnyLayout::Morton(Morton::new(ncx, ncy)?),
            Ordering::Hilbert => AnyLayout::Hilbert(Hilbert::new(ncx, ncy)?),
        })
    }

    /// Dynamic view for the O(ncells) administrative loops.
    pub fn as_dyn(&self) -> &dyn CellLayout {
        match self {
            AnyLayout::RowMajor(l) => l,
            AnyLayout::L4D(l) => l,
            AnyLayout::Morton(l) => l,
            AnyLayout::Hilbert(l) => l,
        }
    }

    /// True when the layout is plain row-major (enables the cheaper
    /// position-update path that re-derives `icell` arithmetically).
    pub fn is_row_major(&self) -> bool {
        matches!(self, AnyLayout::RowMajor(_))
    }
}

/// Cumulative wall-clock seconds per phase — the rows of Tables III–V.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Update-velocities loop.
    pub update_v: f64,
    /// Update-positions loop.
    pub update_x: f64,
    /// Charge-accumulation loop (including the fused loop when unsplit).
    pub accumulate: f64,
    /// Particle sorting.
    pub sort: f64,
    /// Redundant→grid ρ reduction + redundant E refill.
    pub convert: f64,
    /// Poisson solve.
    pub solve: f64,
}

impl PhaseTimes {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.update_v + self.update_x + self.accumulate + self.sort + self.convert + self.solve
    }

    /// The paper's “push” aggregate (update-velocities + update-positions,
    /// Table V terminology).
    pub fn push(&self) -> f64 {
        self.update_v + self.update_x
    }
}

/// One recorded diagnostic sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagSample {
    /// Simulation time.
    pub time: f64,
    /// Kinetic energy (physical units).
    pub kinetic: f64,
    /// Electrostatic field energy `½∫|E|²`.
    pub field: f64,
    /// Amplitude of the fundamental `E_x` Fourier mode along x — the
    /// quantity whose exponential envelope gives the Landau damping /
    /// two-stream growth rate, free of the particle-noise floor that sits
    /// in the total field energy.
    pub ex_mode: f64,
}

impl DiagSample {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.field
    }
}

/// Physics diagnostics over the run.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// One sample per step (plus the initial state).
    pub history: Vec<DiagSample>,
}

impl Diagnostics {
    /// `max |E_total(t) − E_total(0)| / E_total(0)` over the run.
    pub fn relative_energy_drift(&self) -> f64 {
        let e0 = match self.history.first() {
            Some(s) => s.total(),
            None => return 0.0,
        };
        self.history
            .iter()
            .map(|s| (s.total() - e0).abs() / e0.abs().max(1e-300))
            .fold(0.0, f64::max)
    }

    /// Fit the exponential damping/growth rate γ of the field energy:
    /// least-squares slope of `ln W_E(t)` over the samples in
    /// `[t0, t1]`, divided by 2 (since `W_E ∝ e^{2γt}` for `E ∝ e^{γt}`).
    /// Returns `None` with fewer than 3 usable samples.
    pub fn field_energy_rate(&self, t0: f64, t1: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .history
            .iter()
            .filter(|s| s.time >= t0 && s.time <= t1 && s.field > 0.0)
            .map(|s| (s.time, s.field.ln()))
            .collect();
        linear_fit(&pts).map(|slope| 0.5 * slope)
    }

    /// Local maxima of the `|E_x|` fundamental-mode amplitude in `[t0, t1]`
    /// — the oscillation peaks whose envelope decays at the Landau rate.
    pub fn mode_peaks(&self, t0: f64, t1: f64) -> Vec<(f64, f64)> {
        let h: Vec<&DiagSample> = self
            .history
            .iter()
            .filter(|s| s.time >= t0 && s.time <= t1)
            .collect();
        let mut peaks = Vec::new();
        for w in h.windows(3) {
            if w[1].ex_mode > w[0].ex_mode && w[1].ex_mode >= w[2].ex_mode && w[1].ex_mode > 0.0 {
                peaks.push((w[1].time, w[1].ex_mode));
            }
        }
        peaks
    }

    /// γ from the envelope of the fundamental-mode oscillation peaks —
    /// the standard Landau-damping measurement (the mode oscillates at the
    /// Langmuir frequency; only its peak envelope decays exponentially).
    /// Returns `None` with fewer than 2 peaks in the window.
    pub fn mode_envelope_rate(&self, t0: f64, t1: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .mode_peaks(t0, t1)
            .into_iter()
            .map(|(t, a)| (t, a.ln()))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        linear_fit(&pts)
    }

    /// γ from a direct least-squares fit of `ln |E_x mode|` over *all*
    /// samples in `[t0, t1]` — the right estimator for purely growing
    /// modes (two-stream: the unstable root has Re ω ≈ 0, so the amplitude
    /// rises monotonically and has no oscillation peaks to envelope-fit).
    pub fn mode_amplitude_rate(&self, t0: f64, t1: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .history
            .iter()
            .filter(|s| s.time >= t0 && s.time <= t1 && s.ex_mode > 0.0)
            .map(|s| (s.time, s.ex_mode.ln()))
            .collect();
        if pts.len() < 3 {
            return None;
        }
        linear_fit(&pts)
    }
}

/// Least-squares slope of `y(x)`; `None` when degenerate.
fn linear_fit(pts: &[(f64, f64)]) -> Option<f64> {
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-30 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Full configuration of one PIC run.
#[derive(Debug, Clone)]
pub struct PicConfig {
    /// Cells along x (power of two).
    pub grid_nx: usize,
    /// Cells along y (power of two).
    pub grid_ny: usize,
    /// Domain length along x.
    pub lx: f64,
    /// Domain length along y.
    pub ly: f64,
    /// Number of macro-particles.
    pub n_particles: usize,
    /// Time step.
    pub dt: f64,
    /// Initial phase-space distribution.
    pub distribution: InitialDistribution,
    /// Cell ordering for the redundant structures.
    pub ordering: Ordering,
    /// Particle storage layout.
    pub particle_layout: ParticleLayout,
    /// Grid-quantity storage layout.
    pub field_layout: FieldLayout,
    /// Loop structure.
    pub loop_structure: LoopStructure,
    /// Update-positions shape.
    pub position_update: PositionUpdate,
    /// Scalar vs explicit lane-blocked inner kernels (split-redundant SoA
    /// path; other paths always run scalar).
    pub kernel_path: KernelPath,
    /// Which deposition kernel the split-redundant paths (SoA and AoS) run.
    /// `Exact` preserves the scalar accumulation order bit-for-bit; the
    /// reassociated [`DepositPath::LaneReduce`] stays within the per-cell
    /// FP bound of `crates/core/src/kernels/deposit.rs`. Standard-field
    /// and fused paths deposit inline and ignore this knob; the initial
    /// deposit at construction always runs `Exact` so every path starts
    /// from identical state.
    pub deposit_path: DepositPath,
    /// Coefficient hoisting (§IV-D).
    pub hoisted: bool,
    /// Sort every `sort_period` steps (0 = never).
    pub sort_period: usize,
    /// Use the out-of-place sort (paper default) or in-place.
    pub sort_out_of_place: bool,
    /// Workers in the simulation's persistent thread pool (1 = sequential,
    /// no pool).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Process-parallel slice: sample all `n_particles` (deterministically in
    /// `seed`) but keep only indices `[start, end)` — the paper's §V-A
    /// scheme where every rank owns a fixed subset of one global particle
    /// population and the per-step allreduce of ρ (via
    /// [`Simulation::step_with_reduce`]) restores the global density.
    /// `None` keeps everything.
    pub keep_range: Option<(usize, usize)>,
    /// Spatial slice: sample all `n_particles` (deterministically in `seed`)
    /// but keep only those whose initial cell index falls in `[lo, hi)` —
    /// the domain-decomposed counterpart of `keep_range`, where a rank owns
    /// a contiguous range of the SFC cell ordering instead of a fixed index
    /// slice of the particle population. `None` keeps everything.
    pub keep_cells: Option<(u32, u32)>,
    /// Disorder-driven sort scheduling ([`crate::control`]). `Some`
    /// attaches a [`HotPathController`] that drives the sort schedule from
    /// the observed particle disorder; `None` keeps the fixed
    /// `sort_period` cadence. The profile is part of the checkpoint
    /// fingerprint (it shapes the trajectory); the scheduler state travels
    /// as snapshot metadata.
    pub controller: Option<crate::control::ControllerConfig>,
}

impl PicConfig {
    /// The paper's Table I test case — linear Landau damping on a 128×128
    /// grid — scaled to `n_particles` markers (the paper uses 50 million).
    /// Fully optimized settings (the ladder's last rung).
    pub fn landau_table1(n_particles: usize) -> Self {
        let k = 0.5;
        let l = 2.0 * std::f64::consts::PI / k; // 4π
        Self {
            grid_nx: 128,
            grid_ny: 128,
            lx: l,
            ly: l,
            n_particles,
            dt: 0.05,
            distribution: InitialDistribution::Landau { alpha: 0.01, k },
            ordering: Ordering::Morton,
            particle_layout: ParticleLayout::Soa,
            field_layout: FieldLayout::Redundant,
            loop_structure: LoopStructure::Split,
            position_update: PositionUpdate::Branchless,
            kernel_path: KernelPath::Lanes,
            deposit_path: DepositPath::LaneReduce,
            hoisted: true,
            sort_period: 20,
            sort_out_of_place: true,
            threads: 1,
            seed: 0xB1C0DE,
            keep_range: None,
            keep_cells: None,
            controller: None,
        }
    }

    /// Nonlinear Landau damping (α = 0.5).
    pub fn landau_nonlinear(n_particles: usize) -> Self {
        let mut cfg = Self::landau_table1(n_particles);
        cfg.distribution = InitialDistribution::Landau { alpha: 0.5, k: 0.5 };
        cfg
    }

    /// Two-stream instability test case.
    pub fn two_stream(n_particles: usize) -> Self {
        let k = 0.2;
        let l = 2.0 * std::f64::consts::PI / k;
        let mut cfg = Self::landau_table1(n_particles);
        cfg.lx = l;
        cfg.ly = l;
        cfg.distribution = InitialDistribution::TwoStream {
            alpha: 0.01,
            k,
            v0: 3.0,
            vt: 0.3,
        };
        cfg
    }

    /// The Table IV *baseline*: AoS, standard 2-D structures, one fused
    /// loop, naive-if positions, no hoisting.
    pub fn baseline(n_particles: usize) -> Self {
        let mut cfg = Self::landau_table1(n_particles);
        cfg.ordering = Ordering::RowMajor;
        cfg.particle_layout = ParticleLayout::Aos;
        cfg.field_layout = FieldLayout::Standard;
        cfg.loop_structure = LoopStructure::Fused;
        cfg.position_update = PositionUpdate::NaiveIf;
        cfg.kernel_path = KernelPath::Scalar;
        cfg.deposit_path = DepositPath::Exact;
        cfg.hoisted = false;
        cfg
    }

    fn validate(&self) -> Result<(), PicError> {
        if self.n_particles == 0 {
            return Err(PicError::Config("need at least one particle".into()));
        }
        if self.dt.is_nan() || self.dt <= 0.0 {
            return Err(PicError::Config(format!(
                "dt must be positive, got {}",
                self.dt
            )));
        }
        if self.field_layout == FieldLayout::Standard
            && !matches!(self.ordering, Ordering::RowMajor)
        {
            return Err(PicError::Config(
                "the standard field layout only supports row-major ordering".into(),
            ));
        }
        if self.loop_structure == LoopStructure::Fused
            && self.field_layout == FieldLayout::Redundant
            && !matches!(self.ordering, Ordering::RowMajor)
        {
            return Err(PicError::Config(
                "the fused redundant loop is implemented for row-major ordering only".into(),
            ));
        }
        Ok(())
    }
}

/// A running PIC simulation.
pub struct Simulation {
    cfg: PicConfig,
    grid: Grid2D,
    layout: AnyLayout,
    solver: PoissonSolver2D,
    /// SoA store — the primary representation.
    particles: ParticlesSoA,
    /// AoS mirror, maintained only when `cfg.particle_layout == Aos`.
    particles_aos: Option<ParticlesAoS>,
    scratch: ParticlesSoA,
    field: Field2D,
    e8: RedundantE,
    rho4: RedundantRho,
    /// Macro-particle weight times |q| (deposition magnitude).
    wq: f64,
    /// Macro-particle weight (number density per marker).
    weight: f64,
    step_count: usize,
    timers: PhaseTimes,
    diag: Diagnostics,
    /// The sampling RNG, retained past initialization so its stream
    /// position can be checkpointed and restored.
    rng: Rng,
    /// Total deposited charge right after initialization (post-reduce) —
    /// the conservation reference for the watchdog.
    charge_ref: f64,
    /// Persistent worker pool for the particle loops (`threads > 1` only);
    /// workers park between steps, so fork-join costs no thread spawns.
    /// Shared (`Arc`) so a multi-tenant runtime can run many simulations
    /// over one pool ([`new_shared`](Self::new_shared)); determinism depends
    /// only on the pool width, never on which jobs share it.
    pool: Option<Arc<ThreadPool>>,
    /// Per-worker private ρ₄ copies for the pooled deposition reduction,
    /// reused every step (zero steady-state allocation).
    rho_arenas: Vec<RedundantRho>,
    /// Reusable counting-sort buffers (histogram, prefix sums, cursors).
    sort_arena: sort::SortArena,
    /// Reusable spectral workspaces for the per-step Poisson solve.
    solve_scratch: SolveScratch,
    /// Sort scheduler (present when `cfg.controller` is set): drives the
    /// sort schedule from observed disorder.
    controller: Option<HotPathController>,
}

impl Simulation {
    /// Build and initialize a simulation: sample particles, deposit ρ, solve
    /// the initial field, and shift velocities back half a step (leap-frog).
    pub fn new(cfg: PicConfig) -> Result<Self, PicError> {
        Self::new_with_reduce(cfg, |_| {})
    }

    /// Like [`new`](Self::new), but calls `reduce` on the initial deposited
    /// ρ before the first Poisson solve — required in distributed runs (the
    /// ranks' partial densities must be summed before the initial field and
    /// the leap-frog half-kick are computed, exactly as at every later step).
    pub fn new_with_reduce(
        cfg: PicConfig,
        reduce: impl FnOnce(&mut [f64]),
    ) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, None)?, reduce)
    }

    /// Like [`new`](Self::new), but runs the particle loops over a worker
    /// pool shared with other simulations instead of building a private one.
    /// Trajectories depend only on the pool *width* (the deterministic
    /// i-mod-n striping), never on which tenants share the pool, so a run
    /// over a shared width-`n` pool is bit-identical to a private
    /// `threads = n` run.
    pub fn new_shared(cfg: PicConfig, pool: Arc<ThreadPool>) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, Some(pool))?, |_| {})
    }

    /// Rebuild a simulation directly from a checkpoint snapshot, without
    /// sampling and initializing a throwaway particle population first.
    /// The snapshot must carry `cfg`'s fingerprint
    /// ([`restore`](Self::restore) verifies checksum, version, fingerprint,
    /// and array shapes before touching anything); derived structures are
    /// rebuilt from the restored state, and stepping on is bit-exact
    /// against the run that took the snapshot.
    pub fn from_snapshot(cfg: PicConfig, snapshot: &[u8]) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, None)?;
        sim.restore(snapshot)?;
        Ok(sim)
    }

    /// [`from_snapshot`](Self::from_snapshot) over a shared pool — the
    /// resume path of a multi-tenant job runtime re-admitting a preempted
    /// job.
    pub fn from_snapshot_shared(
        cfg: PicConfig,
        snapshot: &[u8],
        pool: Arc<ThreadPool>,
    ) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, Some(pool))?;
        sim.restore(snapshot)?;
        Ok(sim)
    }

    /// Validate `cfg` and build the simulation chassis — grid, layout,
    /// solver, field arrays, executor, scratch — with an empty particle
    /// store. The caller either initializes a fresh population
    /// ([`init`](Self::init)) or restores a snapshot into it.
    fn shell(cfg: PicConfig, shared: Option<Arc<ThreadPool>>) -> Result<Self, PicError> {
        cfg.validate()?;
        let grid = Grid2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
        if !cfg.hoisted && (grid.dx() - grid.dy()).abs() > 1e-12 * grid.dx() {
            return Err(PicError::Config(
                "the unhoisted baseline requires square cells (Δx = Δy)".into(),
            ));
        }
        let layout = AnyLayout::build(cfg.ordering, cfg.grid_nx, cfg.grid_ny)?;
        let solver = PoissonSolver2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
        let weight = particles::particle_weight(&grid, cfg.n_particles);
        let field = Field2D::new(&grid);
        let e8 = RedundantE::new(layout.as_dyn());
        let rho4 = RedundantRho::new(layout.as_dyn());

        // The persistent executor: a shared pool if one was handed in, else
        // a private pool for the whole simulation lifetime (`threads > 1`),
        // plus the per-worker deposition arenas it reduces over (sized by
        // the executing pool's width, not `cfg.threads`).
        let pool = match shared {
            Some(p) => Some(p),
            None => (cfg.threads > 1).then(|| Arc::new(ThreadPool::new(cfg.threads))),
        };
        let rho_arenas = match (&pool, cfg.field_layout) {
            (Some(p), FieldLayout::Redundant) => (0..p.nthreads())
                .map(|_| RedundantRho::new(layout.as_dyn()))
                .collect(),
            _ => Vec::new(),
        };

        let controller = cfg
            .controller
            .clone()
            .map(|cc| HotPathController::new(cc, cfg.kernel_path, cfg.deposit_path));

        Ok(Self {
            // Deposition magnitude: macro-charge per unit area, so that the
            // accumulated grid values are a charge *density* (the CIC
            // weights sum to 1 per particle, and each grid point represents
            // a Δx·Δy patch).
            wq: weight * QE.abs() / (grid.dx() * grid.dy()),
            weight,
            grid,
            layout,
            solver,
            particles: ParticlesSoA::zeroed(0),
            particles_aos: None,
            scratch: ParticlesSoA::zeroed(0),
            field,
            e8,
            rho4,
            step_count: 0,
            timers: PhaseTimes::default(),
            diag: Diagnostics::default(),
            rng: Rng::seed_from_u64(cfg.seed),
            charge_ref: 0.0,
            pool,
            rho_arenas,
            sort_arena: sort::SortArena::new(),
            solve_scratch: SolveScratch::new(),
            controller,
            cfg,
        })
    }

    /// Initialize a [`shell`](Self::shell): sample the particle population,
    /// apply the `keep_range`/`keep_cells` filters, sort, deposit, solve the
    /// initial field, and take the leap-frog half-step back.
    fn init(mut sim: Self, reduce: impl FnOnce(&mut [f64])) -> Result<Self, PicError> {
        let mut particles = particles::initialize_with_rng(
            &sim.grid,
            sim.layout.as_dyn(),
            sim.cfg.distribution,
            sim.cfg.n_particles,
            &mut sim.rng,
        );
        if let Some((start, end)) = sim.cfg.keep_range {
            if start >= end || end > sim.cfg.n_particles {
                return Err(PicError::Config(format!(
                    "keep_range {start}..{end} out of bounds for {} particles",
                    sim.cfg.n_particles
                )));
            }
            let take = |v: &mut Vec<u32>| *v = v[start..end].to_vec();
            let takef = |v: &mut Vec<f64>| *v = v[start..end].to_vec();
            take(&mut particles.icell);
            take(&mut particles.ix);
            take(&mut particles.iy);
            takef(&mut particles.dx);
            takef(&mut particles.dy);
            takef(&mut particles.vx);
            takef(&mut particles.vy);
        }
        if let Some((lo, hi)) = sim.cfg.keep_cells {
            let ncells = sim.layout.as_dyn().ncells();
            if lo >= hi || hi as usize > ncells {
                return Err(PicError::Config(format!(
                    "keep_cells {lo}..{hi} out of bounds for {ncells} cells"
                )));
            }
            let mask: Vec<bool> = particles.icell.iter().map(|&c| lo <= c && c < hi).collect();
            fn retain_mask<T: Copy>(v: &mut Vec<T>, mask: &[bool]) {
                let mut i = 0;
                v.retain(|_| {
                    let keep = mask[i];
                    i += 1;
                    keep
                });
            }
            retain_mask(&mut particles.icell, &mask);
            retain_mask(&mut particles.ix, &mask);
            retain_mask(&mut particles.iy, &mask);
            retain_mask(&mut particles.dx, &mask);
            retain_mask(&mut particles.dy, &mask);
            retain_mask(&mut particles.vx, &mask);
            retain_mask(&mut particles.vy, &mask);
            if particles.is_empty() {
                return Err(PicError::Config(format!(
                    "keep_cells {lo}..{hi} holds no particles — subdomain too small"
                )));
            }
        }

        // Initial sort (paper's initialization line 1).
        let ncells = sim.layout.as_dyn().ncells();
        sort::sort_out_of_place(&mut particles, &mut sim.scratch, ncells);
        sim.particles = particles;

        // Initial deposit + solve (line 2), with the cross-rank reduction in
        // distributed runs.
        sim.deposit_initial();
        reduce(&mut sim.field.rho);
        sim.charge_ref = sim.field.rho.iter().sum();
        sim.solve_field();

        // Leap-frog half-step: v(−Δt/2) = v(0) − (q/m)·E(x₀)·Δt/2.
        sim.half_kick_back();

        // Velocity normalization for the hoisted convention.
        if sim.cfg.hoisted {
            let (sx, sy) = (sim.cfg.dt / sim.grid.dx(), sim.cfg.dt / sim.grid.dy());
            for v in sim.particles.vx.iter_mut() {
                *v *= sx;
            }
            for v in sim.particles.vy.iter_mut() {
                *v *= sy;
            }
        }
        sim.refresh_field_views();
        if sim.cfg.particle_layout == ParticleLayout::Aos {
            sim.particles_aos = Some(sim.particles.to_aos());
        }
        sim.record_diag();
        Ok(sim)
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &PicConfig {
        &self.cfg
    }

    /// The grid geometry.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step_count
    }

    /// Per-phase cumulative timings.
    pub fn timers(&self) -> PhaseTimes {
        self.timers
    }

    /// Zero the phase timers (for warmup-discarding harnesses).
    pub fn reset_timers(&mut self) {
        self.timers = PhaseTimes::default();
    }

    /// Physics diagnostics.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// Read-only particle view (SoA). For AoS-layout runs the AoS array is
    /// canonical between sorts; call [`sync_particles`](Self::sync_particles)
    /// first when reading mid-run.
    pub fn particles(&self) -> &ParticlesSoA {
        &self.particles
    }

    /// Charge density on grid points (row-major), as of the last step.
    pub fn rho(&self) -> &[f64] {
        &self.field.rho
    }

    /// Electric field on grid points (row-major).
    pub fn e_field(&self) -> (&[f64], &[f64]) {
        (&self.field.ex, &self.field.ey)
    }

    /// Mutable electric field on grid points (row-major) — for drivers that
    /// obtain E externally (a decomposed run receives its subdomain's field
    /// from the solving rank) and then finish the step with
    /// [`step_post_external_solve`](Self::step_post_external_solve).
    pub fn e_field_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.field.ex, &mut self.field.ey)
    }

    /// Mutable particle store (SoA). Drivers that migrate particles between
    /// ranks edit the arrays directly; only meaningful for SoA-layout runs
    /// (AoS runs keep a separate canonical mirror between sorts).
    pub fn particles_mut(&mut self) -> &mut ParticlesSoA {
        &mut self.particles
    }

    /// `(ρ, Ex, Ey)` in one borrow — for external-solver drivers that read
    /// the reduced density and write field values in a single pass (the
    /// slab-distributed solve consumes owned-point ρ while depositing
    /// solved E at this rank's interpolation points).
    pub fn field_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (&mut self.field.rho, &mut self.field.ex, &mut self.field.ey)
    }

    /// The active cell layout (dynamic view).
    pub fn cell_layout(&self) -> &dyn CellLayout {
        self.layout.as_dyn()
    }

    /// Current total deposited charge, `Σ ρ` over grid points.
    pub fn total_charge(&self) -> f64 {
        self.field.rho.iter().sum()
    }

    /// Total-charge reference captured at initialization (post-reduce).
    pub fn charge_reference(&self) -> f64 {
        self.charge_ref
    }

    /// Re-declare the spatial slice this simulation owns
    /// ([`PicConfig::keep_cells`]), without touching live state.
    ///
    /// `keep_cells` only filters the *initial* population; afterwards it
    /// identifies the subdomain in the checkpoint fingerprint, so snapshots
    /// can never restore into a simulation owning different cells. A live
    /// re-partition legitimately changes the owned range: the driver
    /// migrates the particles itself, then calls this so the fingerprint
    /// follows the new cut — adopting a snapshot taken under a given range
    /// likewise requires declaring that range first. `None` declares full
    /// ownership (the replicated fallback at one rank).
    pub fn set_keep_cells(&mut self, range: Option<(u32, u32)>) -> Result<(), PicError> {
        if let Some((lo, hi)) = range {
            let ncells = self.layout.as_dyn().ncells() as u32;
            if lo >= hi || hi > ncells {
                return Err(PicError::Config(format!(
                    "keep_cells {lo}..{hi} out of bounds for {ncells} cells"
                )));
            }
        }
        self.cfg.keep_cells = range;
        Ok(())
    }

    // ---------------- checkpoint / restart ----------------

    /// Capture the complete restorable state as a versioned, checksummed
    /// binary snapshot. Restoring it (into a simulation built from the
    /// same [`PicConfig`]) and stepping on is bit-exact against an
    /// uninterrupted run, for both SoA and AoS particle layouts.
    pub fn checkpoint(&self) -> Vec<u8> {
        // AoS runs keep the AoS array canonical between sorts; serialize
        // from it so no stale SoA data leaks into the snapshot. The
        // conversion copies f64/u32 values verbatim — no precision loss.
        // SoA runs serialize straight from the live store: cloning a
        // multi-megabyte particle array per coordinated checkpoint was
        // the largest single cost of the resilient step loop.
        let converted;
        let particles = match &self.particles_aos {
            Some(aos) => {
                converted = aos.to_soa();
                &converted
            }
            None => &self.particles,
        };
        let hot_path = ckpt::HotPathMeta {
            kernel_path: self.cfg.kernel_path,
            deposit_path: self.cfg.deposit_path,
            sort_period: self.cfg.sort_period as u64,
            controller: self
                .controller
                .as_ref()
                .map(|c| c.encode_state())
                .unwrap_or_default(),
        };
        ckpt::encode_view(&ckpt::SimStateView {
            config_fingerprint: ckpt::config_fingerprint(&self.cfg),
            step_count: self.step_count as u64,
            rng_state: self.rng.state(),
            charge_ref: self.charge_ref,
            hot_path: &hot_path,
            particles,
            rho: &self.field.rho,
            ex: &self.field.ex,
            ey: &self.field.ey,
            diag: &self.diag.history,
        })
    }

    /// Replace the simulation state with a decoded snapshot.
    ///
    /// Rejects (without touching current state) snapshots that fail the
    /// checksum, carry a different format version, belong to a different
    /// configuration, or whose array shapes disagree with this
    /// simulation's grid. Derived structures (the redundant field view,
    /// the AoS mirror, the sort scratch buffer) are rebuilt, not restored
    /// — they are deterministic functions of the restored state.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<(), PicError> {
        let st = ckpt::decode(snapshot)?;
        if st.config_fingerprint != ckpt::config_fingerprint(&self.cfg) {
            return Err(PicError::Checkpoint(
                "snapshot belongs to a different configuration".into(),
            ));
        }
        let ng = self.grid.ncells();
        if st.rho.len() != ng || st.ex.len() != ng || st.ey.len() != ng {
            return Err(PicError::Checkpoint(format!(
                "snapshot grid size {} does not match {} cells",
                st.rho.len(),
                ng
            )));
        }
        let ncells = self.layout.as_dyn().ncells();
        if st.particles.icell.iter().any(|&c| (c as usize) >= ncells) {
            return Err(PicError::Checkpoint(
                "snapshot particle cell index out of range".into(),
            ));
        }
        // Resume the snapshot's scheduler state before adopting anything
        // (a bad blob must reject without touching live state).
        let restored_ctrl = self
            .controller
            .as_ref()
            .map(|c| HotPathController::resume(c.config().clone(), &st.hot_path))
            .transpose()?;

        // Adopt the hot-path metadata: the snapshot records the paths and
        // cadence the capturing run was on, and a resumed run continues on
        // them rather than silently switching.
        self.cfg.kernel_path = st.hot_path.kernel_path;
        self.cfg.deposit_path = st.hot_path.deposit_path;
        self.cfg.sort_period = st.hot_path.sort_period as usize;
        self.controller = restored_ctrl;

        self.step_count = st.step_count as usize;
        self.rng = Rng::from_state(st.rng_state);
        self.charge_ref = st.charge_ref;
        self.scratch = ParticlesSoA::zeroed(st.particles.len());
        self.particles = st.particles;
        self.field.rho = st.rho;
        self.field.ex = st.ex;
        self.field.ey = st.ey;
        self.diag.history = st.diag;
        self.rho4.clear();
        self.refresh_field_views();
        self.particles_aos =
            (self.cfg.particle_layout == ParticleLayout::Aos).then(|| self.particles.to_aos());
        Ok(())
    }

    /// Write a checkpoint to a file.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<(), PicError> {
        std::fs::write(path.as_ref(), self.checkpoint())
            .map_err(|e| PicError::Io(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Restore from a checkpoint file written by
    /// [`save_checkpoint`](Self::save_checkpoint).
    pub fn restore_from_file(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), PicError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| PicError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        self.restore(&bytes)
    }

    /// Deposit the initial charge without moving particles. Always runs the
    /// scalar `Exact` kernel (off the hot path), so every [`DepositPath`]
    /// starts a run from bit-identical initial state.
    fn deposit_initial(&mut self) {
        self.rho4.clear();
        accumulate::accumulate_redundant(
            &self.particles.icell,
            &self.particles.dx,
            &self.particles.dy,
            &mut self.rho4.rho4,
            self.wq * QE.signum(),
        );
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
    }

    /// Solve Poisson from `field.rho` into `field.ex/ey`. Multi-threaded
    /// runs stripe the FFT passes over the persistent pool
    /// ([`PoissonSolver2D::solve_e_pooled`]); the two paths are bit-exact,
    /// so trajectories stay invariant under the thread count.
    fn solve_field(&mut self) {
        let t = Instant::now();
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
        self.timers.solve += t.elapsed().as_secs_f64();
    }

    /// Rebuild the redundant (possibly scaled) field view from `field`.
    fn refresh_field_views(&mut self) {
        let t = Instant::now();
        if self.cfg.field_layout == FieldLayout::Redundant {
            let (sx, sy) = self.kick_scales();
            self.e8.fill_from(&self.field, self.layout.as_dyn(), sx, sy);
        }
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    /// Per-axis field pre-scale factors for the redundant view.
    fn kick_scales(&self) -> (f64, f64) {
        if self.cfg.hoisted {
            // Δv_grid = (q/m)·E·Δt · (Δt/Δ) — all folded into the stored field.
            let c = QE * self.cfg.dt / ME;
            (
                c * self.cfg.dt / self.grid.dx(),
                c * self.cfg.dt / self.grid.dy(),
            )
        } else {
            (1.0, 1.0)
        }
    }

    /// A pre-scaled copy of the standard field arrays: `E · qΔt²/(mΔ)` per
    /// axis — the §IV-D hoisting applied to the standard layout (one
    /// O(ncells) pass per step instead of O(N) per-particle multiplies).
    fn scaled_standard_field(&self) -> Field2D {
        let (sx, sy) = self.kick_scales();
        let mut f = self.field.clone();
        for v in f.ex.iter_mut() {
            *v *= sx;
        }
        for v in f.ey.iter_mut() {
            *v *= sy;
        }
        f
    }

    /// `(coeff_x, coeff_y)` for unhoisted kicks, `scale` for unhoisted pushes.
    fn unhoisted_coeffs(&self) -> (f64, f64, f64) {
        let c = QE * self.cfg.dt / ME;
        (c, c, self.cfg.dt / self.grid.dx())
    }

    /// Shift velocities back Δt/2 using the freshly solved initial field
    /// (physical velocity units at this point).
    fn half_kick_back(&mut self) {
        let mut e8 = RedundantE::new(self.layout.as_dyn());
        e8.fill_from(&self.field, self.layout.as_dyn(), 1.0, 1.0);
        let c = -0.5 * QE * self.cfg.dt / ME;
        velocity::update_velocities_redundant(
            &self.particles.icell,
            &self.particles.dx,
            &self.particles.dy,
            &mut self.particles.vx,
            &mut self.particles.vy,
            &e8.e8,
            c,
            c,
        );
    }

    fn nchunks(&self) -> usize {
        self.cfg.threads.max(1) * 4
    }

    /// Advance one time step (paper Fig. 1, lines 4–13).
    pub fn step(&mut self) {
        self.step_with_reduce(|_| {});
    }

    /// Advance one step, calling `reduce` on the freshly deposited grid ρ
    /// *before* the Poisson solve. This is the hook for the paper's
    /// process-level parallelism (§V-A): with particles split across ranks,
    /// `reduce` performs the `MPI_ALLREDUCE` that sums the per-rank charge
    /// densities, and every rank then solves Poisson over the whole grid.
    pub fn step_with_reduce(&mut self, reduce: impl FnOnce(&mut [f64])) {
        self.step_pre_reduce();
        // Charge reduction across ranks (no-op in single-process runs).
        reduce(&mut self.field.rho);
        self.step_post_reduce();
    }

    /// First half of a step: sort (periodically) and run the particle
    /// loops, leaving the freshly deposited per-rank ρ in
    /// [`rho_mut`](Self::rho_mut). Distributed drivers that cannot express
    /// their reduction as a closure (e.g. a fallible collective that may
    /// need recovery) call this, reduce ρ themselves, then finish the step
    /// with [`step_post_reduce`](Self::step_post_reduce).
    pub fn step_pre_reduce(&mut self) {
        self.step_count += 1;

        // Periodic sort (lines 4–6): disorder-driven when a controller is
        // attached, the fixed configured cadence otherwise.
        let sort_now = match &self.controller {
            Some(c) => c.should_sort(),
            None => {
                self.cfg.sort_period > 0 && self.step_count.is_multiple_of(self.cfg.sort_period)
            }
        };
        if sort_now {
            self.sort_particles();
            if let Some(c) = self.controller.as_mut() {
                c.on_sort();
            }
        }

        // Particle loops (lines 7–12).
        match self.cfg.particle_layout {
            ParticleLayout::Soa => self.step_soa(),
            ParticleLayout::Aos => self.step_aos(),
        }
        self.observe_controller();
    }

    /// Feed the attached controller this step's sampled particle disorder.
    fn observe_controller(&mut self) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let stride = c.config().stride;
        let cells = self.grid.ncells();
        let d = match &self.particles_aos {
            Some(aos) => {
                control::measure_disorder_with(aos.p.len(), stride, cells, |i| aos.p[i].icell)
            }
            None => control::measure_disorder(&self.particles.icell, stride, cells),
        };
        c.observe(d);
    }

    /// Second half of a step: Poisson solve on the (reduced) ρ and
    /// diagnostics. Must follow a [`step_pre_reduce`](Self::step_pre_reduce).
    pub fn step_post_reduce(&mut self) {
        // ρ₄ → grid ρ (redundant path) happened inside step_*; solve (line 13).
        self.solve_field();
        self.refresh_field_views();
        self.record_diag();
    }

    /// Mutable view of the deposited charge density, for in-place reduction
    /// between [`step_pre_reduce`](Self::step_pre_reduce) and
    /// [`step_post_reduce`](Self::step_post_reduce).
    pub fn rho_mut(&mut self) -> &mut [f64] {
        &mut self.field.rho
    }

    /// Finish a step whose Poisson solve happened *outside* this simulation:
    /// rebuild the redundant field view from the externally written
    /// [`e_field_mut`](Self::e_field_mut) arrays and record diagnostics.
    /// The decomposed driver uses this — one rank solves the global field
    /// and scatters each subdomain's E values, so the local solver never
    /// runs. Must follow a [`step_pre_reduce`](Self::step_pre_reduce).
    ///
    /// Diagnostics recorded here are *local* (this rank's particles, and
    /// field values only valid on the subdomain's points) — meaningful
    /// after a cross-rank reduction, not per rank.
    pub fn step_post_external_solve(&mut self) {
        self.refresh_field_views();
        self.record_diag();
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Change the fixed sort cadence at runtime (0 = never). Ignored while
    /// a controller is attached — the controller owns the sort schedule.
    pub fn set_sort_period(&mut self, period: usize) {
        self.cfg.sort_period = period;
    }

    /// Attach a sort scheduler ([`crate::control`]) on the currently active
    /// kernel/deposit paths. Also records the
    /// profile in the configuration, so subsequent checkpoints fingerprint
    /// the controller-enabled run.
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

    /// Tell the attached controller that an external mechanism (rank
    /// migration, a live re-partition) just reordered the particle store,
    /// so the next eligible boundary sorts. No-op without a controller.
    pub fn note_external_shuffle(&mut self) {
        if let Some(c) = self.controller.as_mut() {
            c.note_shuffle();
        }
    }

    /// Pre-reserve diagnostic-history capacity for `n` further steps so
    /// steady-state stepping appends samples without reallocating.
    pub fn reserve_diagnostics(&mut self, n: usize) {
        self.diag.history.reserve(n);
    }

    fn sort_particles(&mut self) {
        let t = Instant::now();
        let ncells = self.layout.as_dyn().ncells();
        // Keep the canonical representation (SoA or AoS) sorted.
        if self.cfg.particle_layout == ParticleLayout::Aos {
            if let Some(aos) = self.particles_aos.take() {
                self.particles = aos.to_soa();
            }
        }
        match (&self.pool, self.cfg.sort_out_of_place) {
            (Some(pool), true) => sort::pool_sort_out_of_place(
                &mut self.particles,
                &mut self.scratch,
                ncells,
                pool,
                &mut self.sort_arena,
            ),
            (None, true) => sort::sort_out_of_place_with(
                &mut self.particles,
                &mut self.scratch,
                ncells,
                &mut self.sort_arena,
            ),
            (_, false) => {
                sort::sort_in_place_with(&mut self.particles, ncells, &mut self.sort_arena)
            }
        }
        if self.cfg.particle_layout == ParticleLayout::Aos {
            self.particles_aos = Some(self.particles.to_aos());
        }
        self.timers.sort += t.elapsed().as_secs_f64();
    }

    // ---------------- SoA stepping ----------------

    fn step_soa(&mut self) {
        match (self.cfg.loop_structure, self.cfg.field_layout) {
            (LoopStructure::Split, FieldLayout::Redundant) => self.soa_split_redundant(),
            (LoopStructure::Split, FieldLayout::Standard) => self.soa_split_standard(),
            (LoopStructure::Fused, FieldLayout::Redundant) => self.soa_fused_redundant(),
            (LoopStructure::Fused, FieldLayout::Standard) => self.soa_fused_standard(),
        }
    }

    fn soa_split_redundant(&mut self) {
        let lanes = self.cfg.kernel_path == KernelPath::Lanes;
        let hoisted = self.cfg.hoisted;
        let unhoisted = self.unhoisted_coeffs();

        // Kick: elementwise over particles, so a view is a view — the pool
        // fan-out and the sequential whole-store call are bit-identical.
        let t = Instant::now();
        {
            let e8 = &self.e8.e8;
            let p = &mut self.particles;
            let kick = |v: &mut SoaViewMut<'_>| match (hoisted, lanes) {
                (true, true) => simd::update_velocities_redundant_hoisted_lanes(
                    v.icell, v.dx, v.dy, v.vx, v.vy, e8,
                ),
                (true, false) => velocity::update_velocities_redundant_hoisted(
                    v.icell, v.dx, v.dy, v.vx, v.vy, e8,
                ),
                (false, true) => simd::update_velocities_redundant_lanes(
                    v.icell,
                    v.dx,
                    v.dy,
                    v.vx,
                    v.vy,
                    e8,
                    unhoisted.0,
                    unhoisted.1,
                ),
                (false, false) => velocity::update_velocities_redundant(
                    v.icell,
                    v.dx,
                    v.dy,
                    v.vx,
                    v.vy,
                    e8,
                    unhoisted.0,
                    unhoisted.1,
                ),
            };
            match &self.pool {
                Some(pool) => {
                    let mut views: [Option<SoaViewMut<'_>>; MAX_THREADS] =
                        [const { None }; MAX_THREADS];
                    let nv = kernels::split_soa_mut_into(p, pool.nthreads(), &mut views);
                    pool.run_items(&mut views[..nv], |_, slot| {
                        kick(slot.as_mut().expect("view slot filled"));
                    });
                }
                None => {
                    let ParticlesSoA {
                        icell,
                        ix,
                        iy,
                        dx,
                        dy,
                        vx,
                        vy,
                    } = p;
                    kick(&mut SoaViewMut {
                        icell,
                        ix,
                        iy,
                        dx,
                        dy,
                        vx,
                        vy,
                    });
                }
            }
        }
        self.timers.update_v += t.elapsed().as_secs_f64();

        // Push.
        let t = Instant::now();
        self.push_positions_soa();
        self.timers.update_x += t.elapsed().as_secs_f64();

        // Deposit: kernel chosen by the (DepositPath, KernelPath) pair.
        let t = Instant::now();
        self.rho4.clear();
        let w = self.wq * QE.signum();
        match &self.pool {
            Some(pool) => {
                let (p, rho4, arenas) = (&self.particles, &mut self.rho4, &mut self.rho_arenas);
                accumulate::pool_accumulate_redundant(
                    pool,
                    &p.icell,
                    &p.dx,
                    &p.dy,
                    rho4,
                    arenas,
                    w,
                    self.cfg.deposit_path,
                    self.cfg.kernel_path,
                );
            }
            None => deposit::select_kernel(self.cfg.deposit_path, self.cfg.kernel_path)(
                &self.particles.icell,
                &self.particles.dx,
                &self.particles.dy,
                &mut self.rho4.rho4,
                w,
            ),
        }
        self.timers.accumulate += t.elapsed().as_secs_f64();

        let t = Instant::now();
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    fn soa_split_standard(&mut self) {
        // Standard fields are row-major only (validated). With hoisting the
        // kick reads a pre-scaled field copy and velocities are normalized
        // (grid units/step); unhoisted keeps per-particle coefficients.
        let hoisted = self.cfg.hoisted;
        let scaled = hoisted.then(|| self.scaled_standard_field());
        let (cx, cy, scale) = if hoisted {
            (1.0, 1.0, 1.0)
        } else {
            self.unhoisted_coeffs()
        };
        let kick_field = scaled.as_ref().unwrap_or(&self.field);
        let p = &mut self.particles;
        let t = Instant::now();
        velocity::update_velocities_standard(
            &p.ix, &p.iy, &p.dx, &p.dy, &mut p.vx, &mut p.vy, kick_field, cx, cy,
        );
        self.timers.update_v += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        // scale is 1.0 under hoisting (normalized velocities), Δt/Δx
        // otherwise (physical velocities).
        let eff_scale = scale;
        let ParticlesSoA {
            icell,
            ix,
            iy,
            dx,
            dy,
            vx,
            vy,
        } = p;
        match self.cfg.position_update {
            PositionUpdate::NaiveIf => position::update_positions_naive_if(
                icell, ix, iy, dx, dy, vx, vy, ncx, ncy, eff_scale,
            ),
            PositionUpdate::ModuloInt => position::update_positions_modulo(
                icell, ix, iy, dx, dy, vx, vy, ncx, ncy, eff_scale,
            ),
            PositionUpdate::Branchless => position::update_positions_branchless(
                icell, ix, iy, dx, dy, vx, vy, ncx, ncy, eff_scale,
            ),
        }
        self.timers.update_x += t.elapsed().as_secs_f64();

        let t = Instant::now();
        self.field.clear_rho();
        accumulate::accumulate_standard(
            &p.ix,
            &p.iy,
            &p.dx,
            &p.dy,
            &mut self.field.rho,
            self.grid.ncx,
            self.grid.ncy,
            self.wq * QE.signum(),
        );
        self.timers.accumulate += t.elapsed().as_secs_f64();
    }

    fn soa_fused_redundant(&mut self) {
        let t = Instant::now();
        self.rho4.clear();
        let w = self.wq * QE.signum();
        fused::fused_redundant_soa(
            &mut self.particles,
            &self.e8.e8,
            &mut self.rho4,
            self.grid.ncx,
            self.grid.ncy,
            w,
        );
        self.timers.accumulate += t.elapsed().as_secs_f64();
        let t = Instant::now();
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    fn soa_fused_standard(&mut self) {
        let hoisted = self.cfg.hoisted;
        let scaled = hoisted.then(|| self.scaled_standard_field());
        let (cx, cy, scale) = if hoisted {
            (1.0, 1.0, 1.0)
        } else {
            self.unhoisted_coeffs()
        };
        let t = Instant::now();
        self.field.clear_rho();
        // Work around the borrow of field (read ex/ey, write rho): take rho.
        let mut rho = std::mem::take(&mut self.field.rho);
        fused::fused_standard_soa(
            &mut self.particles,
            scaled.as_ref().unwrap_or(&self.field),
            &mut rho,
            cx,
            cy,
            scale,
            self.wq * QE.signum(),
        );
        self.field.rho = rho;
        self.timers.accumulate += t.elapsed().as_secs_f64();
    }

    fn push_positions_soa(&mut self) {
        let p = &mut self.particles;
        let scale = if self.cfg.hoisted {
            1.0
        } else {
            self.cfg.dt / self.grid.dx()
        };
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        let lanes = self.cfg.kernel_path == KernelPath::Lanes;

        // Pooled path first: fan views out to the workers (the push is
        // elementwise, so chunking never changes results). As before, the
        // parallel path always runs the branchless kernel.
        if let Some(pool) = &self.pool {
            let mut views: [Option<SoaViewMut<'_>>; MAX_THREADS] = [const { None }; MAX_THREADS];
            let nv = kernels::split_soa_mut_into(p, pool.nthreads(), &mut views);
            macro_rules! pooled_layout {
                ($l:expr) => {{
                    let l = $l;
                    pool.run_items(&mut views[..nv], |_, slot| {
                        let v = slot.as_mut().expect("view slot filled");
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
                AnyLayout::RowMajor(_) => pool.run_items(&mut views[..nv], |_, slot| {
                    let v = slot.as_mut().expect("view slot filled");
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
            return;
        }

        // Sequential path: disjoint field borrows — positions/cells mutate,
        // velocities are read-only; no copies (the paper's loop reads v and
        // writes x).
        let ParticlesSoA {
            icell,
            ix,
            iy,
            dx,
            dy,
            vx,
            vy,
        } = p;
        macro_rules! push_with_layout {
            ($l:expr) => {
                match self.cfg.position_update {
                    PositionUpdate::Branchless | PositionUpdate::ModuloInt => {
                        if lanes {
                            simd::update_positions_branchless_layout_lanes(
                                icell, ix, iy, dx, dy, vx, vy, $l, scale,
                            )
                        } else {
                            position::update_positions_branchless_layout(
                                icell, ix, iy, dx, dy, vx, vy, $l, scale,
                            )
                        }
                    }
                    PositionUpdate::NaiveIf => position::update_positions_naive_if_layout(
                        icell, ix, iy, dx, dy, vx, vy, $l, scale,
                    ),
                }
            };
        }
        match &self.layout {
            AnyLayout::RowMajor(_) => match (self.cfg.position_update, lanes) {
                (PositionUpdate::NaiveIf, _) => position::update_positions_naive_if(
                    icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                ),
                (PositionUpdate::ModuloInt, _) => position::update_positions_modulo(
                    icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                ),
                (PositionUpdate::Branchless, true) => simd::update_positions_branchless_lanes(
                    icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                ),
                (PositionUpdate::Branchless, false) => position::update_positions_branchless(
                    icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                ),
            },
            AnyLayout::L4D(l) => push_with_layout!(l),
            AnyLayout::Morton(l) => push_with_layout!(l),
            AnyLayout::Hilbert(l) => push_with_layout!(l),
        }
    }

    // ---------------- AoS stepping ----------------

    fn step_aos(&mut self) {
        let mut aos = self
            .particles_aos
            .take()
            .unwrap_or_else(|| self.particles.to_aos());
        let threads = self.cfg.threads;
        let chunk = aos.len().div_ceil(self.nchunks()).max(1);

        match (self.cfg.loop_structure, self.cfg.field_layout) {
            (LoopStructure::Fused, FieldLayout::Standard) => {
                let hoisted = self.cfg.hoisted;
                let scaled = hoisted.then(|| self.scaled_standard_field());
                let (cx, cy, scale) = if hoisted {
                    (1.0, 1.0, 1.0)
                } else {
                    self.unhoisted_coeffs()
                };
                let t = Instant::now();
                self.field.clear_rho();
                let mut rho = std::mem::take(&mut self.field.rho);
                aos::fused_standard_aos(
                    &mut aos.p,
                    scaled.as_ref().unwrap_or(&self.field),
                    &mut rho,
                    cx,
                    cy,
                    scale,
                    self.wq * QE.signum(),
                );
                self.field.rho = rho;
                self.timers.accumulate += t.elapsed().as_secs_f64();
            }
            (LoopStructure::Split, FieldLayout::Standard) => {
                let hoisted = self.cfg.hoisted;
                let scaled = hoisted.then(|| self.scaled_standard_field());
                let (cx, cy, scale) = if hoisted {
                    (1.0, 1.0, 1.0)
                } else {
                    self.unhoisted_coeffs()
                };
                let t = Instant::now();
                aos::update_velocities_standard_aos(
                    &mut aos.p,
                    scaled.as_ref().unwrap_or(&self.field),
                    cx,
                    cy,
                );
                self.timers.update_v += t.elapsed().as_secs_f64();
                let t = Instant::now();
                match self.cfg.position_update {
                    PositionUpdate::NaiveIf => aos::update_positions_naive_if_aos(
                        &mut aos.p,
                        self.grid.ncx,
                        self.grid.ncy,
                        scale,
                    ),
                    _ => aos::update_positions_branchless_aos(
                        &mut aos.p,
                        self.grid.ncx,
                        self.grid.ncy,
                        scale,
                    ),
                }
                self.timers.update_x += t.elapsed().as_secs_f64();
                let t = Instant::now();
                self.field.clear_rho();
                aos::accumulate_standard_aos(
                    &aos.p,
                    &mut self.field.rho,
                    self.grid.ncx,
                    self.grid.ncy,
                    self.wq * QE.signum(),
                );
                self.timers.accumulate += t.elapsed().as_secs_f64();
            }
            (LoopStructure::Split, FieldLayout::Redundant) => {
                // Hoisted redundant AoS pipeline (Table VII's “AoS, 3 loops”).
                let t = Instant::now();
                let scaled_e8;
                let e8: &[[f64; 8]] = if self.cfg.hoisted {
                    &self.e8.e8
                } else {
                    // Unhoisted: fold the coefficient into a scaled copy once.
                    let (cx, cy, _) = self.unhoisted_coeffs();
                    let mut scaled = self.e8.clone();
                    for cell in scaled.e8.iter_mut() {
                        let (ex, ey) = cell.split_at_mut(4);
                        for e in ex {
                            *e *= cx;
                        }
                        for e in ey {
                            *e *= cy;
                        }
                    }
                    scaled_e8 = scaled;
                    &scaled_e8.e8
                };
                if threads > 1 {
                    aos::par_update_velocities_redundant_aos(&mut aos.p, e8, chunk);
                } else {
                    aos::update_velocities_redundant_aos(&mut aos.p, e8);
                }
                self.timers.update_v += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let scale = if self.cfg.hoisted {
                    1.0
                } else {
                    self.cfg.dt / self.grid.dx()
                };
                {
                    let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
                    macro_rules! aos_push {
                        ($l:expr) => {{
                            let l = $l;
                            if threads > 1 {
                                aos::par_update_positions_branchless_layout_aos(
                                    &mut aos.p, l, scale, chunk,
                                );
                            } else {
                                aos::update_positions_branchless_layout_aos(&mut aos.p, l, scale);
                            }
                        }};
                    }
                    match &self.layout {
                        AnyLayout::RowMajor(_) => {
                            if threads > 1 {
                                aos::par_update_positions_branchless_aos(
                                    &mut aos.p, ncx, ncy, scale, chunk,
                                );
                            } else {
                                aos::update_positions_branchless_aos(&mut aos.p, ncx, ncy, scale);
                            }
                        }
                        AnyLayout::L4D(l) => aos_push!(l),
                        AnyLayout::Morton(l) => aos_push!(l),
                        AnyLayout::Hilbert(l) => aos_push!(l),
                    }
                }
                self.timers.update_x += t.elapsed().as_secs_f64();
                let t = Instant::now();
                self.rho4.clear();
                let w = self.wq * QE.signum();
                let kernel = deposit::select_kernel_aos(self.cfg.deposit_path);
                if threads > 1 {
                    aos::par_accumulate_redundant_aos_with(
                        &aos.p,
                        &mut self.rho4,
                        w,
                        chunk,
                        kernel,
                    );
                } else {
                    kernel(&aos.p, &mut self.rho4.rho4, w);
                }
                self.timers.accumulate += t.elapsed().as_secs_f64();
                let t = Instant::now();
                self.rho4
                    .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
                self.timers.convert += t.elapsed().as_secs_f64();
            }
            (LoopStructure::Fused, FieldLayout::Redundant) => {
                // Table VII's “AoS, 1 loop” on the optimized structures.
                let t = Instant::now();
                self.rho4.clear();
                let w = self.wq * QE.signum();
                let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
                if threads > 1 {
                    let (e8, rho4) = (&self.e8.e8, &mut self.rho4);
                    aos::par_fused_redundant_aos(&mut aos.p, e8, rho4, ncx, ncy, w, chunk);
                } else {
                    aos::fused_redundant_aos(
                        &mut aos.p,
                        &self.e8.e8,
                        &mut self.rho4.rho4,
                        ncx,
                        ncy,
                        w,
                    );
                }
                self.timers.accumulate += t.elapsed().as_secs_f64();
                let t = Instant::now();
                self.rho4
                    .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
                self.timers.convert += t.elapsed().as_secs_f64();
            }
        }

        self.particles_aos = Some(aos);
    }

    /// Synchronize the SoA view from the AoS store (AoS runs keep the AoS
    /// array canonical between sorts; call this before reading
    /// [`particles`](Self::particles) mid-run).
    pub fn sync_particles(&mut self) {
        if let Some(aos) = &self.particles_aos {
            self.particles = aos.to_soa();
        }
    }

    // ---------------- diagnostics ----------------

    /// Kinetic energy in physical units, `½·w·m·Σ|v|²`.
    pub fn kinetic_energy(&self) -> f64 {
        let (cx, cy) = if self.cfg.hoisted {
            (self.grid.dx() / self.cfg.dt, self.grid.dy() / self.cfg.dt)
        } else {
            (1.0, 1.0)
        };
        let sum: f64 = match &self.particles_aos {
            Some(aos) => aos
                .p
                .iter()
                .map(|p| {
                    let vx = p.vx * cx;
                    let vy = p.vy * cy;
                    vx * vx + vy * vy
                })
                .sum(),
            None => self
                .particles
                .vx
                .iter()
                .zip(&self.particles.vy)
                .map(|(&ux, &uy)| {
                    let vx = ux * cx;
                    let vy = uy * cy;
                    vx * vx + vy * vy
                })
                .sum(),
        };
        0.5 * self.weight * ME * sum
    }

    /// Electrostatic field energy from the current grid field.
    pub fn field_energy(&self) -> f64 {
        self.solver.field_energy(&self.field.ex, &self.field.ey)
    }

    /// Amplitude of `E_x`'s Fourier mode `m` along x (averaged over y):
    /// `(2/ncx)·|Σ_x Ē_x(x) e^{−i 2π m x/ncx}|` with `Ē_x` the y-average.
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

    fn record_diag(&mut self) {
        self.diag.history.push(DiagSample {
            time: self.step_count as f64 * self.cfg.dt,
            kinetic: self.kinetic_energy(),
            field: self.field_energy(),
            ex_mode: self.ex_mode_amplitude(1),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: usize) -> PicConfig {
        let mut cfg = PicConfig::landau_table1(n);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        cfg
    }

    #[test]
    fn builds_and_steps() {
        let mut sim = Simulation::new(small(2000)).unwrap();
        sim.run(5);
        assert_eq!(sim.steps(), 5);
        assert_eq!(sim.diagnostics().history.len(), 6);
    }

    #[test]
    fn charge_is_conserved_every_step() {
        let mut sim = Simulation::new(small(3000)).unwrap();
        // Σ over grid points of the charge *density* is ncells × mean
        // density = −ncells (unit background density, normalized units).
        let expect = QE * sim.grid().ncells() as f64;
        for _ in 0..5 {
            sim.step();
            let total: f64 = sim.rho().iter().sum();
            assert!(
                (total - expect).abs() < 1e-9 * expect.abs(),
                "{total} vs {expect}"
            );
        }
    }

    #[test]
    fn energy_conserved_at_few_percent() {
        let mut cfg = small(20_000);
        cfg.dt = 0.05;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(40);
        let drift = sim.diagnostics().relative_energy_drift();
        assert!(drift < 0.02, "energy drift {drift}");
    }

    #[test]
    fn all_orderings_agree_on_physics() {
        // Same seed, same steps — the grid ρ must match across layouts.
        let mut reference: Option<Vec<f64>> = None;
        for ord in Ordering::paper_set() {
            let mut cfg = small(2000);
            cfg.ordering = ord;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            let rho = sim.rho().to_vec();
            match &reference {
                None => reference = Some(rho),
                Some(r) => {
                    for i in 0..r.len() {
                        assert!(
                            (r[i] - rho[i]).abs() < 1e-9,
                            "{ord}: rho[{i}] {} vs {}",
                            rho[i],
                            r[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn aos_and_soa_agree() {
        let mk = |layout| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.particle_layout = layout;
            cfg.field_layout = FieldLayout::Redundant;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            sim.rho().to_vec()
        };
        let a = mk(ParticleLayout::Soa);
        let b = mk(ParticleLayout::Aos);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9, "rho[{i}]");
        }
    }

    #[test]
    fn fused_and_split_agree() {
        let mk = |ls| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.loop_structure = ls;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            sim.rho().to_vec()
        };
        let a = mk(LoopStructure::Split);
        let b = mk(LoopStructure::Fused);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9, "rho[{i}]");
        }
    }

    #[test]
    fn standard_and_redundant_fields_agree() {
        let mk = |fl, hoisted| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.field_layout = fl;
            cfg.hoisted = hoisted;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            sim.rho().to_vec()
        };
        let a = mk(FieldLayout::Redundant, false);
        let b = mk(FieldLayout::Standard, false);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9, "rho[{i}]");
        }
    }

    #[test]
    fn hoisted_standard_fields_agree_with_unhoisted() {
        let mk = |hoisted| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.field_layout = FieldLayout::Standard;
            cfg.hoisted = hoisted;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(4);
            sim.rho().to_vec()
        };
        let a = mk(true);
        let b = mk(false);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-8, "rho[{i}]: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn hoisted_and_unhoisted_agree() {
        let mk = |hoisted| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.hoisted = hoisted;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(4);
            sim.rho().to_vec()
        };
        let a = mk(true);
        let b = mk(false);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-8, "rho[{i}]: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn threads_do_not_change_physics() {
        let mk = |threads| {
            let mut cfg = small(5000);
            cfg.threads = threads;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            sim.rho().to_vec()
        };
        let a = mk(1);
        let b = mk(4);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9, "rho[{i}]");
        }
    }

    #[test]
    fn sorting_does_not_change_physics() {
        let mk = |period, oop| {
            let mut cfg = small(3000);
            cfg.sort_period = period;
            cfg.sort_out_of_place = oop;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(6);
            sim.rho().to_vec()
        };
        let a = mk(0, true);
        let b = mk(2, true);
        let c = mk(2, false);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9);
            assert!((a[i] - c[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn position_update_variants_agree() {
        let mk = |pu| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.position_update = pu;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(4);
            sim.rho().to_vec()
        };
        let a = mk(PositionUpdate::Branchless);
        let b = mk(PositionUpdate::NaiveIf);
        let c = mk(PositionUpdate::ModuloInt);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9);
            assert!((a[i] - c[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn amplitude_rate_recovers_planted_exponential() {
        // Synthetic diagnostics: A(t) = e^{0.35 t} → fitted rate 0.35.
        let mut d = Diagnostics::default();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            d.history.push(DiagSample {
                time: t,
                kinetic: 0.0,
                field: 0.0,
                ex_mode: (0.35 * t).exp(),
            });
        }
        let r = d.mode_amplitude_rate(0.0, 5.0).unwrap();
        assert!((r - 0.35).abs() < 1e-9, "rate {r}");
        // A monotone signal has no interior peaks: envelope fit defers.
        assert!(d.mode_envelope_rate(0.0, 5.0).is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small(0);
        assert!(Simulation::new(cfg.clone()).is_err());
        cfg.n_particles = 100;
        cfg.field_layout = FieldLayout::Standard;
        cfg.ordering = Ordering::Morton;
        assert!(Simulation::new(cfg).is_err());
    }

    #[test]
    fn timers_accumulate() {
        let mut sim = Simulation::new(small(2000)).unwrap();
        sim.run(3);
        let t = sim.timers();
        assert!(t.update_v > 0.0);
        assert!(t.update_x > 0.0);
        assert!(t.accumulate > 0.0);
        assert!(t.solve > 0.0);
        sim.reset_timers();
        assert_eq!(sim.timers().total(), 0.0);
    }

    #[test]
    fn landau_mode_amplitude_decays() {
        // Linear Landau damping: the fundamental E_x mode decays at
        // γ ≈ −0.153 for k = 0.5, so its amplitude at t≈8 sits well below
        // the initial one. (Total field energy is noise-dominated at this
        // particle count, so we track the mode, as the paper's validation
        // does.)
        let mut cfg = PicConfig::landau_table1(100_000);
        cfg.grid_nx = 32;
        cfg.grid_ny = 16;
        cfg.dt = 0.1;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(80); // t = 8
        let h = &sim.diagnostics().history;
        let early = h[0].ex_mode;
        let late_max = h[60..].iter().map(|s| s.ex_mode).fold(0.0f64, f64::max);
        assert!(
            late_max < 0.5 * early,
            "expected damping: early {early}, late max {late_max}"
        );
    }
}
