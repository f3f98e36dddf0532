//! Disorder-driven sort scheduling — the paper's §IV-E future work
//! ("automatic finding of this optimal number" of steps between sorts),
//! done as a closed loop on the live run.
//!
//! Each step the scheduler samples a cheap **particle-disorder metric**
//! from the `icell` array: the fraction of non-monotone (descending)
//! transitions between consecutive particles and the normalized *mean jump
//! distance* between them (the component that actually prices cache
//! distance in the field arrays). [`HotPathController`] sorts when the
//! EWMA of the mean jump crosses a threshold, bounded by a minimum and
//! maximum spacing.
//!
//! The decision is a deterministic function of the particle trajectory,
//! never of wall time, so a checkpointed run replays the same sort
//! schedule bit-for-bit. The kernel and deposit paths stay the ones the
//! controller was built with. The scheduler state serializes into the
//! checkpoint ([`HotPathController::encode_state`]).

use crate::resilience::checkpoint::HotPathMeta;
use crate::sim::{DepositPath, KernelPath};
use crate::PicError;

/// Width of the disorder-sampling block, matching the kernels' lane width
/// (`LANES` in `crates/core/src/kernels/simd.rs`).
pub const LANE_BLOCK: usize = 8;

/// Normalization of [`Disorder::jump_frac`]: on a fully mixed population
/// the mean adjacent `|Δicell|` is `ncells / 3` (the mean distance of two
/// independent uniform draws), so the mean jump is scaled by
/// `JUMP_FULL_MIX / ncells` to read `~1.0` at full mixing.
pub const JUMP_FULL_MIX: f64 = 3.0;

/// One disorder sample over an `icell` sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disorder {
    /// Fraction of examined adjacent transitions that descend
    /// (`icell[i+1] < icell[i]`), in `[0, 1]`. Exactly `0` on a population
    /// sorted by cell; approaches `~0.5` on a fully shuffled one.
    pub descent_frac: f64,
    /// Mean adjacent `|Δicell|` normalized so a fully mixed population
    /// reads `~1.0` (see [`JUMP_FULL_MIX`]), clamped to `[0, 1]`. This is
    /// the component that prices locality — it ramps smoothly from `0`
    /// after a sort toward `1` as neighbors diffuse apart, tracking the
    /// measured per-step cost ramp — so it drives the sort decision. The
    /// descent fraction cannot: it saturates near `0.5` within a step or
    /// two of any sort at realistic particle densities.
    pub jump_frac: f64,
}

impl Disorder {
    /// The sample of an empty or single-particle population.
    pub const NONE: Disorder = Disorder {
        descent_frac: 0.0,
        jump_frac: 0.0,
    };
}

/// Measure disorder through an index accessor (so AoS mirrors can be
/// sampled without materializing an `icell` slice). `cells` is the total
/// cell count, used to normalize the mean-jump component. Samples one
/// [`LANE_BLOCK`]-wide window every `stride` blocks; `stride = 1` examines
/// every adjacent transition exactly once, so the descent fraction is then
/// `#{i : icell[i+1] < icell[i]} / (n − 1)`.
pub fn measure_disorder_with(
    n: usize,
    stride: usize,
    cells: usize,
    at: impl Fn(usize) -> u32,
) -> Disorder {
    let stride = stride.max(1);
    if n < 2 {
        return Disorder::NONE;
    }
    let mut pairs = 0u64;
    let mut descents = 0u64;
    let mut jump = 0u64;
    let mut o = 0usize;
    while o + 1 < n {
        let end = (o + LANE_BLOCK).min(n - 1); // pairs (i, i+1) for i in o..end
        let mut prev = at(o);
        for i in o + 1..=end {
            let c = at(i);
            if c < prev {
                descents += 1;
            }
            jump += c.abs_diff(prev) as u64;
            pairs += 1;
            prev = c;
        }
        o += LANE_BLOCK * stride;
    }
    let mean_jump = jump as f64 / pairs as f64;
    Disorder {
        descent_frac: descents as f64 / pairs as f64,
        jump_frac: (JUMP_FULL_MIX * mean_jump / cells.max(1) as f64).min(1.0),
    }
}

/// [`measure_disorder_with`] over a plain `icell` slice.
pub fn measure_disorder(icell: &[u32], stride: usize, cells: usize) -> Disorder {
    measure_disorder_with(icell.len(), stride, cells, |i| icell[i])
}

/// Tuning knobs of the [`HotPathController`]. The default profile is
/// deterministic: the sort schedule depends only on the particle
/// trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Sort when the disorder EWMA (fed by the normalized mean jump,
    /// [`Disorder::jump_frac`]) reaches this level. The mean jump — not
    /// the descent fraction — drives sorting because descents saturate
    /// near `0.5` within a step or two of any sort at realistic particle
    /// densities, while the mean jump ramps smoothly over tens of steps,
    /// tracking the measured traversal-cost ramp (an external shuffle,
    /// reported by [`HotPathController::note_shuffle`], saturates it to
    /// `1.0` at once).
    pub sort_threshold: f64,
    /// Never sort more often than every this many steps (amortization
    /// floor — a sort every step would dominate the step cost).
    pub min_sort_spacing: usize,
    /// Always sort at least every this many steps (0 = uncapped), so a
    /// slowly drifting population cannot decay indefinitely below the
    /// threshold while locality erodes.
    pub max_sort_spacing: usize,
    /// EWMA smoothing factor in `(0, 1]` for the disorder average.
    pub alpha: f64,
    /// Disorder sampling stride in lane blocks (1 = full scan; larger
    /// strides sample a `1/stride` subset). The observation runs every
    /// step, so this is a real hot-path cost: small strides stream the
    /// whole `icell` array through the cache each step, which alone can
    /// eat several percent of a step at millions of particles. The mean
    /// jump converges with a few tens of thousands of sampled pairs, so
    /// the default is coarse.
    pub stride: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            sort_threshold: 0.25,
            min_sort_spacing: 4,
            max_sort_spacing: 128,
            alpha: 0.35,
            stride: 32,
        }
    }
}

/// A hot-path switch. The scheduler never switches the kernel or deposit
/// path, so none is ever produced; the type stays the element of the
/// (always empty) `take_hot_path_events` list that the benchmark driver
/// still counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent;

/// The sort scheduler. One per simulation (per rank in decomposed runs —
/// each rank follows its own subdomain's disorder).
#[derive(Debug, Clone)]
pub struct HotPathController {
    cfg: ControllerConfig,
    kernel: KernelPath,
    deposit: DepositPath,
    steps_since_sort: u64,
    /// EWMA normalized-mean-jump since the last sort (see
    /// [`Disorder::jump_frac`]).
    disorder: f64,
    /// Steps between the two most recent sorts.
    last_period: u64,
}

impl HotPathController {
    /// Build a scheduler for a run on the given kernel and deposit paths.
    pub fn new(cfg: ControllerConfig, kernel: KernelPath, deposit: DepositPath) -> Self {
        Self {
            cfg,
            kernel,
            deposit,
            steps_since_sort: 0,
            disorder: 0.0,
            last_period: 0,
        }
    }

    /// Rebuild a scheduler from a snapshot's hot-path metadata: on the
    /// recorded paths, resuming the recorded state (an empty blob — a
    /// snapshot taken without a controller — starts it fresh).
    pub fn resume(cfg: ControllerConfig, meta: &HotPathMeta) -> Result<Self, PicError> {
        let mut c = Self::new(cfg, meta.kernel_path, meta.deposit_path);
        if !meta.controller.is_empty() {
            c.restore_state(&meta.controller)?;
        }
        Ok(c)
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Should this step begin with a sort? Deterministic: a threshold on
    /// the disorder EWMA (fed only by particle state), bounded by the
    /// min/max spacing. Never consults wall time, so a restored run makes
    /// the same sort decisions as the run that checkpointed.
    pub fn should_sort(&self) -> bool {
        let since = self.steps_since_sort + 1; // spacing if we sort now
        if since < self.cfg.min_sort_spacing.max(1) as u64 {
            return false;
        }
        if self.cfg.max_sort_spacing > 0 && since >= self.cfg.max_sort_spacing as u64 {
            return true;
        }
        self.disorder >= self.cfg.sort_threshold
    }

    /// Record a sort (call right after it ran).
    pub fn on_sort(&mut self) {
        self.last_period = self.steps_since_sort;
        self.steps_since_sort = 0;
        // The population is sorted now: the accumulated disorder is gone.
        self.disorder = 0.0;
    }

    /// Feed one step's disorder sample. Call after the particle loops of
    /// every step.
    pub fn observe(&mut self, d: Disorder) {
        self.steps_since_sort += 1;
        let a = self.cfg.alpha.clamp(1e-6, 1.0);
        self.disorder += a * (d.jump_frac - self.disorder);
    }

    /// Notify the controller that an external mechanism (rank migration,
    /// a live re-partition) just shuffled the particle array: saturate the
    /// disorder EWMA so the next eligible boundary sorts. Deterministic —
    /// re-cuts are driven by step counts, not wall time.
    pub fn note_shuffle(&mut self) {
        self.disorder = 1.0;
    }

    /// The kernel path the controller was built with.
    pub fn kernel(&self) -> KernelPath {
        self.kernel
    }

    /// The deposit path the controller was built with.
    pub fn deposit(&self) -> DepositPath {
        self.deposit
    }

    /// Current disorder EWMA.
    pub fn disorder(&self) -> f64 {
        self.disorder
    }

    /// Steps between the two most recent sorts — the realized (adaptive)
    /// sort period.
    pub fn last_period(&self) -> u64 {
        self.last_period
    }

    /// Steps since the last sort.
    pub fn steps_since_sort(&self) -> u64 {
        self.steps_since_sort
    }

    // ---------------- checkpoint state ----------------

    /// Serialize the scheduler state (spacing counters and the disorder
    /// EWMA) into a little-endian blob for the checkpoint's hot-path
    /// metadata. The blob is a pure function of the particle trajectory.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(CTRL_STATE_LEN);
        b.push(CTRL_STATE_VERSION);
        b.extend_from_slice(&self.steps_since_sort.to_le_bytes());
        b.extend_from_slice(&self.last_period.to_le_bytes());
        b.extend_from_slice(&self.disorder.to_bits().to_le_bytes());
        b
    }

    /// Restore the scheduler state from an [`encode_state`] blob
    /// (configuration is not serialized — it comes from the owning
    /// config's controller profile). A rejected blob leaves `self`
    /// untouched.
    ///
    /// [`encode_state`]: Self::encode_state
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PicError> {
        if bytes.len() != CTRL_STATE_LEN {
            return Err(PicError::Checkpoint(format!(
                "controller state blob has {} bytes, expected {CTRL_STATE_LEN}",
                bytes.len()
            )));
        }
        if bytes[0] != CTRL_STATE_VERSION {
            return Err(PicError::Checkpoint(format!(
                "unsupported controller state version {}",
                bytes[0]
            )));
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        self.steps_since_sort = u64_at(1);
        self.last_period = u64_at(9);
        self.disorder = f64::from_bits(u64_at(17));
        Ok(())
    }
}

/// Serialized controller-state length ([`HotPathController::encode_state`]).
pub const CTRL_STATE_LEN: usize = 25;
/// Version 2 dropped the kernel/deposit switching state of version 1.
const CTRL_STATE_VERSION: u8 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_population_has_zero_descents() {
        for run in [3, 16] {
            let icell: Vec<u32> = (0..1000).map(|i| i / run).collect();
            let d = measure_disorder(&icell, 1, 1024);
            assert_eq!(d.descent_frac, 0.0);
            assert!(d.jump_frac < 0.01, "sorted jumps are tiny: {}", d.jump_frac);
        }
    }

    #[test]
    fn reversed_population_is_fully_descending() {
        let icell: Vec<u32> = (0..1000u32).rev().collect();
        let d = measure_disorder(&icell, 1, 1024);
        assert_eq!(d.descent_frac, 1.0);
        // Every jump is one cell: fully descending, but locality is fine.
        assert!(d.jump_frac < 0.01);
    }

    #[test]
    fn mean_jump_separates_scramble_from_local_drift() {
        // Local drift: sorted cells plus small jitter — tiny mean jump.
        let drift: Vec<u32> = (0..2000u32).map(|i| 300 + i / 4 + (i * 7 % 5)).collect();
        assert!(measure_disorder(&drift, 1, 16384).jump_frac < 0.01);
        // Full mix: independent uniform cells (LCG high bits) push the
        // normalized mean jump to ~1 (descents, by contrast, read ~0.5
        // for both states).
        let mut x = 1u32;
        let scramble: Vec<u32> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                x >> 18 // top 14 bits: uniform over 0..16384
            })
            .collect();
        let d = measure_disorder(&scramble, 1, 16384);
        assert!(d.jump_frac > 0.9, "jump_frac {}", d.jump_frac);
        assert!((0.4..=0.6).contains(&d.descent_frac));
    }

    #[test]
    fn strided_sampling_stays_bounded() {
        let icell: Vec<u32> = (0..997u32)
            .map(|i| i.wrapping_mul(2654435761) % 64)
            .collect();
        for stride in [1, 2, 4, 16] {
            let d = measure_disorder(&icell, stride, 64);
            assert!((0.0..=1.0).contains(&d.descent_frac), "stride={stride}");
            assert!((0.0..=1.0).contains(&d.jump_frac), "stride={stride}");
        }
    }

    #[test]
    fn tiny_populations_measure_as_ordered() {
        assert_eq!(measure_disorder(&[], 1, 64), Disorder::NONE);
        assert_eq!(measure_disorder(&[7], 1, 64), Disorder::NONE);
    }

    #[test]
    fn sort_decision_respects_spacing_bounds() {
        let mut c = HotPathController::new(
            ControllerConfig {
                sort_threshold: 0.1,
                min_sort_spacing: 3,
                max_sort_spacing: 6,
                alpha: 1.0,
                ..ControllerConfig::default()
            },
            KernelPath::Lanes,
            DepositPath::LaneReduce,
        );
        // High disorder, but inside the minimum spacing: no sort.
        let noisy = Disorder {
            jump_frac: 0.9,
            ..Disorder::NONE
        };
        c.observe(noisy);
        assert!(!c.should_sort(), "min spacing must hold");
        c.observe(noisy);
        assert!(c.should_sort(), "threshold crossed past the minimum");
        c.on_sort();
        assert_eq!(c.last_period(), 2);
        // Zero disorder: no sort until the maximum spacing forces one.
        for step in 0..5 {
            assert!(!c.should_sort(), "step {step}");
            c.observe(Disorder::NONE);
        }
        assert!(c.should_sort(), "max spacing must force a sort");
    }

    #[test]
    fn paths_stay_as_built() {
        let mut c = HotPathController::new(
            ControllerConfig {
                alpha: 1.0,
                ..ControllerConfig::default()
            },
            KernelPath::Scalar,
            DepositPath::Exact,
        );
        for _ in 0..10 {
            c.observe(Disorder {
                descent_frac: 0.5,
                jump_frac: 1.0,
            });
            c.on_sort();
        }
        assert_eq!(c.kernel(), KernelPath::Scalar);
        assert_eq!(c.deposit(), DepositPath::Exact);
    }

    #[test]
    fn state_roundtrip_is_identity() {
        let mut c = HotPathController::new(
            ControllerConfig::default(),
            KernelPath::Lanes,
            DepositPath::LaneReduce,
        );
        for step in 0..7 {
            c.observe(Disorder {
                descent_frac: 0.3,
                jump_frac: 0.2,
            });
            if step % 3 == 2 {
                c.on_sort();
            }
        }
        let blob = c.encode_state();
        assert_eq!(blob.len(), CTRL_STATE_LEN);
        let mut d = HotPathController::new(
            ControllerConfig::default(),
            KernelPath::Lanes,
            DepositPath::LaneReduce,
        );
        d.restore_state(&blob).unwrap();
        assert_eq!(d.steps_since_sort(), c.steps_since_sort());
        assert_eq!(d.last_period(), c.last_period());
        assert_eq!(d.disorder().to_bits(), c.disorder().to_bits());
        assert_eq!(d.encode_state(), blob);
        // A truncated blob is rejected.
        assert!(d.restore_state(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn wrong_version_blob_is_rejected_without_touching_state() {
        let mut c = HotPathController::new(
            ControllerConfig::default(),
            KernelPath::Lanes,
            DepositPath::LaneReduce,
        );
        c.observe(Disorder {
            descent_frac: 0.4,
            jump_frac: 0.7,
        });
        let live = c.encode_state();
        let mut stale = live.clone();
        stale[0] = 1; // the pre-scheduler format with switching state
        stale[1] = 99; // a different steps_since_sort that must not land
        let err = c.restore_state(&stale).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("version 1")));
        assert_eq!(c.encode_state(), live);
    }

    #[test]
    fn note_shuffle_forces_next_eligible_sort() {
        let mut c = HotPathController::new(
            ControllerConfig {
                min_sort_spacing: 1,
                ..ControllerConfig::default()
            },
            KernelPath::Lanes,
            DepositPath::LaneReduce,
        );
        c.observe(Disorder::NONE);
        assert!(!c.should_sort());
        c.note_shuffle();
        assert!(c.should_sort());
    }
}
