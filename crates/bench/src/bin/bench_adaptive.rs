//! Sort-scheduler gate — drifting-plasma scenarios for the
//! disorder-driven sort scheduler in [`pic_core::control`].
//!
//! Two scenarios, both against honest static competitors on the same
//! `lanes/lane_reduce` hot path:
//!
//! * **steady** (Landau damping): disorder develops only through natural
//!   phase mixing, so well-tuned static sort periods are hard to beat —
//!   the scheduler must finish within `--tolerance` percent (default 5)
//!   of the best static sort period (including "never sort").
//! * **drift** (two-stream with injection disorder): after a quiet phase,
//!   a seeded physics-neutral permutation scrambles the particle array on
//!   a cadence no fixed period matches — every static schedule either
//!   sorts at the wrong times or traverses scrambled for most of the
//!   drifting phase. The gate compares the *drifting phase alone*, where
//!   the scheduler (which watches the disorder metric, not the clock)
//!   must beat the *best* static sort period outright. Injection time
//!   itself is excluded from every measurement — only simulation stepping
//!   is on the clock.
//!
//! The drift run also checks the decision itself: after every injection
//! the scheduler must sort within `min_sort_spacing` steps.
//!
//! Results land in `results/BENCH_adaptive.json`.
//!
//! Usage: bench_adaptive [--particles N] [--steps N] [--reps R]
//!                       [--tolerance PCT]

use pic_bench::cli::Args;
use pic_bench::report::{results_path, write_json_file, Json};
use pic_bench::table::Table;
use pic_core::control::ControllerConfig;
use pic_core::rng::Rng;
use pic_core::sim::{PicConfig, Simulation};
use pic_core::PicError;
use std::time::Instant;

/// The static sort periods the scheduler competes with (0 = never).
const PERIODS: [usize; 5] = [0, 8, 16, 32, 64];

/// Per injection, the 1-based step after it at which the scheduler sorted
/// (`None` if it never did before the next injection or the end).
type SortDelays = Vec<Option<usize>>;

fn gate(cond: bool, what: &str) -> Result<(), PicError> {
    if cond {
        Ok(())
    } else {
        Err(PicError::Diverged(format!("adaptive gate: {what}")))
    }
}

/// Scramble the whole SoA with seeded random swaps: a pure permutation
/// (bit-identical physics up to deposit summation order) that models the
/// cell-order damage of beam injection / filamentation without changing
/// the trajectory ensemble.
fn inject_disorder(sim: &mut Simulation, rng: &mut Rng) {
    let p = sim.particles_mut();
    let n = p.len();
    if n < 2 {
        return;
    }
    for _ in 0..n {
        let i = rng.below(n as u64) as usize;
        let j = rng.below(n as u64) as usize;
        p.icell.swap(i, j);
        p.ix.swap(i, j);
        p.iy.swap(i, j);
        p.dx.swap(i, j);
        p.dy.swap(i, j);
        p.vx.swap(i, j);
        p.vy.swap(i, j);
    }
    sim.note_external_shuffle();
}

/// One timed run: quiet for `steady_steps`, then `drift_steps` with an
/// injection scramble every `shuffle_every` steps. Injection time is kept
/// off the clock. Returns `(quiet-phase, drift-phase)` stepped wall
/// seconds and the scheduler's [`SortDelays`] (empty for static configs).
fn run_once(
    cfg: &PicConfig,
    steady_steps: usize,
    drift_steps: usize,
    shuffle_every: usize,
) -> Result<(f64, f64, SortDelays), PicError> {
    let mut sim = Simulation::new(cfg.clone())?;
    let mut rng = Rng::seed_from_u64(0xD81F7);
    let t = Instant::now();
    sim.run(steady_steps);
    let quiet = t.elapsed().as_secs_f64();
    let mut drift = 0.0;
    let mut delays = Vec::new();
    let mut since_injection = 0;
    for s in 0..drift_steps {
        if s % shuffle_every.max(1) == 0 {
            inject_disorder(&mut sim, &mut rng);
            if sim.controller().is_some() {
                delays.push(None);
                since_injection = 0;
            }
        }
        let sorts = sim.controller().is_some_and(|c| c.should_sort());
        since_injection += 1;
        if let Some(d) = delays.last_mut() {
            if sorts && d.is_none() {
                *d = Some(since_injection);
            }
        }
        let t = Instant::now();
        sim.step();
        drift += t.elapsed().as_secs_f64();
    }
    Ok((quiet, drift, delays))
}

/// Min-of-reps wall time per phase for a set of configurations, with the
/// reps *interleaved*: every rep times every config back to back, and
/// each config keeps its per-phase minimum across reps. Wall-clock noise
/// on a shared box drifts over minutes, so configs compared against each
/// other must be measured in the same window — timing all reps of one
/// config before the next would fold minutes of thermal drift into the
/// comparison. Returns per-config `(quiet, drift)` minima plus the sort
/// delays of the last config's first rep (the scheduled run, which the
/// callers put last; its schedule is deterministic).
fn timed_set(
    cfgs: &[PicConfig],
    reps: usize,
    steady: usize,
    drift: usize,
    every: usize,
) -> Result<(Vec<(f64, f64)>, SortDelays), PicError> {
    let mut best = vec![(f64::INFINITY, f64::INFINITY); cfgs.len()];
    let mut delays = None;
    for rep in 0..reps.max(1) {
        // Rotate the starting position each rep: load ramps and thermal
        // drift within a rep are roughly monotonic, so a fixed order would
        // systematically tax whichever config always runs last.
        let start = rep * cfgs.len() / reps.max(1);
        for k in 0..cfgs.len() {
            let i = (start + k) % cfgs.len();
            let (q, d, dl) = run_once(&cfgs[i], steady, drift, every)?;
            best[i].0 = best[i].0.min(q);
            best[i].1 = best[i].1.min(d);
            if i + 1 == cfgs.len() {
                delays.get_or_insert(dl);
            }
        }
    }
    Ok((best, delays.unwrap_or_default()))
}

/// The static competitors at every period in [`PERIODS`], followed by the
/// scheduled run on the same base config.
fn competitors(base: &PicConfig) -> Vec<PicConfig> {
    let mut cfgs: Vec<PicConfig> = PERIODS
        .iter()
        .map(|&period| {
            let mut cfg = base.clone();
            cfg.sort_period = period;
            cfg
        })
        .collect();
    let mut scheduled = base.clone();
    scheduled.controller = Some(ControllerConfig::default());
    cfgs.push(scheduled);
    cfgs
}

fn static_label(period: usize) -> String {
    format!("lanes/lane_reduce/{period}")
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let n: usize = args.get("particles", 1_600_000);
    let steps: usize = args.get("steps", 200);
    let reps: usize = args.get("reps", 2);
    let tolerance: f64 = args.get("tolerance", 5.0); // percent, steady gate

    let mut table = Table::new(&["Scenario", "Config", "Wall s", "Verdict"]);

    // ---------------- steady: Landau damping ----------------
    // 256×256 grid: the per-cell field structures (redundant ρ rows +
    // gather arrays) overflow L2, so a scrambled traversal measurably
    // pays for every random cell access (+70% per step measured at 1.6M
    // particles; on the 128² grid the same structures fit in L2 and the
    // whole sort-period landscape flattens into the noise). Natural phase
    // mixing ramps the cost over tens of steps, so the sort period is a
    // real tradeoff — sorting too often wastes sort time (~1
    // step-equivalent each), too rarely pays the ramp.
    eprintln!("steady (Landau) ...");
    let mut base = PicConfig::landau_table1(n);
    base.grid_nx = 256;
    base.grid_ny = 256;
    let (steady_times, _) = timed_set(&competitors(&base), reps, steps, 0, 0)?;
    let steady_secs = steady_times.last().map(|&(q, _)| q).unwrap_or(f64::NAN);

    let mut best_static = f64::INFINITY;
    let mut best_label = String::new();
    let mut steady_json: Vec<(String, Json)> = Vec::new();
    for (&period, &(secs, _)) in PERIODS.iter().zip(&steady_times) {
        let label = static_label(period);
        if secs < best_static {
            best_static = secs;
            best_label = label.clone();
        }
        steady_json.push((label, Json::Num(secs)));
    }
    let steady_ratio = steady_secs / best_static;
    table.row(&[
        "steady".into(),
        format!("best static {best_label}"),
        format!("{best_static:.4}"),
        "baseline".into(),
    ]);
    table.row(&[
        "steady".into(),
        "scheduled".into(),
        format!("{steady_secs:.4}"),
        format!("{:.1}% of best", steady_ratio * 100.0),
    ]);
    // ---------------- drift: two-stream + injection disorder ----------------
    eprintln!("drift (two-stream + injection) ...");
    // Same 256² reasoning as the steady scenario: the injection scramble
    // must actually cost something for reactive sorting to win back.
    let mut drift_base = PicConfig::two_stream(n);
    drift_base.grid_nx = 256;
    drift_base.grid_ny = 256;
    let steady_phase = steps / 3;
    let drift_phase = steps - steady_phase;
    let shuffle_every = 24usize;
    let min_spacing = ControllerConfig::default().min_sort_spacing;

    // The gate compares the *drifting phase alone*: every competitor runs
    // the same hot path and differs only in *when* it sorts.
    let (drift_times, delays) = timed_set(
        &competitors(&drift_base),
        reps,
        steady_phase,
        drift_phase,
        shuffle_every,
    )?;
    let (adaptive_quiet, drift_secs) = *drift_times.last().unwrap_or(&(f64::NAN, f64::NAN));
    let adaptive_total = adaptive_quiet + drift_secs;

    let mut best_drift = f64::INFINITY;
    let mut best_drift_label = String::new();
    let mut best_drift_total = f64::INFINITY;
    let mut drift_json: Vec<(String, Json)> = Vec::new();
    for (&period, &(quiet, drift)) in PERIODS.iter().zip(&drift_times) {
        let label = static_label(period);
        if drift < best_drift {
            best_drift = drift;
            best_drift_label = label.clone();
            best_drift_total = quiet + drift;
        }
        drift_json.push((
            label,
            Json::obj([
                ("total", Json::Num(quiet + drift)),
                ("drift_phase", Json::Num(drift)),
            ]),
        ));
    }
    table.row(&[
        "drift".into(),
        format!("best static {best_drift_label}"),
        format!("{best_drift:.4}"),
        "baseline (drift phase)".into(),
    ]);
    table.row(&[
        "drift".into(),
        "scheduled".into(),
        format!("{drift_secs:.4}"),
        format!(
            "{:.1}% of best (drift phase)",
            drift_secs / best_drift * 100.0
        ),
    ]);
    table.print();
    println!("sort delay after each injection (steps): {delays:?}");

    let json = Json::obj([
        ("particles", Json::Int(n as i64)),
        ("steps", Json::Int(steps as i64)),
        ("reps", Json::Int(reps as i64)),
        ("tolerance_pct", Json::Num(tolerance)),
        (
            "steady",
            Json::obj([
                (
                    "static_secs",
                    Json::Obj(steady_json.into_iter().collect::<Vec<_>>()),
                ),
                ("best_static", Json::s(&best_label)),
                ("best_static_secs", Json::Num(best_static)),
                ("adaptive_secs", Json::Num(steady_secs)),
                ("adaptive_over_best", Json::Num(steady_ratio)),
            ]),
        ),
        (
            "drift",
            Json::obj([
                (
                    "static_secs",
                    Json::Obj(drift_json.into_iter().collect::<Vec<_>>()),
                ),
                ("best_static", Json::s(&best_drift_label)),
                ("best_static_drift_secs", Json::Num(best_drift)),
                ("best_static_total_secs", Json::Num(best_drift_total)),
                ("adaptive_drift_secs", Json::Num(drift_secs)),
                ("adaptive_total_secs", Json::Num(adaptive_total)),
                ("adaptive_over_best", Json::Num(drift_secs / best_drift)),
                ("shuffle_every", Json::Int(shuffle_every as i64)),
                ("min_sort_spacing", Json::Int(min_spacing as i64)),
                (
                    "sort_delays",
                    Json::Arr(
                        delays
                            .iter()
                            .map(|d| d.map_or(Json::Null, |k| Json::Int(k as i64)))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    let path = results_path("BENCH_adaptive.json");
    write_json_file(&path, &json).map_err(|e| PicError::Config(e.to_string()))?;
    println!("wrote {}", path.display());

    // The decision gate first (deterministic), then the timing gates, all
    // after the numbers are on disk for post-mortems.
    gate(
        !delays.is_empty() && delays.iter().all(|d| d.is_some_and(|k| k <= min_spacing)),
        &format!(
            "drift: the scheduler must sort within {min_spacing} steps of every \
             injection (delays {delays:?})"
        ),
    )?;
    gate(
        steady_secs <= best_static * (1.0 + tolerance / 100.0),
        &format!(
            "steady: scheduled {steady_secs:.4}s vs best static {best_label} \
             {best_static:.4}s ({:.1}% over, tolerance {tolerance}%)",
            (steady_ratio - 1.0) * 100.0
        ),
    )?;
    gate(
        drift_secs < best_drift,
        &format!(
            "drift: scheduled drift-phase {drift_secs:.4}s must beat best \
             static sort period ({best_drift_label} at {best_drift:.4}s)"
        ),
    )?;
    Ok(())
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}
