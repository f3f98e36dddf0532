//! `decomposed_2r`: the Landau case split over 2 `minimpi` ranks (one
//! worker each) by a Morton cut, with the slab-distributed field solve —
//! the one workload where halo exchange, the all-to-all solve and particle
//! migration carry the time.

use crate::common::{
    closing_metrics, derive_seed, median, step_metrics, working_set, Report, RunArgs, Spans,
    ES_GRID_BYTES_PER_CELL, SOA_BYTES_PER_PARTICLE,
};
use pic2d::decomp::{CommStats, DecompConfig, DecomposedSimulation, SolverMode};
use pic2d::minimpi::{Comm, World};
use pic2d::pic_core::sim::PicConfig;
use std::time::Instant;

const PARTICLES: usize = 400_000;
const RANKS: usize = 2;
/// Timed steps per second of budget (about 10 ms per step on a 2-core box).
const STEPS_PER_SECOND: f64 = 100.0;
/// Steps per output check, and per traced/untraced block of a traced run.
const BLOCK: usize = 20;
const WARMUP: usize = BLOCK;
const SETUP_REPS: usize = 5;
/// Relative bound on the drift of the global charge (the sum of every
/// rank's owned ρ points).
const CHARGE_REL_BOUND: f64 = 1e-9;

fn config(seed: u64) -> (PicConfig, DecompConfig) {
    let mut cfg = PicConfig::landau_table1(PARTICLES);
    cfg.threads = 1;
    cfg.seed = derive_seed(seed, 3);
    let dcfg = DecompConfig {
        // Width 2 lets the fastest particles of this 128² case leak out of
        // the halo within the first steps.
        halo_width: 3,
        weighted: false,
        solver: SolverMode::Slab,
        tag_block: 0,
    };
    (cfg, dcfg)
}

/// What one rank measured.
#[derive(Default)]
struct RankOut {
    setup_s: f64,
    step_secs: Vec<f64>,
    wall: f64,
    /// Particles hosted, and the sum of owned ρ points, at construction
    /// and after every block.
    counts: Vec<usize>,
    charges: Vec<f64>,
    /// Construction or warm-up failure.
    setup_error: Option<String>,
    /// First failed timed step and its error.
    error: Option<(usize, String)>,
    traced_blocks: Vec<f64>,
    plain_blocks: Vec<f64>,
    traced_steps: usize,
    traced_secs: f64,
    stats: CommStats,
    comm_s: f64,
    comm_bytes: u64,
    spans: Option<Spans>,
}

fn owned_charge(d: &DecomposedSimulation) -> f64 {
    let rho = d.sim().rho();
    d.plan().owned_points.iter().map(|&p| rho[p]).sum()
}

fn add_stats(acc: &mut CommStats, before: &CommStats, after: &CommStats) {
    acc.halo_bytes += after.halo_bytes - before.halo_bytes;
    acc.solve_bytes += after.solve_bytes - before.solve_bytes;
    acc.migrate_bytes += after.migrate_bytes - before.migrate_bytes;
    acc.migrated_out += after.migrated_out - before.migrated_out;
    acc.halo_secs += after.halo_secs - before.halo_secs;
    acc.solve_secs += after.solve_secs - before.solve_secs;
    acc.migrate_send_secs += after.migrate_send_secs - before.migrate_send_secs;
    acc.migrate_drain_secs += after.migrate_drain_secs - before.migrate_drain_secs;
}

/// One rank: construct, then (for `blocks > 0`) warm up and run the timed
/// blocks.
fn rank(comm: &mut Comm, seed: u64, blocks: usize, trace: bool) -> RankOut {
    let (cfg, dcfg) = config(seed);
    let mut out = RankOut::default();
    let t = Instant::now();
    let mut d = match DecomposedSimulation::new(cfg, dcfg, comm) {
        Ok(d) => d,
        Err(e) => {
            out.setup_error = Some(format!("setup: {e}"));
            return out;
        }
    };
    out.setup_s = t.elapsed().as_secs_f64();
    out.counts.push(d.local_particles());
    out.charges.push(owned_charge(&d));
    if blocks == 0 {
        return out;
    }
    if let Err(e) = d.run(WARMUP, comm) {
        out.setup_error = Some(format!("warm-up: {e}"));
        return out;
    }
    let mut spans = Spans::new();
    let run_start = Instant::now();
    'blocks: for b in 0..blocks {
        let traced = trace && b % 2 == 1;
        let block_start = Instant::now();
        let (stats0, comm0, bytes0) = (
            d.stats(),
            comm.comm_time(),
            comm.bytes_sent() + comm.bytes_received(),
        );
        for i in 0..BLOCK {
            let t = Instant::now();
            let res = d.step(comm);
            let secs = t.elapsed().as_secs_f64();
            if traced {
                spans.push(
                    "DecomposedSimulation::step",
                    d.steps(),
                    None,
                    spans.at(t),
                    spans.now(),
                );
            }
            out.step_secs.push(secs);
            if let Err(e) = res {
                out.error = Some((b * BLOCK + i, e.to_string()));
                break 'blocks;
            }
        }
        let block_secs = block_start.elapsed().as_secs_f64();
        if traced {
            add_stats(&mut out.stats, &stats0, &d.stats());
            out.comm_s += comm.comm_time() - comm0;
            out.comm_bytes += comm.bytes_sent() + comm.bytes_received() - bytes0;
            out.traced_steps += BLOCK;
            out.traced_secs += block_secs;
            out.traced_blocks.push(block_secs);
        } else {
            out.plain_blocks.push(block_secs);
        }
        out.counts.push(d.local_particles());
        out.charges.push(owned_charge(&d));
    }
    out.wall = run_start.elapsed().as_secs_f64();
    if trace {
        out.spans = Some(spans);
    }
    out
}

fn world(seed: u64, blocks: usize, trace: bool) -> Vec<RankOut> {
    World::run(RANKS, |comm| rank(comm, seed, blocks, trace))
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let blocks = ((args.seconds * STEPS_PER_SECOND) as usize / BLOCK).max(5);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let outs = world(args.seed, 0, false);
        if let Some(e) = outs.iter().find_map(|o| o.setup_error.clone()) {
            return Err(e);
        }
        setups.push(outs.iter().map(|o| o.setup_s).fold(0.0, f64::max));
    }
    let outs = world(args.seed, blocks, args.trace);
    if let Some(e) = outs.iter().find_map(|o| o.setup_error.clone()) {
        return Err(e);
    }
    setups.push(outs.iter().map(|o| o.setup_s).fold(0.0, f64::max));
    let setup_s = median(&mut setups);

    let mut rep = Report::default();
    let (cfg, _) = config(args.seed);
    working_set(
        &mut rep,
        args.trace,
        "decomposed_2r, per rank",
        (PARTICLES / RANKS) as u64 * SOA_BYTES_PER_PARTICLE,
        (cfg.grid_nx * cfg.grid_ny) as u64 * ES_GRID_BYTES_PER_CELL,
    );

    // The slowest rank sets each step's time.
    let timed = outs.iter().map(|o| o.step_secs.len()).min().unwrap_or(0);
    let step_secs: Vec<f64> = (0..timed)
        .map(|i| outs.iter().map(|o| o.step_secs[i]).fold(0.0, f64::max))
        .collect();
    let wall = outs.iter().map(|o| o.wall).fold(0.0, f64::max);
    rep.attempted = (blocks * BLOCK) as u64;

    let first_error = outs
        .iter()
        .filter_map(|o| o.error.clone())
        .min_by_key(|(s, _)| *s);
    let checked = outs.iter().map(|o| o.counts.len()).min().unwrap_or(0);
    let q0: f64 = outs.iter().map(|o| o.charges[0]).sum();
    let mut failed_blocks = 0;
    for b in 1..checked {
        let n: usize = outs.iter().map(|o| o.counts[b]).sum();
        let q: f64 = outs.iter().map(|o| o.charges[b]).sum();
        let mut ok = true;
        if n != PARTICLES {
            ok = rep.check(
                "decomp.particles",
                false,
                format!("block {b}: {n} particles hosted, expected {PARTICLES}"),
            );
        }
        if (q - q0).abs() > CHARGE_REL_BOUND * q0.abs() {
            ok = rep.check(
                "decomp.charge",
                false,
                format!("block {b}: global charge {q} vs {q0} at start"),
            );
        }
        if !ok {
            failed_blocks += 1;
        }
    }
    // Steps a failed check covers, plus every step from the first error on.
    rep.failed = (failed_blocks * BLOCK) as u64;
    if let Some((s, e)) = &first_error {
        rep.check("decomp.step", false, format!("step {s}: {e}"));
        rep.failed += (blocks * BLOCK - s) as u64;
    }
    rep.failed = rep.failed.min(rep.attempted);
    rep.check(
        "decomp.checks",
        rep.failed == 0,
        format!(
            "{} blocks on {RANKS} ranks: hosted particles sum to {PARTICLES}, global charge within {CHARGE_REL_BOUND:e} of {q0:.6e}",
            checked.saturating_sub(1)
        ),
    );
    if timed == 0 {
        return Err(format!(
            "no step completed: {}",
            first_error.map_or(String::new(), |(_, e)| e)
        ));
    }

    if !args.trace {
        step_metrics(
            &mut rep,
            "decomposed_2r",
            &step_secs,
            BLOCK,
            PARTICLES as f64,
            wall,
        );
        closing_metrics(&mut rep, setup_s);
        return Ok(rep);
    }

    let steps = outs[0].traced_steps.max(1) as f64;
    let mean = |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).sum::<f64>() / outs.len() as f64;
    let per_step_ms = |f: &dyn Fn(&CommStats) -> f64| mean(&|o| f(&o.stats)) / steps * 1e3;
    let compute = |o: &RankOut| o.traced_secs - o.stats.total_secs();
    let max_compute = outs.iter().map(compute).fold(0.0, f64::max);
    rep.metric(
        "decomp.compute_ms_per_step",
        mean(&compute) / steps * 1e3,
        "ms",
    );
    rep.metric(
        "decomp.halo_ms_per_step",
        per_step_ms(&|s| s.halo_secs),
        "ms",
    );
    rep.metric(
        "decomp.solve_ms_per_step",
        per_step_ms(&|s| s.solve_secs),
        "ms",
    );
    rep.metric(
        "decomp.migrate_send_ms_per_step",
        per_step_ms(&|s| s.migrate_send_secs),
        "ms",
    );
    rep.metric(
        "decomp.migrate_drain_ms_per_step",
        per_step_ms(&|s| s.migrate_drain_secs),
        "ms",
    );
    rep.metric(
        "decomp.halo_bytes_per_step",
        mean(&|o| o.stats.halo_bytes as f64) / steps,
        "B",
    );
    rep.metric(
        "decomp.solve_bytes_per_step",
        mean(&|o| o.stats.solve_bytes as f64) / steps,
        "B",
    );
    rep.metric(
        "decomp.migrate_bytes_per_step",
        mean(&|o| o.stats.migrate_bytes as f64) / steps,
        "B",
    );
    rep.metric(
        "decomp.migrated_per_step",
        outs.iter()
            .map(|o| o.stats.migrated_out as f64)
            .sum::<f64>()
            / steps,
        "count",
    );
    rep.metric(
        "decomp.rank_imbalance",
        max_compute / mean(&compute),
        "ratio",
    );
    rep.metric(
        "spectral.solve_ms_per_step",
        per_step_ms(&|s| s.solve_secs),
        "ms",
    );
    rep.metric("minimpi.comm_s", mean(&|o| o.comm_s), "s");
    rep.metric(
        "minimpi.bytes_per_step",
        mean(&|o| o.comm_bytes as f64) / steps,
        "B",
    );
    let mut plain: Vec<f64> = outs.iter().flat_map(|o| o.plain_blocks.clone()).collect();
    let mut traced: Vec<f64> = outs.iter().flat_map(|o| o.traced_blocks.clone()).collect();
    rep.metric(
        "trace.overhead_share",
        crate::common::overhead_share(&mut plain, &mut traced),
        "ratio",
    );
    for (r, o) in outs.iter().enumerate() {
        if let Some(spans) = &o.spans {
            spans.write(&format!("decomposed_2r-s{}-r{r}.jsonl", args.seed));
        }
    }
    Ok(rep)
}
