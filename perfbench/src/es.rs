//! `es_landau_1m`: the paper's Table I Landau case at the top rung of the
//! optimization ladder, 1M particles on a 128² grid over 2 pool workers.

use crate::common::{
    closing_metrics, derive_seed, median, step_metrics, timed_setup, working_set, Report, RunArgs,
    Spans, ES_GRID_BYTES_PER_CELL, SOA_BYTES_PER_PARTICLE,
};
use pic2d::pic_core::sim::{PhaseTimes, PicConfig, Simulation};
use pic2d::pic_core::trace::bytes_per_particle;
use std::time::Instant;

const PARTICLES: usize = 1_000_000;
/// Timed steps per second of budget (about 10 ms per step on a 2-core box).
const STEPS_PER_SECOND: f64 = 100.0;
/// Steps per block: one sort period, so every block holds one sort. Output
/// checks run at block ends, and a traced run alternates traced and
/// untraced blocks.
pub const BLOCK: usize = 20;
/// Warm-up before timing: one block, so the first sort and lazy set-up
/// are done.
const WARMUP: usize = BLOCK;
const SETUP_REPS: usize = 5;
/// Bound on `max |E(t) − E(0)| / E(0)` over the run: a 1200-step run
/// drifts about 2e-6, and a broken kernel or field solve exceeds this
/// within a few steps.
const ENERGY_DRIFT_BOUND: f64 = 1e-4;
/// Relative bound on `|Σρ − charge_reference|`: deposits reassociate sums
/// only, so charge is exact up to rounding.
const CHARGE_REL_BOUND: f64 = 1e-9;

pub fn config(seed: u64, threads: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(PARTICLES);
    cfg.threads = threads;
    cfg.seed = derive_seed(seed, 1);
    cfg
}

fn check_block(rep: &mut Report, sim: &Simulation, block: usize) -> bool {
    let q = sim.total_charge();
    let q0 = sim.charge_reference();
    let charge_ok = (q - q0).abs() <= CHARGE_REL_BOUND * q0.abs();
    let drift = sim.diagnostics().relative_energy_drift();
    let drift_ok = drift.is_finite() && drift <= ENERGY_DRIFT_BOUND;
    if !charge_ok {
        rep.check(
            "es.charge",
            false,
            format!("block {block}: total charge {q} vs reference {q0}"),
        );
    }
    if !drift_ok {
        rep.check(
            "es.energy_drift",
            false,
            format!("block {block}: drift {drift:e} > {ENERGY_DRIFT_BOUND:e}"),
        );
    }
    charge_ok && drift_ok
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let cfg = config(args.seed, 2);
    let (mut sim, setup_s) = timed_setup(SETUP_REPS, || {
        Simulation::new(cfg.clone()).map_err(|e| e.to_string())
    })?;
    sim.run(WARMUP);
    let blocks = ((args.seconds * STEPS_PER_SECOND) as usize / BLOCK).max(5);
    sim.reserve_diagnostics(blocks * BLOCK + 1);
    let mut rep = Report::default();
    working_set(
        &mut rep,
        args.trace,
        "es_landau_1m",
        PARTICLES as u64 * SOA_BYTES_PER_PARTICLE,
        (cfg.grid_nx * cfg.grid_ny) as u64 * ES_GRID_BYTES_PER_CELL,
    );

    let mut spans = Spans::new();
    let mut step_secs = Vec::with_capacity(blocks * BLOCK);
    // Per-block wall seconds, traced and untraced.
    let (mut traced_blocks, mut plain_blocks) = (Vec::new(), Vec::new());
    let mut phases = PhaseTimes::default();
    let (mut traced_wall, mut traced_steps, mut sorts) = (0.0, 0usize, 0usize);
    let run_start = Instant::now();
    for b in 0..blocks {
        let traced = args.trace && b % 2 == 1;
        let block_start = Instant::now();
        for _ in 0..BLOCK {
            let op = sim.steps() as u64 + 1;
            let t = Instant::now();
            if traced {
                let before = sim.timers();
                let step = spans.open("step", op);
                spans.time("step_pre_reduce", op, Some(step), || sim.step_pre_reduce());
                spans.time("step_post_reduce", op, Some(step), || {
                    sim.step_post_reduce()
                });
                spans.close(step);
                let after = sim.timers();
                let wall = t.elapsed().as_secs_f64();
                accumulate(&mut phases, &before, &after);
                sorts += usize::from(after.sort > before.sort);
                traced_wall += wall;
                traced_steps += 1;
                step_secs.push(wall);
            } else {
                sim.step();
                step_secs.push(t.elapsed().as_secs_f64());
            }
        }
        let block_secs = block_start.elapsed().as_secs_f64();
        if args.trace {
            if traced {
                &mut traced_blocks
            } else {
                &mut plain_blocks
            }
            .push(block_secs);
        }
        if !check_block(&mut rep, &sim, b) {
            rep.failed += BLOCK as u64;
        }
    }
    let wall = run_start.elapsed().as_secs_f64();
    rep.attempted = step_secs.len() as u64;
    rep.check(
        "es.checks",
        rep.failed == 0,
        format!(
            "{blocks} blocks: charge within {CHARGE_REL_BOUND:e} of reference, energy drift {:.3e} <= {ENERGY_DRIFT_BOUND:e}",
            sim.diagnostics().relative_energy_drift()
        ),
    );

    if !args.trace {
        step_metrics(
            &mut rep,
            "es_landau_1m",
            &step_secs,
            BLOCK,
            PARTICLES as f64,
            wall,
        );
        closing_metrics(&mut rep, setup_s);
        return Ok(rep);
    }

    let np = PARTICLES as f64 * traced_steps as f64;
    let ns = |secs: f64| secs / np * 1e9;
    let (bv, bx, ba) = bytes_per_particle();
    let gbps = |bytes: u64, secs: f64| bytes as f64 * np / secs / 1e9;
    rep.metric("kernels.kick_ns_per_p", ns(phases.update_v), "ns/p");
    rep.metric("kernels.push_ns_per_p", ns(phases.update_x), "ns/p");
    rep.metric("kernels.deposit_ns_per_p", ns(phases.accumulate), "ns/p");
    rep.metric(
        "kernels.kick_gbps_computed",
        gbps(bv, phases.update_v),
        "GB/s",
    );
    rep.metric(
        "kernels.push_gbps_computed",
        gbps(bx, phases.update_x),
        "GB/s",
    );
    rep.metric(
        "kernels.deposit_gbps_computed",
        gbps(ba, phases.accumulate),
        "GB/s",
    );
    rep.metric(
        "sort.ns_per_p",
        phases.sort / (PARTICLES * sorts.max(1)) as f64 * 1e9,
        "ns/p",
    );
    rep.metric(
        "sort.ms_per_sort",
        phases.sort / sorts.max(1) as f64 * 1e3,
        "ms",
    );
    rep.metric("sort.count", sorts as f64, "count");
    rep.metric("sim.convert_ns_per_p", ns(phases.convert), "ns/p");
    rep.metric(
        "sim.unattributed_ns_per_p",
        ns(traced_wall - phases.total()),
        "ns/p",
    );
    rep.metric("sim.step_ns_per_p", ns(traced_wall), "ns/p");
    rep.metric(
        "spectral.solve_ms_per_step",
        phases.solve / traced_steps as f64 * 1e3,
        "ms",
    );
    eprintln!(
        "budget over {traced_steps} traced steps (ns/p): kick {:.3} + push {:.3} + deposit {:.3} + sort {:.3} \
         + convert {:.3} + solve {:.3} + unattributed {:.3} = wall {:.3}",
        ns(phases.update_v),
        ns(phases.update_x),
        ns(phases.accumulate),
        ns(phases.sort),
        ns(phases.convert),
        ns(phases.solve),
        ns(traced_wall - phases.total()),
        ns(traced_wall),
    );
    rep.metric(
        "trace.overhead_share",
        crate::common::overhead_share(&mut plain_blocks, &mut traced_blocks),
        "ratio",
    );
    rep.metric("pool.speedup_2t", speedup_2t(&mut sim, args.seed)?, "ratio");
    drop(sim);
    rep.metric("membench.triad_gbps", crate::common::triad_gbps(), "GB/s");
    spans.write(&format!("es_landau_1m-s{}.jsonl", args.seed));
    Ok(rep)
}

fn accumulate(acc: &mut PhaseTimes, before: &PhaseTimes, after: &PhaseTimes) {
    acc.update_v += after.update_v - before.update_v;
    acc.update_x += after.update_x - before.update_x;
    acc.accumulate += after.accumulate - before.accumulate;
    acc.sort += after.sort - before.sort;
    acc.convert += after.convert - before.convert;
    acc.solve += after.solve - before.solve;
}

/// Ratio of a 1-worker run of the same case to the 2-worker run, from
/// interleaved one-block samples.
fn speedup_2t(sim2: &mut Simulation, seed: u64) -> Result<f64, String> {
    let mut sim1 = Simulation::new(config(seed, 1)).map_err(|e| e.to_string())?;
    sim1.run(WARMUP);
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (sim, out) in [(&mut sim1, &mut t1), (&mut *sim2, &mut t2)] {
            let t = Instant::now();
            sim.run(BLOCK);
            out.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(median(&mut t1) / median(&mut t2))
}
