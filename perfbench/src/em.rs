//! `em_two_stream`: the magnetized two-stream case (electrons plus a
//! quarter as many heavy ions) in the 2d3v electromagnetic driver, with the
//! adaptive controller owning the sort schedule while the instability
//! grows and particle disorder drifts.

use crate::common::{
    closing_metrics, derive_seed, median, step_metrics, timed_setup, working_set, Report, RunArgs,
    Spans, EM_BYTES_PER_PARTICLE, EM_GRID_BYTES_PER_CELL,
};
use pic2d::pic_core::control::ControllerConfig;
use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::fields::{Field2D, RedundantE, RedundantJ};
use pic2d::pic_core::kernels::boris::{boris_push_lanes, BorisCoeffs};
use pic2d::pic_core::kernels::current::pool_deposit_current;
use pic2d::pic_core::pool::ThreadPool;
use pic2d::pic_core::sim::{DepositPath, KernelPath};
use pic2d::pic_core::species::split_species_mut;
use pic2d::spectral::poisson::PoissonSolver2D;
use std::time::Instant;

const ELECTRONS: usize = 640_000;
/// Timed steps per second of budget (about 13 ms per step on a 2-core box).
const STEPS_PER_SECOND: f64 = 75.0;
/// Steps per output check, and per traced/untraced block of a traced run.
const BLOCK: usize = 20;
const WARMUP: usize = BLOCK;
const SETUP_REPS: usize = 5;
/// Relative bound on the net-charge error, against the charge of one
/// species (the plasma is neutral, so the net reference is near zero).
const CHARGE_REL_BOUND: f64 = 1e-9;
/// The mode-1 `E_x` amplitude must grow by at least this factor over the
/// timed run: the two-stream instability is the physics the case exists
/// to reproduce.
const MIN_GROWTH: f64 = 10.0;

fn config(seed: u64) -> EmConfig {
    let mut cfg = EmConfig::magnetized_two_stream(ELECTRONS);
    cfg.threads = 2;
    cfg.seed = derive_seed(seed, 2);
    cfg.controller = Some(ControllerConfig::default());
    cfg
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let cfg = config(args.seed);
    let (mut sim, setup_s) = timed_setup(SETUP_REPS, || {
        EmSimulation::new(cfg.clone()).map_err(|e| e.to_string())
    })?;
    sim.run(WARMUP);
    let total: usize = sim.species().iter().map(|s| s.len()).sum();
    let counts0: Vec<usize> = sim.species().iter().map(|s| s.len()).collect();
    let q0 = sim.charge_reference();
    // Charge scale: the charge carried by the electrons alone.
    let q_scale = {
        let g = sim.grid();
        let e = &sim.species()[0];
        (e.deposit_weight(g) * (g.dx() * g.dy()) * e.len() as f64).abs()
    };
    let amp0 = sim.ex_mode_amplitude(1);
    // At least 15 blocks: the instability saturates within about 300 steps.
    let blocks = ((args.seconds * STEPS_PER_SECOND) as usize / BLOCK).max(15);
    let mut rep = Report::default();
    let ncells = (cfg.grid_nx * cfg.grid_ny) as u64;
    working_set(
        &mut rep,
        args.trace,
        "em_two_stream",
        total as u64 * EM_BYTES_PER_PARTICLE,
        ncells * EM_GRID_BYTES_PER_CELL,
    );

    let mut spans = Spans::new();
    let mut step_secs = Vec::with_capacity(blocks * BLOCK);
    let (mut traced_blocks, mut plain_blocks) = (Vec::new(), Vec::new());
    let (mut sorts, mut switches, mut disorder_sum, mut traced_steps) =
        (0usize, 0usize, 0.0, 0usize);
    let (mut particle_secs, mut field_secs) = (0.0, 0.0);
    let mut amp_max = amp0;
    let run_start = Instant::now();
    for b in 0..blocks {
        let traced = args.trace && b % 2 == 1;
        let block_start = Instant::now();
        for _ in 0..BLOCK {
            let op = sim.steps() as u64 + 1;
            let t = Instant::now();
            if traced {
                let will_sort = sim.controller().is_some_and(|c| c.should_sort());
                let step = spans.open("step", op);
                spans.time("step_pre_reduce", op, Some(step), || sim.step_pre_reduce());
                particle_secs += spans.last_secs();
                spans.time("step_post_reduce", op, Some(step), || {
                    sim.step_post_reduce()
                });
                field_secs += spans.last_secs();
                spans.close(step);
                let wall = t.elapsed().as_secs_f64();
                sorts += usize::from(will_sort);
                switches += sim.take_hot_path_events().len();
                disorder_sum += sim.controller().map_or(0.0, |c| c.disorder());
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
        amp_max = amp_max.max(sim.ex_mode_amplitude(1));
        let counts: Vec<usize> = sim.species().iter().map(|s| s.len()).collect();
        let q = sim.total_charge();
        let mut ok = true;
        if counts != counts0 {
            ok = rep.check(
                "em.species_counts",
                false,
                format!("block {b}: {counts:?} != {counts0:?}"),
            );
        }
        if (q - q0).abs() > CHARGE_REL_BOUND * q_scale {
            ok = rep.check(
                "em.charge",
                false,
                format!("block {b}: net charge {q:e} vs reference {q0:e}"),
            );
        }
        if !ok {
            rep.failed += BLOCK as u64;
        }
    }
    let wall = run_start.elapsed().as_secs_f64();
    rep.attempted = step_secs.len() as u64;
    let growth = amp_max / amp0;
    if growth < MIN_GROWTH {
        // The last block is where the missing growth shows as wrong output.
        rep.failed += BLOCK as u64;
    }
    rep.check(
        "em.checks",
        rep.failed == 0,
        format!(
            "{blocks} blocks: species counts {counts0:?} kept, net charge within {CHARGE_REL_BOUND:e} x {q_scale:.3e}, \
             mode-1 E_x grew {growth:.1}x (>= {MIN_GROWTH}x) from {amp0:.3e}"
        ),
    );

    if !args.trace {
        step_metrics(
            &mut rep,
            "em_two_stream",
            &step_secs,
            BLOCK,
            total as f64,
            wall,
        );
        closing_metrics(&mut rep, setup_s);
        return Ok(rep);
    }

    let np = total as f64 * traced_steps as f64;
    rep.metric("em.particle_ns_per_p", particle_secs / np * 1e9, "ns/p");
    rep.metric("em.field_ns_per_p", field_secs / np * 1e9, "ns/p");
    rep.metric("control.sorts", sorts as f64, "count");
    rep.metric("control.switches", switches as f64, "count");
    rep.metric(
        "control.mean_disorder",
        disorder_sum / traced_steps.max(1) as f64,
        "ratio",
    );
    rep.metric(
        "trace.overhead_share",
        crate::common::overhead_share(&mut plain_blocks, &mut traced_blocks),
        "ratio",
    );
    let (boris, current) = electron_kernels(&sim, &cfg);
    rep.metric("kernels.boris_ns_per_p", boris, "ns/p");
    rep.metric("kernels.current_deposit_ns_per_p", current, "ns/p");
    rep.metric("spectral.solve_ms_per_step", solve_ms(&sim, &cfg)?, "ms");
    spans.write(&format!("em_two_stream-s{}.jsonl", args.seed));
    Ok(rep)
}

const KERNEL_REPS: usize = 7;

/// Median ns/particle of the Boris push and the current deposit, timed on
/// a copy of the electron arena against the run's own field, over a
/// 2-worker pool as the step runs them.
fn electron_kernels(sim: &EmSimulation, cfg: &EmConfig) -> (f64, f64) {
    let grid = sim.grid();
    let layout = cfg
        .ordering
        .build(grid.ncx, grid.ncy)
        .expect("the run built this layout");
    let mut field = Field2D::new(grid);
    let (ex, ey) = sim.e_field();
    field.ex.copy_from_slice(ex);
    field.ey.copy_from_slice(ey);
    let mut e8 = RedundantE::new(layout.as_ref());
    e8.fill_from(&field, layout.as_ref(), 1.0, 1.0);

    let mut arena = sim.species()[0].clone();
    let n = arena.len() as f64;
    let coeffs = BorisCoeffs::new(arena.def.charge, arena.def.mass, cfg.dt, cfg.b0);
    let pool = ThreadPool::new(2);
    let mut boris = Vec::with_capacity(KERNEL_REPS);
    for _ in 0..KERNEL_REPS {
        let t = Instant::now();
        let mut views = split_species_mut(&mut arena.p, &mut arena.vz, pool.nthreads());
        pool.run_items(&mut views, |_, v| {
            boris_push_lanes(v.icell, v.dx, v.dy, v.vx, v.vy, v.vz, &e8.e8, &coeffs);
        });
        boris.push(t.elapsed().as_secs_f64() / n * 1e9);
    }

    let w = arena.deposit_weight(grid);
    let (path, kernel) = sim
        .controller()
        .map_or((DepositPath::LaneReduce, KernelPath::Lanes), |c| {
            (c.deposit(), c.kernel())
        });
    let mut out = RedundantJ::new(layout.as_ref());
    let mut arenas: Vec<RedundantJ> = (0..pool.nthreads())
        .map(|_| RedundantJ::new(layout.as_ref()))
        .collect();
    let p = &arena.p;
    let mut current = Vec::with_capacity(KERNEL_REPS);
    for _ in 0..KERNEL_REPS {
        out.clear();
        let t = Instant::now();
        pool_deposit_current(
            &pool,
            &p.icell,
            &p.dx,
            &p.dy,
            &p.vx,
            &p.vy,
            &arena.vz,
            &mut out,
            &mut arenas,
            w,
            path,
            kernel,
        );
        current.push(t.elapsed().as_secs_f64() / n * 1e9);
    }
    (median(&mut boris), median(&mut current))
}

/// Median ms of one spectral field solve on a copy of the run's ρ.
fn solve_ms(sim: &EmSimulation, cfg: &EmConfig) -> Result<f64, String> {
    let solver = PoissonSolver2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)
        .map_err(|e| e.to_string())?;
    let rho = sim.rho().to_vec();
    let (mut ex, mut ey) = (vec![0.0; rho.len()], vec![0.0; rho.len()]);
    let mut ms = Vec::with_capacity(KERNEL_REPS);
    for _ in 0..KERNEL_REPS {
        let t = Instant::now();
        solver.solve_e(&rho, &mut ex, &mut ey);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&mut ms))
}
