//! `serve_mix`: an open-loop, multi-tenant `JobRuntime` (SRTF with
//! preemption, pool width 2) serving small electrostatic and
//! electromagnetic tenants.
//!
//! Load model: jobs arrive one every `1/RATE` seconds whatever the
//! runtime's progress (an open loop of independent users at one fixed
//! rate). Arrivals come in rounds; a round's jobs are all submitted when
//! the round starts, each becoming runnable at its due time through
//! `JobSpec::with_start_after`, and the round ends when the queue is
//! empty. Latency is timed from each job's due time, so a stall delays
//! every job due behind it. Every round holds the same fresh tenant shapes
//! (sizes and step counts): six groups of arrivals that each hold every
//! shape once, and a closing job of one fixed shape, so the backlog drain
//! after the last arrival measures the runtime, not which shape came last.
//! The seed sets the order within groups, particle sampling, which fresh
//! jobs carry an injected `Kill` fault (2 of 37), and where the rounds
//! after the first resubmit earlier jobs unchanged (4 of 41).

use crate::common::{
    closing_metrics, derive_seed, median, quantile, timed_setup, working_set, Report, RunArgs,
    Spans, EM_BYTES_PER_PARTICLE, EM_GRID_BYTES_PER_CELL,
};
use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::rng::Rng;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::serve::{
    FaultInjection, JobId, JobReport, JobRuntime, JobSpec, JobState, RuntimeConfig, Workload,
};
use std::time::{Duration, Instant};

/// Offered load, jobs per second. The tenant mix keeps the 2 workers busy
/// about 16 ms per job on a quiet 2-core Xeon box, so this rate loads the
/// runtime to about a third: the code the benchmark was defined against
/// serves it with no growing backlog even while neighbours on a shared
/// host halve its speed, which at 36 jobs/s already overloads it.
const RATE: f64 = 20.0;
/// Groups of fresh jobs per round; each group holds every shape once.
const ROUND_GROUPS: usize = 6;
/// Shape of the job that closes every round.
const CLOSING_SHAPE: usize = 1;
/// Fresh jobs per round that carry an injected `Kill` fault.
const ROUND_KILLS: usize = 2;
/// Exact resubmissions of earlier jobs in every round after the first.
const ROUND_RESUBMITS: usize = 4;
const SETUP_REPS: usize = 31;
const GRID: usize = 32;

/// A tenant shape: `(electromagnetic, particles, steps)`. The
/// electromagnetic shapes add a quarter as many heavy ions.
const SHAPES: [(bool, usize, u64); 6] = [
    (false, 2048, 32),
    (false, 4096, 32),
    (false, 4096, 64),
    (false, 8192, 32),
    (true, 1600, 32),
    (true, 3200, 32),
];

fn workload(shape: usize, seed: u64) -> Workload {
    let (em, n, _) = SHAPES[shape];
    if em {
        let mut cfg = EmConfig::magnetized_two_stream(n);
        cfg.threads = 2;
        cfg.seed = seed;
        Workload::MultiSpecies(cfg)
    } else {
        let mut cfg = PicConfig::landau_table1(n);
        cfg.grid_nx = GRID;
        cfg.grid_ny = GRID;
        cfg.threads = 2;
        cfg.seed = seed;
        Workload::Single(cfg)
    }
}

/// One generated arrival.
#[derive(Clone)]
struct Arrival {
    spec: JobSpec,
    /// Due time from the start of its round.
    due: Duration,
    /// Index (into all arrivals) of the job this one resubmits.
    original: Option<usize>,
}

/// Generate round `round`: fresh jobs from the fixed shape multiset plus,
/// after the first round, resubmissions of earlier fresh jobs.
fn generate(seed: u64, round: usize, earlier: &[Arrival]) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(derive_seed(seed, 100 + round as u64));
    let mut slots: Vec<Option<usize>> = Vec::new();
    for _ in 0..ROUND_GROUPS {
        let mut group: Vec<Option<usize>> = (0..SHAPES.len()).map(Some).collect();
        shuffle(&mut group, &mut rng);
        slots.extend(group);
    }
    if round > 0 {
        for _ in 0..ROUND_RESUBMITS {
            slots.insert(rng.below(slots.len() as u64 + 1) as usize, None);
        }
    }
    // The closing job never carries a fault.
    let fresh = ROUND_GROUPS * SHAPES.len();
    let mut kills: Vec<bool> = (0..fresh).map(|i| i < ROUND_KILLS).collect();
    shuffle(&mut kills, &mut rng);
    slots.push(Some(CLOSING_SHAPE));
    kills.push(false);
    let originals: Vec<usize> = (0..earlier.len())
        .filter(|&i| earlier[i].original.is_none())
        .collect();

    let mut out = Vec::with_capacity(slots.len());
    let mut k = 0;
    for (i, slot) in slots.into_iter().enumerate() {
        let due = Duration::from_secs_f64((i + 1) as f64 / RATE);
        let label = ((round as u64) << 32) + i as u64;
        match slot {
            Some(shape) => {
                let steps = SHAPES[shape].2;
                let mut spec = JobSpec::with_workload(
                    format!("r{round}-j{i}-shape{shape}"),
                    workload(shape, derive_seed(seed, 1000 + label)),
                    steps,
                );
                if kills[k] {
                    spec = spec.with_injection(FaultInjection::Kill { at_step: steps / 2 });
                }
                k += 1;
                out.push(Arrival {
                    spec,
                    due,
                    original: None,
                });
            }
            None => {
                let o = originals[rng.below(originals.len() as u64) as usize];
                let mut spec = earlier[o].spec.clone();
                spec.name = format!("r{round}-j{i}-resubmit-{}", earlier[o].spec.name);
                out.push(Arrival {
                    spec,
                    due,
                    original: Some(o),
                });
            }
        }
    }
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn runtime_config(jobs: usize) -> RuntimeConfig {
    RuntimeConfig {
        threads: 2,
        // Admission must never shed in this load model: the whole run's
        // arrivals may be queued at once.
        max_active: jobs,
        cache_capacity: jobs,
        ..RuntimeConfig::default()
    }
}

/// Submit a round's arrivals, each runnable at its due time. Returns the
/// round start, and each job's id and `start_after`.
fn submit_round(
    rt: &mut JobRuntime,
    round: &[Arrival],
    spans: Option<&mut Spans>,
) -> (Instant, Vec<(JobId, Duration)>) {
    let start = Instant::now();
    let mut ids = Vec::with_capacity(round.len());
    let mut spans = spans;
    for a in round {
        let start_after = a.due.saturating_sub(start.elapsed());
        let t = Instant::now();
        let id = rt.submit(a.spec.clone().with_start_after(start_after));
        if let Some(s) = spans.as_deref_mut() {
            s.push("JobRuntime::submit", id.0, None, s.at(t), s.now());
        }
        ids.push((id, start_after));
    }
    (start, ids)
}

/// A job's latency from its due time. A job served at or before it (a
/// cache hit at admission) waited zero.
fn from_due(report: &JobReport, start_after: Duration) -> Duration {
    report
        .latency
        .map_or(Duration::ZERO, |l| l.saturating_sub(start_after))
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let per_round = (ROUND_GROUPS * SHAPES.len() + 1 + ROUND_RESUBMITS) as f64;
    let rounds = ((args.seconds * RATE / per_round).round() as usize).max(2);
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut bounds = vec![0];
    for r in 0..rounds {
        let round = generate(args.seed, r, &arrivals);
        arrivals.extend(round);
        bounds.push(arrivals.len());
    }
    let total_jobs = arrivals.len();
    let rcfg = runtime_config(total_jobs);

    let mut rep = Report::default();
    let max_particles = SHAPES
        .iter()
        .map(|s| if s.0 { s.1 + s.1 / 4 } else { s.1 })
        .max()
        .unwrap_or(0);
    working_set(
        &mut rep,
        args.trace,
        "serve_mix, largest tenant",
        max_particles as u64 * EM_BYTES_PER_PARTICLE,
        (GRID * GRID) as u64 * EM_GRID_BYTES_PER_CELL,
    );

    let mut rt = JobRuntime::new(rcfg.clone());
    let mut spans = Spans::new();
    let mut ids: Vec<(JobId, Duration)> = Vec::with_capacity(total_jobs);
    let mut drains = Vec::with_capacity(rounds);
    let (mut traced_rounds, mut plain_rounds) = (Vec::new(), Vec::new());
    let mut busy = 0.0;
    for r in 0..rounds {
        let traced = args.trace && r % 2 == 1;
        let round = &arrivals[bounds[r]..bounds[r + 1]];
        let (start, round_ids) = submit_round(&mut rt, round, traced.then_some(&mut spans));
        let run_start = spans.at(Instant::now());
        rt.run();
        let end = Instant::now();
        let last_due = round.iter().map(|a| a.due).max().unwrap_or_default();
        drains.push((end - start).saturating_sub(last_due).as_secs_f64());
        let secs = (end - start).as_secs_f64();
        busy += secs;
        if args.trace {
            if traced {
                &mut traced_rounds
            } else {
                &mut plain_rounds
            }
            .push(secs);
        }
        if traced {
            let parent = spans.push("JobRuntime::run", r as u64, None, run_start, spans.at(end));
            for (a, &(id, start_after)) in round.iter().zip(&round_ids) {
                let report = rt.job_report(id).expect("submitted job has a report");
                let due = spans.at(start + a.due);
                let wait = from_due(&report, start_after).as_nanos() as u64;
                spans.push("job", id.0, Some(parent), due, due + wait);
            }
        }
        ids.extend(round_ids);
    }

    // Set-up: a runtime with its pool, and every arrival admitted. Timed
    // after the run, on a process whose allocator and caches the run has
    // already warmed, so a sub-millisecond figure measures the runtime and
    // not process start-up.
    let (_, setup_s) = timed_setup(SETUP_REPS, || {
        let mut rt = JobRuntime::new(rcfg.clone());
        submit_round(&mut rt, &arrivals, None);
        Ok(rt)
    })?;

    // Outcomes and checks.
    let reports: Vec<_> = ids
        .iter()
        .map(|(id, _)| rt.job_report(*id).expect("submitted job has a report"))
        .collect();
    let mut latency_ms = Vec::with_capacity(total_jobs);
    let mut step_ms = Vec::new();
    let mut particle_steps = 0.0;
    let (mut not_done, mut bad_resubmits) = (Vec::new(), Vec::new());
    for (i, (r, a)) in reports.iter().zip(&arrivals).enumerate() {
        let wait_ms = from_due(r, ids[i].1).as_secs_f64() * 1e3;
        latency_ms.push(wait_ms);
        if r.state != JobState::Done {
            not_done.push(format!("{} ended {}", r.name, r.state.name()));
            continue;
        }
        match a.original {
            Some(o) => {
                if !r.cache_hit || r.digest.is_none() || r.digest != reports[o].digest {
                    bad_resubmits.push(format!(
                        "{}: cache hit {}, digest {:?} vs original {:?}",
                        r.name, r.cache_hit, r.digest, reports[o].digest
                    ));
                }
            }
            None => {
                step_ms.push(wait_ms / a.spec.steps as f64);
                particle_steps += (a.spec.workload.particles() as u64 * a.spec.steps) as f64;
            }
        }
    }
    rep.attempted = total_jobs as u64;
    rep.failed = not_done.len() as u64 + bad_resubmits.len() as u64;
    let resubmits = arrivals.iter().filter(|a| a.original.is_some()).count();
    let kills = arrivals
        .iter()
        .filter(|a| a.spec.inject != FaultInjection::None)
        .count();
    rep.check(
        "serve.all_done",
        not_done.is_empty(),
        if not_done.is_empty() {
            format!("all {total_jobs} jobs ended Done ({kills} with an injected Kill)")
        } else {
            not_done.join("; ")
        },
    );
    rep.check(
        "serve.resubmissions",
        bad_resubmits.is_empty(),
        if bad_resubmits.is_empty() {
            format!("all {resubmits} resubmissions were cache hits with the original digest")
        } else {
            bad_resubmits.join("; ")
        },
    );

    let p50 = quantile(&mut latency_ms, 0.5);
    let p90 = quantile(&mut latency_ms, 0.9);
    let mpps = particle_steps / busy / 1e6;
    eprintln!(
        "serve_mix: open loop at {RATE} jobs/s, {rounds} rounds: {} jobs, latency from due p50 {p50:.2} ms, \
         p90 {p90:.2} ms ({} samples beyond p90); {} computed jobs for per-step latency; drains {drains:.3?} s",
        latency_ms.len(),
        latency_ms.len() - (latency_ms.len() as f64 * 0.9).ceil() as usize,
        step_ms.len(),
    );

    if !args.trace {
        rep.metric("throughput_mpps", mpps, "Mpart-step/s");
        rep.metric("step_ms_p50", quantile(&mut step_ms, 0.5), "ms");
        rep.metric("step_ms_p90", quantile(&mut step_ms, 0.9), "ms");
        rep.metric("job_latency_ms_p50", p50, "ms");
        rep.metric("job_latency_ms_p90", p90, "ms");
        rep.metric("backlog_drain_s", median(&mut drains), "s");
        closing_metrics(&mut rep, setup_s);
        return Ok(rep);
    }

    let sum = |f: &dyn Fn(&JobReport) -> f64| reports.iter().map(f).sum::<f64>();
    let (hits, misses) = rt.cache_stats();
    rep.metric("serve.preemptions", sum(&|r| r.preemptions as f64), "count");
    rep.metric("serve.restores", sum(&|r| r.restores as f64), "count");
    rep.metric("serve.retries", sum(&|r| r.retries as f64), "count");
    rep.metric(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    rep.metric(
        "serve.shed",
        sum(&|r| f64::from(u8::from(r.state == JobState::Shed))),
        "count",
    );
    rep.metric(
        "serve.quarantined",
        sum(&|r| f64::from(u8::from(r.state == JobState::Quarantined))),
        "count",
    );
    rep.metric(
        "trace.overhead_share",
        crate::common::overhead_share(&mut plain_rounds, &mut traced_rounds),
        "ratio",
    );
    let (bytes, encode_ms, restore_ms) = checkpoint_costs(args.seed)?;
    rep.metric("checkpoint.bytes", bytes, "B");
    rep.metric("checkpoint.encode_ms", encode_ms, "ms");
    rep.metric("checkpoint.restore_ms", restore_ms, "ms");
    spans.write(&format!("serve_mix-s{}.jsonl", args.seed));
    Ok(rep)
}

const CHECKPOINT_REPS: usize = 5;

/// Mean over the tenant shapes of the snapshot size and the median times
/// of `checkpoint()` and `from_snapshot` on a tenant stepped one quantum.
fn checkpoint_costs(seed: u64) -> Result<(f64, f64, f64), String> {
    let (mut bytes, mut encode, mut restore) = (0.0, 0.0, 0.0);
    for shape in 0..SHAPES.len() {
        let (b, e, r) = match workload(shape, derive_seed(seed, 50 + shape as u64)) {
            Workload::Single(cfg) => {
                let mut sim = Simulation::new(cfg.clone()).map_err(|e| e.to_string())?;
                sim.run(16);
                time_checkpoint(
                    || sim.checkpoint(),
                    |snap| Simulation::from_snapshot(cfg.clone(), snap).map(drop),
                )
            }
            Workload::MultiSpecies(cfg) => {
                let mut sim = EmSimulation::new(cfg.clone()).map_err(|e| e.to_string())?;
                sim.run(16);
                time_checkpoint(
                    || sim.checkpoint(),
                    |snap| EmSimulation::from_snapshot(cfg.clone(), snap).map(drop),
                )
            }
        }
        .map_err(|e| e.to_string())?;
        bytes += b;
        encode += e;
        restore += r;
    }
    let n = SHAPES.len() as f64;
    Ok((bytes / n, encode / n, restore / n))
}

/// Snapshot bytes, and median ms of `encode` and of `restore` from it.
fn time_checkpoint<E>(
    encode: impl Fn() -> Vec<u8>,
    restore: impl Fn(&[u8]) -> Result<(), E>,
) -> Result<(f64, f64, f64), E> {
    let (mut enc, mut res) = (Vec::new(), Vec::new());
    let mut snap = Vec::new();
    for _ in 0..CHECKPOINT_REPS {
        let t = Instant::now();
        snap = encode();
        enc.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for _ in 0..CHECKPOINT_REPS {
        let t = Instant::now();
        restore(&snap)?;
        res.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((snap.len() as f64, median(&mut enc), median(&mut res)))
}
