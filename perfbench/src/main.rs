//! The repository benchmark: one command per workload run,
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! run from the repository root. It builds the workload's inputs from the
//! seed, drives the library through its public API, checks the outputs,
//! and prints one JSON result as the last line of stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Human
//! readable detail (sample counts, working sets, the time budget) goes to
//! stderr. The exit code is 0 only when every output check passed.
//! `perfbench/README.md` describes the workloads and metrics.

mod common;
mod decomposed;
mod em;
mod es;
mod serve_mix;

use common::{Report, RunArgs};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "es_landau_1m",
    "em_two_stream",
    "decomposed_2r",
    "serve_mix",
];

/// Metrics of an untraced run, in print order. Every workload prints all
/// of them.
const END_TO_END: [&str; 9] = [
    "throughput_mpps",
    "step_ms_p50",
    "step_ms_p90",
    "job_latency_ms_p50",
    "job_latency_ms_p90",
    "backlog_drain_s",
    "setup_s",
    "peak_rss_mib",
    "completed_share",
];

/// Metrics of a traced run. A layer a workload does not exercise, or one
/// measured on another workload, reads 0 there.
const PER_LAYER: [(&str, &str); 48] = [
    ("kernels.kick_ns_per_p", "ns/p"),
    ("kernels.push_ns_per_p", "ns/p"),
    ("kernels.deposit_ns_per_p", "ns/p"),
    ("kernels.kick_gbps_computed", "GB/s"),
    ("kernels.push_gbps_computed", "GB/s"),
    ("kernels.deposit_gbps_computed", "GB/s"),
    ("kernels.boris_ns_per_p", "ns/p"),
    ("kernels.current_deposit_ns_per_p", "ns/p"),
    ("sort.ns_per_p", "ns/p"),
    ("sort.ms_per_sort", "ms"),
    ("sort.count", "count"),
    ("sim.convert_ns_per_p", "ns/p"),
    ("sim.unattributed_ns_per_p", "ns/p"),
    ("sim.step_ns_per_p", "ns/p"),
    ("spectral.solve_ms_per_step", "ms"),
    ("pool.speedup_2t", "ratio"),
    ("em.particle_ns_per_p", "ns/p"),
    ("em.field_ns_per_p", "ns/p"),
    ("control.sorts", "count"),
    ("control.switches", "count"),
    ("control.mean_disorder", "ratio"),
    ("decomp.compute_ms_per_step", "ms"),
    ("decomp.halo_ms_per_step", "ms"),
    ("decomp.solve_ms_per_step", "ms"),
    ("decomp.migrate_send_ms_per_step", "ms"),
    ("decomp.migrate_drain_ms_per_step", "ms"),
    ("decomp.halo_bytes_per_step", "B"),
    ("decomp.solve_bytes_per_step", "B"),
    ("decomp.migrate_bytes_per_step", "B"),
    ("decomp.migrated_per_step", "count"),
    ("decomp.rank_imbalance", "ratio"),
    ("minimpi.comm_s", "s"),
    ("minimpi.bytes_per_step", "B"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("serve.preemptions", "count"),
    ("serve.restores", "count"),
    ("serve.retries", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.quarantined", "count"),
    ("membench.triad_gbps", "GB/s"),
    ("trace.overhead_share", "ratio"),
    ("workingset.particle_bytes", "B"),
    ("workingset.grid_bytes", "B"),
    ("workingset.l2_bytes", "B"),
    ("workingset.llc_bytes", "B"),
];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}\n{}", usage()));
                }
                workload = Some(value);
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected a number of seconds in (0, 600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, args))
}

/// Order the metrics as the benchmark declares them, adding the per-layer
/// metrics this workload does not measure as 0, and refuse a run that
/// lacks an end-to-end metric or produced a non-finite value.
fn finalize(rep: &mut Report, trace: bool) -> Result<(), String> {
    let declared: Vec<(&str, Option<&str>)> = if trace {
        PER_LAYER.iter().map(|&(n, u)| (n, Some(u))).collect()
    } else {
        END_TO_END.iter().map(|&n| (n, None)).collect()
    };
    let mut ordered = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        match rep.metrics.iter().position(|(n, ..)| n == name) {
            Some(i) => ordered.push(rep.metrics.swap_remove(i)),
            None => match unit {
                Some(u) => ordered.push((name.to_string(), 0.0, u)),
                None => return Err(format!("workload did not report {name}")),
            },
        }
    }
    if let Some((n, ..)) = rep.metrics.first() {
        return Err(format!("undeclared metric {n}"));
    }
    if let Some((n, v, _)) = ordered.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {n} is not finite: {v}"));
    }
    rep.metrics = ordered;
    Ok(())
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {workload}, seed {}, budget {} s, trace {}, {} cpus",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = match workload.as_str() {
        "es_landau_1m" => es::run(&args),
        "em_two_stream" => em::run(&args),
        "decomposed_2r" => decomposed::run(&args),
        "serve_mix" => serve_mix::run(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let rep = match result.and_then(|mut rep| finalize(&mut rep, args.trace).map(|()| rep)) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for c in &rep.checks {
        eprintln!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for (name, value, unit) in &rep.metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", rep.to_json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: output checks failed");
        ExitCode::from(1)
    }
}
