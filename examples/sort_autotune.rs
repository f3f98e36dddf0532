//! Automatic sorting period — the future work the paper names in §IV-E
//! (“it will be interesting to implement an automatic finding of this
//! optimal number”): run Landau damping under the disorder-driven sort
//! scheduler and print the sort periods it realizes.
//!
//! ```sh
//! cargo run --release --example sort_autotune
//! ```

use pic2d::pic_core::control::ControllerConfig;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::pic_core::PicError;
use std::process::ExitCode;
use std::time::Instant;

const STEPS: usize = 400;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), PicError> {
    let mut cfg = PicConfig::landau_table1(500_000);
    cfg.controller = Some(ControllerConfig::default());
    let mut sim = Simulation::new(cfg)?;

    println!("running {STEPS} Landau steps under the sort scheduler...");
    println!("\n{:>6}  {:>8}", "step", "period");
    let mut periods = Vec::new();
    let t0 = Instant::now();
    for _ in 0..STEPS {
        let sorts = sim.controller().is_some_and(|c| c.should_sort());
        sim.step();
        if sorts {
            let period = sim.controller().map_or(0, |c| c.last_period());
            println!("{:>6}  {:>8}", sim.steps(), period);
            periods.push(period);
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    // The first sort closes the window since construction (sorted input),
    // so it is not a realized steady-state period.
    let steady = periods.get(1..).unwrap_or(&[]);
    if steady.is_empty() {
        println!("\nno steady-state sort within {STEPS} steps");
    } else {
        let mean = steady.iter().sum::<u64>() as f64 / steady.len() as f64;
        println!(
            "\n{} sorts; realized period mean {mean:.1}, min {}, max {} \
             ({:.2} ms/step)\n(paper: 20 optimal on Haswell, 50 on Sandy Bridge — the optimum is\n\
             architecture- and scale-dependent, which is why the paper wants it automatic)",
            periods.len(),
            steady.iter().min().unwrap(),
            steady.iter().max().unwrap(),
            secs * 1e3 / STEPS as f64
        );
    }
    Ok(())
}
