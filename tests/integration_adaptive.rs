//! End-to-end tests of the disorder-driven sort scheduler: bit-exact
//! checkpoint/restore around scheduler-triggered sorts, and resume of the
//! recorded hot-path knobs.

use pic2d::pic_core::control::ControllerConfig;
use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::sim::{DepositPath, KernelPath, PicConfig, Simulation};

const MAX_SPACING: usize = 12;

fn adaptive_cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.controller = Some(ControllerConfig {
        min_sort_spacing: 3,
        max_sort_spacing: MAX_SPACING,
        ..ControllerConfig::default()
    });
    cfg
}

/// A scheduler run restores bit-identically from checkpoints taken one
/// step before a disorder-triggered sort, at that sort, and in the middle
/// of the window after it: the restored run replays the same sort
/// schedule, so the final checkpoint bytes are equal.
#[test]
fn controller_run_restores_bit_identically_around_sorts() {
    let cfg = adaptive_cfg(3_000);
    let steps = 60usize;

    let mut reference = Simulation::new(cfg.clone()).unwrap();
    let mut snaps = vec![reference.checkpoint()];
    // (step, realized period) of every sort.
    let mut sorts = Vec::new();
    for s in 1..=steps {
        let will_sort = reference.controller().unwrap().should_sort();
        reference.step();
        if will_sort {
            sorts.push((s, reference.controller().unwrap().last_period() as usize));
        }
        snaps.push(reference.checkpoint());
    }
    // The first sort the disorder threshold triggered (before the maximum
    // spacing would have forced it), with a later sort closing its window.
    let k = sorts
        .windows(2)
        .find(|w| w[0].1 + 1 < MAX_SPACING && w[1].0 - w[0].0 >= 2)
        .map(|w| (w[0].0, w[1].0));
    let (sort_at, next_sort) =
        k.expect("workload must trigger a threshold sort for the test to bite");

    let mid = (sort_at + next_sort) / 2;
    for from in [sort_at - 1, sort_at, mid] {
        let mut resumed = Simulation::new(cfg.clone()).unwrap();
        resumed.restore(&snaps[from]).unwrap();
        assert_eq!(resumed.steps(), from);
        for _ in from..steps {
            resumed.step();
        }
        assert_eq!(
            resumed.checkpoint(),
            snaps[steps],
            "restore from step {from} must replay to identical bytes"
        );
    }
}

/// `set_sort_period` is recorded as checkpoint metadata (not identity):
/// a restore adopts the period that was active at the checkpoint, even
/// without any controller.
#[test]
fn restore_adopts_recorded_sort_period() {
    let mut cfg = PicConfig::landau_table1(1_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 7;
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(3);
    sim.set_sort_period(13);
    let snap = sim.checkpoint();

    let mut resumed = Simulation::new(cfg).unwrap();
    assert_eq!(resumed.config().sort_period, 7);
    resumed.restore(&snap).unwrap();
    assert_eq!(
        resumed.config().sort_period,
        13,
        "restored run must resume the active sort period"
    );
}

/// An Exact-path scheduler run never leaves the Exact deposit, so sort
/// scheduling cannot perturb the per-cell FP summation order the Exact
/// contract promises.
#[test]
fn pinned_exact_controller_stays_exact_and_restores_bitwise() {
    let mut cfg = PicConfig::landau_table1(2_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.deposit_path = DepositPath::Exact;
    cfg.kernel_path = KernelPath::Scalar;
    cfg.controller = Some(ControllerConfig {
        min_sort_spacing: 2,
        max_sort_spacing: 6,
        ..ControllerConfig::default()
    });

    let mut a = Simulation::new(cfg.clone()).unwrap();
    a.run(20);
    assert_eq!(a.config().deposit_path, DepositPath::Exact);
    let snap = a.checkpoint();
    a.run(20);
    assert_eq!(a.config().deposit_path, DepositPath::Exact);

    let mut b = Simulation::new(cfg).unwrap();
    b.restore(&snap).unwrap();
    b.run(20);
    assert_eq!(a.checkpoint(), b.checkpoint());
}

/// The EM driver threads the same scheduler: a scheduler-driven
/// multi-species run restores bit-identically from a mid-run checkpoint.
#[test]
fn em_controller_run_restores_bit_identically() {
    let mut cfg = EmConfig::ion_acoustic(600);
    cfg.deposit_path = DepositPath::LaneReduce;
    cfg.controller = Some(ControllerConfig {
        min_sort_spacing: 2,
        max_sort_spacing: 6,
        ..ControllerConfig::default()
    });

    let mut a = EmSimulation::new(cfg.clone()).unwrap();
    for _ in 0..25 {
        a.step();
    }
    let snap = a.checkpoint();
    for _ in 0..25 {
        a.step();
    }

    let mut b = EmSimulation::new(cfg).unwrap();
    b.restore(&snap).unwrap();
    for _ in 0..25 {
        b.step();
    }
    assert_eq!(a.checkpoint(), b.checkpoint());
}
