//! End-to-end resilience: the fault-injected `minimpi` transport inside
//! the real PIC loop, checkpoint/restart bit-exactness for both particle
//! layouts, snapshot integrity checking, and the invariant watchdog.

use pic2d::minimpi::{CommError, FaultPlan, World};
use pic2d::pic_core::faultlog::{FaultKind, FaultLog};
use pic2d::pic_core::resilience::checkpoint::config_fingerprint;
use pic2d::pic_core::resilience::{
    run_resilient, run_resilient_distributed, DistConfig, WatchdogConfig,
};
use pic2d::pic_core::sim::{KernelPath, ParticleLayout, PicConfig, Simulation};
use pic2d::pic_core::PicError;
use std::collections::BTreeMap;
use std::time::Duration;

fn cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 0; // keep particle order identical across variants
    cfg
}

// ---------------- fault-injected distributed runs ----------------

/// The acceptance scenario: four ranks run the PIC loop over a lossy,
/// corrupting link; the reliable transport must recover via retransmission
/// and produce exactly the ρ of the fault-free run.
#[test]
fn four_rank_fault_injected_run_matches_fault_free() {
    let n = 2_000;
    let steps = 3;
    let ranks = 4;
    let per = n / ranks;

    let run = |plan: Option<FaultPlan>| -> Vec<Vec<f64>> {
        let body = move |comm: &mut pic2d::minimpi::Comm| {
            let mut c = cfg(n);
            let r = comm.rank();
            c.keep_range = Some((r * per, (r + 1) * per));
            // The tree allreduce everywhere: its fixed pairing makes the
            // floating-point summation order (and hence ρ) identical from
            // run to run, unlike the flat shared-accumulator reduction,
            // whose addition order follows thread arrival.
            let mut sim = Simulation::new_with_reduce(c, |rho| {
                comm.try_allreduce_sum_tree(rho, 1 << 40).unwrap()
            })
            .unwrap();
            for step in 0..steps {
                sim.step_with_reduce(|rho| {
                    comm.try_allreduce_sum_tree(rho, step as u64 * 10_000)
                        .expect("recoverable fault rates must not surface errors")
                });
            }
            sim.rho().to_vec()
        };
        match plan {
            Some(p) => World::run_with_faults(ranks, p, body),
            None => World::run(ranks, body),
        }
    };

    let clean = run(None);
    let faulty = run(Some(
        FaultPlan::new(0xf417)
            .drop_messages(0.25)
            .corrupt_messages(0.15)
            .delay_messages(0.10, Duration::from_micros(200)),
    ));
    for (rank, rho) in faulty.iter().enumerate() {
        assert_eq!(
            rho, &clean[rank],
            "rank {rank}: retransmission must reconstruct the exact density"
        );
    }
}

/// An unrecoverable plan (every frame dropped) must surface a clean
/// `CommError` on every rank — no deadlock, no panic.
#[test]
fn unrecoverable_faults_error_out_instead_of_deadlocking() {
    let outcomes = World::run_with_faults(4, FaultPlan::always_drop(9), |comm| {
        comm.set_ack_timeout(Duration::from_millis(2));
        comm.set_recv_deadline(Duration::from_millis(200));
        comm.set_max_retries(3);
        let mut v = vec![comm.rank() as f64; 8];
        comm.try_allreduce_sum_tree(&mut v, 0)
    });
    for (rank, out) in outcomes.iter().enumerate() {
        let err = out.as_ref().expect_err("all frames dropped");
        assert!(
            matches!(
                err,
                CommError::RetriesExhausted { .. } | CommError::Timeout { .. }
            ),
            "rank {rank}: unexpected error {err}"
        );
    }
}

// ---------------- checkpoint / restart ----------------

/// Checkpoint → restore → continue must be bit-identical to an
/// uninterrupted run, for both particle layouts.
#[test]
fn checkpoint_roundtrip_is_bit_exact_for_both_layouts() {
    for layout in [ParticleLayout::Aos, ParticleLayout::Soa] {
        let mut c = cfg(3_000);
        c.particle_layout = layout;
        c.sort_period = 4; // exercise sorting on both sides of the snapshot

        let mut uninterrupted = Simulation::new(c.clone()).unwrap();
        uninterrupted.run(10);

        let mut sim = Simulation::new(c.clone()).unwrap();
        sim.run(6);
        let snapshot = sim.checkpoint();
        sim.run(37); // wander off; the snapshot must win
        sim.restore(&snapshot).unwrap();
        assert_eq!(sim.steps(), 6, "{layout:?}: restored step counter");
        sim.run(4);

        assert_eq!(
            sim.rho(),
            uninterrupted.rho(),
            "{layout:?}: rho must match bit-for-bit"
        );
        // For the AoS layout the SoA view lags the canonical array
        // between sorts; sync both before comparing.
        sim.sync_particles();
        uninterrupted.sync_particles();
        let (a, b) = (sim.particles(), uninterrupted.particles());
        assert_eq!(a.ix, b.ix, "{layout:?}: ix");
        assert_eq!(a.dx, b.dx, "{layout:?}: dx");
        assert_eq!(a.vx, b.vx, "{layout:?}: vx");
        assert_eq!(a.vy, b.vy, "{layout:?}: vy");
    }
}

/// A snapshot survives the disk roundtrip and restores into a *fresh*
/// simulation built from the same config.
#[test]
fn checkpoint_file_restores_into_fresh_simulation() {
    let c = cfg(1_000);
    let mut sim = Simulation::new(c.clone()).unwrap();
    sim.run(5);
    let dir = std::env::temp_dir().join("pic2d_resilience_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.ckpt");
    sim.save_checkpoint(&path).unwrap();

    let mut fresh = Simulation::new(c).unwrap();
    fresh.restore_from_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    fresh.run(3);
    sim.run(3);
    assert_eq!(fresh.rho(), sim.rho());
}

/// Any single corrupted byte must be rejected by the trailing checksum
/// (or, for the header fields, by the magic/version/fingerprint checks) —
/// never applied.
#[test]
fn corrupted_snapshots_are_rejected() {
    let mut sim = Simulation::new(cfg(500)).unwrap();
    sim.run(2);
    let good = sim.checkpoint();
    sim.restore(&good).expect("pristine snapshot restores");

    let n = good.len();
    for pos in [0, 9, n / 3, n / 2, n - 1] {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        let err = sim
            .restore(&bad)
            .expect_err("corrupted snapshot must be rejected");
        assert!(
            matches!(err, PicError::Checkpoint(_)),
            "byte {pos}: unexpected error {err}"
        );
    }
    // Truncation is detected too.
    let err = sim.restore(&good[..n - 4]).unwrap_err();
    assert!(matches!(err, PicError::Checkpoint(_)), "{err}");

    // The failed restores must not have clobbered the live state.
    let mut twin = Simulation::new(cfg(500)).unwrap();
    twin.run(2);
    assert_eq!(sim.rho(), twin.rho());
}

// ---------------- crash faults: kill, shrink, buddy recovery ----------------

/// Per-logical-rank results: deposited ρ plus the full diagnostics history.
type LogicalResults = BTreeMap<usize, (Vec<f64>, Vec<(f64, f64, f64, f64)>)>;

/// Run `steps` of the distributed resilient runner on `ranks` ranks,
/// optionally under a fault plan, and collect every rank's outcome.
fn run_distributed(
    n: usize,
    steps: u64,
    ranks: usize,
    layout: ParticleLayout,
    path: KernelPath,
    plan: Option<FaultPlan>,
) -> Vec<(bool, usize, LogicalResults, FaultLog)> {
    let body = move |comm: &mut pic2d::minimpi::Comm| {
        let per = n / ranks;
        let make_cfg = move |id: usize| {
            let mut c = cfg(n);
            c.particle_layout = layout;
            c.kernel_path = path;
            c.keep_range = Some((id * per, (id + 1) * per));
            c
        };
        let rcfg = DistConfig {
            checkpoint_every: 2,
            max_recoveries: 2,
            heartbeat_timeout: None,
            recv_deadline: Some(Duration::from_secs(10)),
        };
        let out = run_resilient_distributed(comm, &make_cfg, steps, &rcfg).unwrap();
        let results: LogicalResults = out
            .sims
            .iter()
            .map(|(id, sim)| {
                let hist = sim
                    .diagnostics()
                    .history
                    .iter()
                    .map(|d| (d.time, d.kinetic, d.field, d.ex_mode))
                    .collect();
                (*id, (sim.rho().to_vec(), hist))
            })
            .collect();
        (out.survivor, out.recoveries, results, out.log)
    };
    match plan {
        Some(p) => World::run_with_faults(ranks, p, body),
        None => World::run(ranks, body),
    }
}

fn merge_logical(outs: &[(bool, usize, LogicalResults, FaultLog)]) -> LogicalResults {
    let mut all = LogicalResults::new();
    for (_, _, results, _) in outs {
        for (id, v) in results {
            assert!(
                all.insert(*id, v.clone()).is_none(),
                "logical rank {id} hosted twice"
            );
        }
    }
    all
}

/// The acceptance scenario, swept over the full layout matrix:
/// {AoS, SoA} × {Scalar, Lanes} × {1, 2, 4 ranks}. For multi-rank runs the
/// last rank is killed mid-run; the survivors must detect it, shrink,
/// restore the dead rank's slice from the buddy checkpoint, and finish with
/// ρ and diagnostics bit-exactly equal to the fault-free run. The 1-rank
/// run instead checks the runner degenerates to a plain simulation.
#[test]
fn crash_recovery_matrix_is_bit_exact() {
    let n = 1_200;
    let steps = 6u64;
    // Per-rank op schedule (checkpoint every 2 steps): init 2 ops, then
    // 4 ops per checkpointed step and 2 per plain step — op 13 lands in
    // step 3's reduction, one step past the committed step-2 checkpoint.
    let kill_op = 13;
    for layout in [ParticleLayout::Aos, ParticleLayout::Soa] {
        for path in [KernelPath::Scalar, KernelPath::Lanes] {
            let tag = format!("{layout:?}/{path:?}");

            // 1 rank: distributed runner ≡ plain simulation, bitwise.
            let solo = run_distributed(n, steps, 1, layout, path, None);
            assert!(solo[0].0, "{tag}: solo run survives");
            let solo_results = merge_logical(&solo);
            let mut c = cfg(n);
            c.particle_layout = layout;
            c.kernel_path = path;
            c.keep_range = Some((0, n));
            let mut plain = Simulation::new(c).unwrap();
            plain.run(steps as usize);
            assert_eq!(
                solo_results[&0].0,
                plain.rho(),
                "{tag}: 1-rank distributed run must equal the plain simulation"
            );

            for ranks in [2usize, 4] {
                let clean = run_distributed(n, steps, ranks, layout, path, None);
                assert!(clean.iter().all(|o| o.0), "{tag}/{ranks}: all survive");
                let clean_results = merge_logical(&clean);
                assert_eq!(clean_results.len(), ranks);

                let plan = FaultPlan::new(0xD1E).kill_rank(ranks - 1, kill_op);
                let faulty = run_distributed(n, steps, ranks, layout, path, Some(plan));
                assert!(
                    !faulty[ranks - 1].0,
                    "{tag}/{ranks}: killed rank reports non-survivor"
                );
                assert!(
                    faulty[..ranks - 1].iter().all(|o| o.0),
                    "{tag}/{ranks}: survivors finish"
                );
                assert!(
                    faulty.iter().any(|o| o.1 >= 1),
                    "{tag}/{ranks}: at least one recovery happened"
                );
                let faulty_results = merge_logical(&faulty);
                assert_eq!(
                    faulty_results.len(),
                    ranks,
                    "{tag}/{ranks}: every logical rank hosted after recovery"
                );
                for id in 0..ranks {
                    assert_eq!(
                        faulty_results[&id].0, clean_results[&id].0,
                        "{tag}/{ranks}: logical rank {id} ρ bit-exact after recovery"
                    );
                    assert_eq!(
                        faulty_results[&id].1, clean_results[&id].1,
                        "{tag}/{ranks}: logical rank {id} diagnostics history bit-exact"
                    );
                }
            }
        }
    }
}

/// The fault-event ledger must record the full causal story of a rank
/// death: kill → detect → shrink → rollback, in that order.
#[test]
fn ledger_records_kill_detect_shrink_rollback() {
    let plan = FaultPlan::new(0xBEEF).kill_rank(3, 13);
    let outs = run_distributed(
        1_200,
        6,
        4,
        ParticleLayout::Soa,
        KernelPath::Lanes,
        Some(plan),
    );
    let mut merged = FaultLog::new();
    for (_, _, _, log) in outs {
        merged.merge(log);
    }
    assert!(
        merged.has_sequence(&[
            FaultKind::Kill,
            FaultKind::Detect,
            FaultKind::Shrink,
            FaultKind::Rollback,
        ]),
        "ledger must order kill -> detect -> shrink -> rollback:\n{}",
        merged.to_json()
    );
    assert!(merged.count(FaultKind::Checkpoint) > 0);
    assert!(merged.count(FaultKind::BuddyStore) > 0);
    assert!(merged.count(FaultKind::Restore) > 0, "buddy restore logged");
    // The dump is parseable JSON in shape: array of flat objects.
    let json = merged.to_json();
    assert!(json.trim_start().starts_with('['));
    assert!(json.contains("\"kind\": \"kill\""));
    assert!(json.contains("\"kind\": \"shrink\""));
}

// ---------------- checkpoint fingerprint ----------------

/// Kernel path is hot-path *metadata*, not identity: a snapshot taken
/// under one kernel path restores into a simulation configured with the
/// other and carries its recorded path along — and thread count must NOT
/// invalidate it either. (Kernel path used to be part of the fingerprint;
/// since checkpoint format v2 the snapshot records it as resumable state
/// instead.)
#[test]
fn fingerprint_gates_kernel_path_but_not_threads() {
    let mut scalar_cfg = cfg(800);
    scalar_cfg.kernel_path = KernelPath::Scalar;
    let mut sim = Simulation::new(scalar_cfg.clone()).unwrap();
    sim.run(2);
    let snap = sim.checkpoint();

    let mut lanes_cfg = scalar_cfg.clone();
    lanes_cfg.kernel_path = KernelPath::Lanes;
    assert_eq!(
        config_fingerprint(&scalar_cfg),
        config_fingerprint(&lanes_cfg),
        "kernel path must not change checkpoint identity"
    );
    let mut lanes_sim = Simulation::new(lanes_cfg).unwrap();
    lanes_sim
        .restore(&snap)
        .expect("hot-path knobs must not gate restores");
    // The restore adopts the snapshot's recorded kernel path, so the
    // resumed run replays the checkpointed trajectory bit-exactly.
    assert_eq!(lanes_sim.config().kernel_path, KernelPath::Scalar);
    assert_eq!(lanes_sim.steps(), 2);

    // Same physics, different pool width: the snapshot must still be
    // accepted and leave the simulation at the checkpointed step.
    let mut threaded_cfg = scalar_cfg.clone();
    threaded_cfg.threads = 2;
    let mut threaded = Simulation::new(threaded_cfg).unwrap();
    threaded
        .restore(&snap)
        .expect("thread count must not invalidate a snapshot");
    assert_eq!(threaded.steps(), 2);
}

// ---------------- watchdog ----------------

/// A healthy run under the watchdog completes with zero rollbacks and the
/// same physics as an unsupervised run.
#[test]
fn watchdog_is_transparent_on_a_healthy_run() {
    let mut plain = Simulation::new(cfg(2_000)).unwrap();
    plain.run(8);

    let mut watched = Simulation::new(cfg(2_000)).unwrap();
    let report = run_resilient(&mut watched, 8, &WatchdogConfig::default()).unwrap();
    assert_eq!(report.rollbacks, 0);
    assert_eq!(report.steps_executed, 8);
    assert_eq!(watched.rho(), plain.rho());
}
