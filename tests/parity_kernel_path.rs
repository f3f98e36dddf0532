//! Kernel-path parity: a simulation stepped on the lane-blocked SIMD path
//! must be *bit-identical* to the same simulation on the scalar path — same
//! ρ, same particle cells/offsets/velocities — across cell orderings,
//! thread counts, and particle counts that do and do not divide the lane
//! width. This is the contract that makes `KernelPath` a pure performance
//! knob: switching it can never change physics.

use pic_core::sim::{KernelPath, PicConfig, Simulation};
use sfc::Ordering;

/// Run `cfg` for `steps` under both kernel paths and compare every
/// particle- and field-level output bit for bit.
fn assert_paths_bit_identical(mut cfg: PicConfig, steps: usize, what: &str) {
    cfg.kernel_path = KernelPath::Scalar;
    let mut scalar = Simulation::new(cfg.clone()).unwrap();
    cfg.kernel_path = KernelPath::Lanes;
    let mut lanes = Simulation::new(cfg).unwrap();

    scalar.run(steps);
    lanes.run(steps);

    let (rs, rl) = (scalar.rho(), lanes.rho());
    assert_eq!(rs.len(), rl.len(), "{what}: rho length");
    for i in 0..rs.len() {
        assert_eq!(
            rs[i].to_bits(),
            rl[i].to_bits(),
            "{what}: rho[{i}] differs: {} vs {}",
            rs[i],
            rl[i]
        );
    }

    let (ps, pl) = (scalar.particles(), lanes.particles());
    assert_eq!(ps.icell, pl.icell, "{what}: icell");
    assert_eq!(ps.ix, pl.ix, "{what}: ix");
    assert_eq!(ps.iy, pl.iy, "{what}: iy");
    for i in 0..ps.len() {
        assert_eq!(ps.dx[i].to_bits(), pl.dx[i].to_bits(), "{what}: dx[{i}]");
        assert_eq!(ps.dy[i].to_bits(), pl.dy[i].to_bits(), "{what}: dy[{i}]");
        assert_eq!(ps.vx[i].to_bits(), pl.vx[i].to_bits(), "{what}: vx[{i}]");
        assert_eq!(ps.vy[i].to_bits(), pl.vy[i].to_bits(), "{what}: vy[{i}]");
    }
}

/// Fully-optimized config at a small grid; `n` deliberately not a multiple
/// of the lane width in most tests.
fn cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 3; // several sorts inside a short run
    cfg
}

#[test]
fn parity_across_orderings() {
    for ordering in Ordering::paper_set() {
        let mut c = cfg(1003);
        c.ordering = ordering;
        assert_paths_bit_identical(c, 7, &format!("ordering {ordering}"));
    }
}

#[test]
fn parity_with_thread_pool() {
    for threads in [1, 2, 3] {
        let mut c = cfg(2005);
        c.ordering = Ordering::Morton;
        c.threads = threads;
        assert_paths_bit_identical(c, 7, &format!("threads {threads}"));
    }
}

#[test]
fn parity_at_lane_edge_counts() {
    // Below one lane block, exactly one block, one block plus a tail.
    for n in [1, 5, 8, 9, 1003] {
        assert_paths_bit_identical(cfg(n), 5, &format!("n {n}"));
    }
}

#[test]
fn parity_on_baseline_row_major() {
    // The baseline config exercises the non-redundant/standard dispatch
    // (where the lane path only affects the branchless position update).
    let mut c = PicConfig::baseline(777);
    c.grid_nx = 32;
    c.grid_ny = 32;
    assert_paths_bit_identical(c, 5, "baseline");
}

// ---------------------------------------------------------------------------
// DepositPath parity: the deposition-kernel knob must likewise never change
// physics beyond its documented contract — `Exact` stays bit-identical to
// the scalar accumulation order, and the reassociated `LaneReduce` path
// stays within a tight tolerance of the exact result at the simulation level and within the proven per-cell FP bound at the kernel
// level.
// ---------------------------------------------------------------------------

use pic_core::kernels::{accumulate, deposit};
use pic_core::rng::Rng;
use pic_core::sim::{DepositPath, ParticleLayout};

/// {AoS, SoA} x {1, 2, 4 threads} x {sorted, unsorted}: under every combo,
/// `Exact` is bit-identical between the scalar and lane kernel paths, and
/// the reassociated path tracks the exact run to a loose per-cell
/// tolerance (the per-deposit FP bound fed back through the field solve for
/// a handful of steps).
#[test]
fn deposit_path_matrix() {
    for layout in [ParticleLayout::Soa, ParticleLayout::Aos] {
        for threads in [1usize, 2, 4] {
            for sorted in [true, false] {
                let make = |dp: DepositPath| {
                    let mut c = cfg(1511);
                    c.ordering = Ordering::Morton;
                    c.particle_layout = layout;
                    c.threads = threads;
                    // Sorted: re-sort every step so the deposit always sees
                    // long same-cell runs. Unsorted: never sort, so drift
                    // scrambles the cell order the kernels walk.
                    c.sort_period = if sorted { 1 } else { 0 };
                    c.deposit_path = dp;
                    c
                };
                let what = format!("{layout:?} threads={threads} sorted={sorted}");

                // Exact deposit: scalar vs lane kernel paths, bit for bit.
                assert_paths_bit_identical(make(DepositPath::Exact), 5, &what);

                // The reassociated deposit tracks the exact run closely.
                let mut exact = Simulation::new(make(DepositPath::Exact)).unwrap();
                exact.run(5);
                let mut sim = Simulation::new(make(DepositPath::LaneReduce)).unwrap();
                sim.run(5);
                let (re, rr) = (exact.rho(), sim.rho());
                for i in 0..re.len() {
                    assert!(
                        (re[i] - rr[i]).abs() < 1e-9,
                        "{what} LaneReduce: rho[{i}] drifted: {} vs {}",
                        rr[i],
                        re[i]
                    );
                }
            }
        }
    }
}

/// Kernel-level bound at full scale: 1M particles on a 128x128 grid
/// (~61 per cell), sorted and unsorted. The reassociated path lands
/// within the per-cell bound `4 k^2 eps |w|` (k = particles in the cell)
/// of the exact scalar accumulation — the bound proven in
/// `crates/core/src/kernels/deposit.rs`.
#[test]
fn reassociated_deposit_within_cell_bound_at_1m() {
    const N: usize = 1_000_000;
    const NCELLS: usize = 128 * 128;
    let mut rng = Rng::seed_from_u64(0xdeb0);
    let mut icell: Vec<u32> = (0..N).map(|_| rng.below(NCELLS as u64) as u32).collect();
    let dx: Vec<f64> = (0..N).map(|_| rng.uniform()).collect();
    let dy: Vec<f64> = (0..N).map(|_| rng.uniform()).collect();
    let w = 0.37;

    for sorted in [false, true] {
        if sorted {
            icell.sort_unstable();
        }
        let mut reference = vec![[0.0f64; 4]; NCELLS];
        accumulate::accumulate_redundant(&icell, &dx, &dy, &mut reference, w);
        let mut counts = vec![0u64; NCELLS];
        for &c in &icell {
            counts[c as usize] += 1;
        }
        let mut got = vec![[0.0f64; 4]; NCELLS];
        deposit::accumulate_lane_reduce(&icell, &dx, &dy, &mut got, w);
        for c in 0..NCELLS {
            let k = counts[c] as f64;
            let bound = 4.0 * k * k * f64::EPSILON * w.abs();
            for corner in 0..4 {
                let d = (got[c][corner] - reference[c][corner]).abs();
                assert!(
                    d <= bound,
                    "lane_reduce sorted={sorted} cell={c} corner={corner}: \
                     |diff| {d:e} exceeds bound {bound:e} (k={k})"
                );
            }
        }
    }
}
