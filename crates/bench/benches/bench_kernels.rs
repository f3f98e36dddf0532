//! Criterion benchmarks for the particle-loop kernels — the micro version
//! of Tables III/IV: each optimization variant of each loop, on a sorted
//! particle population, with the lane-blocked SIMD kernels benchmarked
//! against their scalar twins.
//!
//! Besides the human-readable report, `main` writes
//! `results/BENCH_kernels.json` with per-kernel ns/particle so regressions
//! can be tracked by script. Set `PIC_BENCH_PARTICLES` to override the
//! default 1 M particle population.

use pic_bench::harness::{black_box, criterion_group, Criterion, Throughput};
use pic_bench::report::{records_to_json, results_path, take_records, write_json_file, Json};
use pic_core::fields::{Field2D, RedundantE, RedundantRho};
use pic_core::grid::Grid2D;
use pic_core::kernels::{accumulate, deposit, position, simd, velocity};
use pic_core::particles::{initialize, InitialDistribution, ParticlesSoA};
use pic_core::sort::sort_out_of_place;
use sfc::{CellLayout, Morton, RowMajor};

const SIDE: usize = 128;

/// Particle count: `PIC_BENCH_PARTICLES` or 1 M (the scale the lane-vs-
/// scalar acceptance numbers are quoted at).
fn particles() -> usize {
    std::env::var("PIC_BENCH_PARTICLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

fn setup(layout: &dyn CellLayout) -> ParticlesSoA {
    setup_n(layout, particles())
}

fn setup_n(layout: &dyn CellLayout, n: usize) -> ParticlesSoA {
    let grid = Grid2D::new(SIDE, SIDE, 1.0, 1.0).unwrap();
    let mut p = initialize(&grid, layout, InitialDistribution::Uniform, n, 42);
    // Grid-unit velocities ~ half a cell per step.
    for v in p.vx.iter_mut().chain(p.vy.iter_mut()) {
        *v *= 0.5;
    }
    let mut scratch = ParticlesSoA::zeroed(0);
    sort_out_of_place(&mut p, &mut scratch, layout.ncells());
    p
}

fn field(layout: &dyn CellLayout) -> (Field2D, RedundantE) {
    let grid = Grid2D::new(SIDE, SIDE, 1.0, 1.0).unwrap();
    let mut f = Field2D::new(&grid);
    for i in 0..f.ex.len() {
        f.ex[i] = ((i * 37) % 101) as f64 * 0.001;
        f.ey[i] = ((i * 53) % 97) as f64 * -0.001;
    }
    let mut e8 = RedundantE::new(layout);
    e8.fill_from(&f, layout, 1.0, 1.0);
    (f, e8)
}

fn bench_update_velocities(c: &mut Criterion) {
    let layout = Morton::new(SIDE, SIDE).unwrap();
    let p = setup(&layout);
    let (f, e8) = field(&layout);
    let mut g = c.benchmark_group("update_velocities");
    g.throughput(Throughput::Elements(p.len() as u64));

    let mut vx = p.vx.clone();
    let mut vy = p.vy.clone();
    g.bench_function("redundant_hoisted", |b| {
        b.iter(|| {
            velocity::update_velocities_redundant_hoisted(
                black_box(&p.icell),
                &p.dx,
                &p.dy,
                &mut vx,
                &mut vy,
                &e8.e8,
            );
            black_box(vx[0])
        })
    });
    g.bench_function("redundant_hoisted_lanes", |b| {
        b.iter(|| {
            simd::update_velocities_redundant_hoisted_lanes(
                black_box(&p.icell),
                &p.dx,
                &p.dy,
                &mut vx,
                &mut vy,
                &e8.e8,
            );
            black_box(vx[0])
        })
    });
    g.bench_function("redundant_coeff", |b| {
        b.iter(|| {
            velocity::update_velocities_redundant(
                black_box(&p.icell),
                &p.dx,
                &p.dy,
                &mut vx,
                &mut vy,
                &e8.e8,
                0.5,
                0.5,
            );
            black_box(vx[0])
        })
    });
    g.bench_function("redundant_coeff_lanes", |b| {
        b.iter(|| {
            simd::update_velocities_redundant_lanes(
                black_box(&p.icell),
                &p.dx,
                &p.dy,
                &mut vx,
                &mut vy,
                &e8.e8,
                0.5,
                0.5,
            );
            black_box(vx[0])
        })
    });
    g.bench_function("standard_gather", |b| {
        b.iter(|| {
            velocity::update_velocities_standard(
                black_box(&p.ix),
                &p.iy,
                &p.dx,
                &p.dy,
                &mut vx,
                &mut vy,
                &f,
                0.5,
                0.5,
            );
            black_box(vx[0])
        })
    });
    g.finish();
}

fn bench_update_positions(c: &mut Criterion) {
    let rm = RowMajor::new(SIDE, SIDE).unwrap();
    let mo = Morton::new(SIDE, SIDE).unwrap();
    let base = setup(&rm);
    let mut g = c.benchmark_group("update_positions");
    g.throughput(Throughput::Elements(base.len() as u64));

    g.bench_function("naive_if", |b| {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        b.iter(|| {
            position::update_positions_naive_if(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(p.icell[0])
        })
    });
    g.bench_function("modulo_int", |b| {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        b.iter(|| {
            position::update_positions_modulo(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(p.icell[0])
        })
    });
    g.bench_function("branchless", |b| {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        b.iter(|| {
            position::update_positions_branchless(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(p.icell[0])
        })
    });
    g.bench_function("branchless_lanes", |b| {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        b.iter(|| {
            simd::update_positions_branchless_lanes(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(p.icell[0])
        })
    });
    g.bench_function("branchless_morton", |b| {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        b.iter(|| {
            position::update_positions_branchless_layout(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                &mo,
                1.0,
            );
            black_box(p.icell[0])
        })
    });
    g.bench_function("branchless_morton_lanes", |b| {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        b.iter(|| {
            simd::update_positions_branchless_layout_lanes(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                &mo,
                1.0,
            );
            black_box(p.icell[0])
        })
    });
    g.finish();
}

fn bench_accumulate(c: &mut Criterion) {
    let layout = Morton::new(SIDE, SIDE).unwrap();
    let p = setup(&layout);
    let mut g = c.benchmark_group("accumulate");
    g.throughput(Throughput::Elements(p.len() as u64));

    g.bench_function("redundant", |b| {
        let mut acc = RedundantRho::new(&layout);
        b.iter(|| {
            accumulate::accumulate_redundant(black_box(&p.icell), &p.dx, &p.dy, &mut acc.rho4, 1.0);
            black_box(acc.rho4[0][0])
        })
    });
    g.bench_function("redundant_lanes", |b| {
        let mut acc = RedundantRho::new(&layout);
        b.iter(|| {
            simd::accumulate_redundant_lanes(black_box(&p.icell), &p.dx, &p.dy, &mut acc.rho4, 1.0);
            black_box(acc.rho4[0][0])
        })
    });
    g.bench_function("lane_reduce", |b| {
        let mut acc = RedundantRho::new(&layout);
        b.iter(|| {
            deposit::accumulate_lane_reduce(black_box(&p.icell), &p.dx, &p.dy, &mut acc.rho4, 1.0);
            black_box(acc.rho4[0][0])
        })
    });
    g.bench_function("standard_scatter", |b| {
        let mut rho = vec![0.0; SIDE * SIDE];
        b.iter(|| {
            accumulate::accumulate_standard(
                black_box(&p.ix),
                &p.iy,
                &p.dx,
                &p.dy,
                &mut rho,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(rho[0])
        })
    });
    g.finish();
}

/// Particle-count sweep over the deposit kernels, so the ns/elem gap
/// between the scalar deposit and `LaneReduce` as particles per cell (and
/// with them uniform lane blocks) grow is visible in
/// `results/BENCH_kernels.json`.
fn bench_accumulate_sweep(c: &mut Criterion) {
    let layout = Morton::new(SIDE, SIDE).unwrap();
    for (label, n) in [("100k", 100_000usize), ("1m", 1_000_000), ("4m", 4_000_000)] {
        let p = setup_n(&layout, n);
        let mut g = c.benchmark_group("accumulate_sweep");
        g.throughput(Throughput::Elements(n as u64));
        type Named = (&'static str, deposit::DepositFn);
        let kernels: [Named; 2] = [
            ("redundant", accumulate::accumulate_redundant),
            ("lane_reduce", deposit::accumulate_lane_reduce),
        ];
        for (name, kernel) in kernels {
            let mut acc = RedundantRho::new(&layout);
            g.bench_function(format!("{name}_{label}"), |b| {
                b.iter(|| {
                    kernel(black_box(&p.icell), &p.dx, &p.dy, &mut acc.rho4, 1.0);
                    black_box(acc.rho4[0][0])
                })
            });
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_update_velocities, bench_update_positions, bench_accumulate,
        bench_accumulate_sweep
}

/// Short-run Criterion config so `cargo bench --workspace` completes in
/// minutes on one core (raise for precision runs).
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

/// Per-record metadata the JSON consumers want: which cell layout the bench
/// ran on and whether it used the scalar or the lane-blocked kernel path.
fn annotate(group: &str, id: &str) -> (&'static str, &'static str) {
    let layout = match group {
        "update_positions" if !id.contains("morton") => "row_major",
        _ => "morton",
    };
    let path = if id.contains("lane_reduce") {
        "lane_reduce"
    } else if id.ends_with("_lanes") {
        "lanes"
    } else {
        "scalar"
    };
    (layout, path)
}

fn main() {
    benches();
    let records = take_records();
    let results = match records_to_json(&records) {
        Json::Arr(items) => Json::Arr(
            items
                .into_iter()
                .zip(&records)
                .map(|(j, r)| {
                    let (layout, path) = annotate(&r.group, &r.id);
                    match j {
                        Json::Obj(mut pairs) => {
                            pairs.push(("layout".into(), Json::s(layout)));
                            pairs.push(("path".into(), Json::s(path)));
                            Json::Obj(pairs)
                        }
                        other => other,
                    }
                })
                .collect(),
        ),
        other => other,
    };
    let doc = Json::obj([
        ("bench", Json::s("bench_kernels")),
        ("particles", Json::Int(particles() as i64)),
        ("grid", Json::Int(SIDE as i64)),
        ("threads", Json::Int(1)),
        ("lanes", Json::Int(simd::LANES as i64)),
        ("results", results),
    ]);
    let path = results_path("BENCH_kernels.json");
    write_json_file(&path, &doc).expect("write BENCH_kernels.json");
    println!("\nwrote {}", path.display());
}
