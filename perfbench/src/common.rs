//! Shared pieces: the run report, span recording, percentiles, and the
//! machine facts (peak RSS, cache sizes) every workload reports.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Command-line settings of one run.
pub struct RunArgs {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget in seconds; each workload turns it into a fixed
    /// amount of work (steps or arrivals), so two builds run identical work.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// One named output check. A failed check fails the run.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: steps for the simulations, jobs for serving.
    pub attempted: u64,
    /// Operations that errored or that a failed output check covers.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) -> bool {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
        ok
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.failed == 0
    }

    /// The result line: one JSON object, the last line of stdout.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values are not JSON numbers; `main` refuses them
            // before printing.
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// An independent 64-bit seed for input `label` of the workload seed.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    pic2d::pic_core::rng::hash_words(seed, &[label])
}

/// Nearest-rank quantile `q` (0–1) of `v`, which is sorted in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// L2 and last-level cache sizes of CPU 0 in bytes, from sysfs. `None`
/// where sysfs does not report them.
pub fn cache_sizes() -> (Option<u64>, Option<u64>) {
    let mut l2 = None;
    let mut llc: Option<(u32, u64)> = None;
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = fs::read_dir(base) else {
        return (None, None);
    };
    for e in entries.flatten() {
        let read = |f: &str| fs::read_to_string(e.path().join(f)).unwrap_or_default();
        let (level, kind, size) = (read("level"), read("type"), read("size"));
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k * 1024),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map(|m| m << 20),
        };
        let Some(bytes) = bytes else { continue };
        if level == 2 {
            l2 = Some(bytes);
        }
        if llc.is_none_or(|(l, _)| level > l) {
            llc = Some((level, bytes));
        }
    }
    (l2, llc.map(|(_, b)| b))
}

/// Report a workload's working set next to the cache sizes, on stderr and
/// as per-layer metrics.
pub fn working_set(
    rep: &mut Report,
    trace: bool,
    what: &str,
    particle_bytes: u64,
    grid_bytes: u64,
) {
    let (l2, llc) = cache_sizes();
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    let vs = |b: u64, c: Option<u64>| match c {
        Some(c) => format!("{:.2}x", b as f64 / c as f64),
        None => "n/a".to_string(),
    };
    eprintln!(
        "working set ({what}): particles {:.2} MiB = {} of L2, {} of LLC; grid {:.3} MiB = {} of L2 \
         (L2 {} KiB, LLC {} MiB from sysfs)",
        mib(particle_bytes),
        vs(particle_bytes, l2),
        vs(particle_bytes, llc),
        mib(grid_bytes),
        vs(grid_bytes, l2),
        l2.map_or("n/a".into(), |b| (b >> 10).to_string()),
        llc.map_or("n/a".into(), |b| (b >> 20).to_string()),
    );
    if trace {
        rep.metric("workingset.particle_bytes", particle_bytes as f64, "B");
        rep.metric("workingset.grid_bytes", grid_bytes as f64, "B");
        rep.metric("workingset.l2_bytes", l2.unwrap_or(0) as f64, "B");
        rep.metric("workingset.llc_bytes", llc.unwrap_or(0) as f64, "B");
    }
}

/// Bytes of one electrostatic SoA particle: `icell, ix, iy` (u32) and
/// `dx, dy, vx, vy` (f64).
pub const SOA_BYTES_PER_PARTICLE: u64 = 3 * 4 + 4 * 8;

/// Bytes per cell of the redundant grid structures a step touches: `e8`
/// (8 f64), `rho4` (4 f64), and the grid-point `ex, ey, rho` (3 f64).
pub const ES_GRID_BYTES_PER_CELL: u64 = (8 + 4 + 3) * 8;

/// The electromagnetic counterpart: `e8`, `rho4`, `j12` (12 f64), and the
/// grid-point `ex, ey, rho, jx, jy, jz`.
pub const EM_GRID_BYTES_PER_CELL: u64 = (8 + 4 + 12 + 6) * 8;

/// Bytes of one 2d3v particle: the electrostatic SoA plus `vz`.
pub const EM_BYTES_PER_PARTICLE: u64 = SOA_BYTES_PER_PARTICLE + 8;

/// One recorded span: a named interval around a call into the program.
pub struct Span {
    pub name: &'static str,
    /// Operation (step or job) the span belongs to; spans of one operation
    /// share it.
    pub op: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder, written out once when the run ends.
pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds of `t` since the recorder started (0 if earlier).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Start a span that encloses the spans recorded until [`close`].
    ///
    /// [`close`]: Self::close
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now();
        self.push(name, op, None, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Seconds of the most recently recorded span.
    pub fn last_secs(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.now();
        let out = f();
        let e = self.now();
        self.push(name, op, parent, s, e);
        out
    }

    /// Write the spans as JSON lines to `perfbench/trace/<file>`.
    pub fn write(&self, file: &str) {
        let dir = Path::new("perfbench").join("trace");
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        let path = dir.join(file);
        match fs::create_dir_all(&dir).and_then(|_| fs::write(&path, out)) {
            Ok(()) => eprintln!("spans: {} written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
}

/// Steps per segment for the step-time percentiles: enough that each
/// segment's p90 has 10 samples beyond it.
const SEGMENT: usize = 100;

/// Per-step wall times → the end-to-end step metrics, stated with their
/// sample counts. Bursts of interference from outside the process come and
/// go within a run, so each figure is a median over parts of the run:
/// throughput over blocks of `block` steps (one sort period each), and the
/// step-time p50 and p90 over 100-step segments. In this closed loop a step
/// is due when the previous one returns, so a step's latency from its due
/// time is its wall time.
pub fn step_metrics(
    rep: &mut Report,
    what: &str,
    step_secs: &[f64],
    block: usize,
    particles: f64,
    wall: f64,
) {
    // A run cut short by a failed step may not fill one block or segment.
    let block = block.min(step_secs.len());
    let segment = SEGMENT.min(step_secs.len());
    let mut blocks: Vec<f64> = step_secs
        .chunks_exact(block)
        .map(|b| b.iter().sum())
        .collect();
    let mpps = particles * block as f64 / median(&mut blocks) / 1e6;
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for seg in step_secs.chunks_exact(segment) {
        let mut ms: Vec<f64> = seg.iter().map(|s| s * 1e3).collect();
        p50s.push(quantile(&mut ms, 0.5));
        p90s.push(quantile(&mut ms, 0.9));
    }
    let (p50, p90) = (median(&mut p50s), median(&mut p90s));
    eprintln!(
        "{what}: {} timed steps; step p50 {p50:.3} ms and p90 {p90:.3} ms, medians over {} segments of \
         {SEGMENT} steps (10 samples beyond each p90); {mpps:.2} M particle-steps/s over the median \
         of {} blocks of {block} steps; wall {wall:.3} s",
        step_secs.len(),
        p90s.len(),
        blocks.len(),
    );
    rep.metric("throughput_mpps", mpps, "Mpart-step/s");
    rep.metric("step_ms_p50", p50, "ms");
    rep.metric("step_ms_p90", p90, "ms");
    rep.metric("job_latency_ms_p50", p50, "ms");
    rep.metric("job_latency_ms_p90", p90, "ms");
    rep.metric("backlog_drain_s", wall, "s");
}

/// Build the workload `reps` times, dropping each copy before the next, and
/// keep the last: the median build time is the run's `setup_s`.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t = Instant::now();
        built = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up");
    Ok((built, median(&mut times)))
}

/// The metrics every end-to-end run closes with.
pub fn closing_metrics(rep: &mut Report, setup_s: f64) {
    let share = if rep.attempted == 0 {
        0.0
    } else {
        (rep.attempted - rep.failed) as f64 / rep.attempted as f64
    };
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    rep.metric("completed_share", share, "ratio");
}

/// Tracing overhead: the throughput lost by traced blocks against the
/// interleaved untraced ones, `1 − median(untraced) / median(traced)`.
pub fn overhead_share(untraced: &mut [f64], traced: &mut [f64]) -> f64 {
    if untraced.is_empty() || traced.is_empty() {
        return 0.0;
    }
    1.0 - median(untraced) / median(traced)
}

/// STREAM triad bandwidth over 2 workers, the roofline reference for the
/// `*_gbps_computed` kernel figures. Each array is at least 4× the sysfs
/// last-level cache, so the triad streams from DRAM.
pub fn triad_gbps() -> f64 {
    const FALLBACK_LLC: u64 = 64 << 20;
    let llc = cache_sizes().1.unwrap_or(FALLBACK_LLC);
    let n = (4 * llc).div_ceil(8) as usize;
    let r = pic_bench::membench::triad(n, 3, 2);
    eprintln!(
        "membench: triad over 3 arrays of {} MiB each (4x LLC {} MiB): best {:.2} GB/s",
        (n * 8) >> 20,
        llc >> 20,
        r.gbs()
    );
    r.gbs()
}
