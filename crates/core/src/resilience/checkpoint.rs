//! The checkpoint wire format: versioned, checksummed, little-endian.
//!
//! Layout of an encoded snapshot:
//!
//! ```text
//! magic            8 B   b"PIC2DCKP"
//! version          u32   FORMAT_VERSION
//! config_fprint    u64   hash of Debug-formatted PicConfig (layout knobs,
//!                        grid, dt, seed — a snapshot only restores into a
//!                        simulation built from the same configuration)
//! step_count       u64
//! rng_state        4×u64 xoshiro256++ stream position
//! charge_ref       f64   total-charge reference for the watchdog
//! kernel_path      u32   active hot-path knobs at capture time — metadata,
//! deposit_path     u32   not fingerprint: a restored run resumes on the
//! sort_period      u64   paths and cadence the capturing run was on (plus
//! ctrl_len, ctrl   u64+n the sort scheduler's serialized state)
//! n_particles      u64
//! icell,ix,iy      3×n×u32
//! dx,dy,vx,vy      4×n×f64
//! n_grid           u64
//! rho,ex,ey        3×n_grid×f64
//! n_diag           u64
//! diag history     n_diag×4×f64 (time, kinetic, field, ex_mode)
//! checksum         u64   snapshot_hash (4-lane word FNV) over every preceding byte
//! ```
//!
//! All floating-point values are stored as raw IEEE-754 bit patterns, so a
//! decode→encode round trip is the identity and restore is bit-exact. The
//! trailing checksum covers the header too: any single flipped bit in a
//! snapshot file is rejected with [`PicError::Checkpoint`] rather than
//! silently corrupting a resumed run.

use crate::particles::ParticlesSoA;
use crate::sim::{DepositPath, DiagSample, KernelPath};
use crate::PicError;

/// Current snapshot format version. Bumped on any layout change; decoding
/// rejects snapshots from other versions. v2 added the hot-path metadata
/// block (active kernel/deposit/sort-period plus adaptive-controller state)
/// between the charge reference and the particle store.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 8] = *b"PIC2DCKP";

/// Active hot-path knobs at capture time, carried as snapshot *metadata*
/// rather than folded into the config fingerprint: a restored run resumes
/// on the kernel, deposit, and sort period the capturing run was on.
/// `controller` is the serialized sort-scheduler state
/// ([`crate::control::HotPathController::encode_state`]); empty when no
/// controller is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPathMeta {
    /// Kernel path in effect when the snapshot was captured.
    pub kernel_path: KernelPath,
    /// Deposit path in effect when the snapshot was captured.
    pub deposit_path: DepositPath,
    /// Sort period in effect (the legacy fixed cadence; ignored while a
    /// controller drives the sort schedule).
    pub sort_period: u64,
    /// Serialized controller decision state, or empty.
    pub controller: Vec<u8>,
}

impl HotPathMeta {
    /// Metadata for a run without a sort scheduler.
    pub fn fixed(kernel_path: KernelPath, deposit_path: DepositPath, sort_period: u64) -> Self {
        Self {
            kernel_path,
            deposit_path,
            sort_period,
            controller: Vec::new(),
        }
    }
}

fn kernel_code(p: KernelPath) -> u32 {
    match p {
        KernelPath::Scalar => 0,
        KernelPath::Lanes => 1,
    }
}

fn kernel_from_code(c: u32) -> Result<KernelPath, PicError> {
    match c {
        0 => Ok(KernelPath::Scalar),
        1 => Ok(KernelPath::Lanes),
        _ => Err(PicError::Checkpoint(format!(
            "snapshot has unknown kernel-path code {c}"
        ))),
    }
}

fn deposit_code(p: DepositPath) -> u32 {
    match p {
        DepositPath::Exact => 0,
        DepositPath::LaneReduce => 1,
    }
}

fn deposit_from_code(c: u32) -> Result<DepositPath, PicError> {
    match c {
        0 => Ok(DepositPath::Exact),
        1 => Ok(DepositPath::LaneReduce),
        // Code 2 was the run-register deposit, dominated by `LaneReduce`
        // on every measured shape and removed; never read it as another
        // path.
        2 => Err(PicError::Checkpoint(
            "snapshot was taken on the removed `sorted_block` deposit path".into(),
        )),
        _ => Err(PicError::Checkpoint(format!(
            "snapshot has unknown deposit-path code {c}"
        ))),
    }
}

/// The complete restorable state of a [`crate::sim::Simulation`], as plain
/// data. [`crate::sim::Simulation::checkpoint`] gathers one of these and
/// [`encode`]s it; restore [`decode`]s and applies it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimState {
    /// Fingerprint of the owning configuration.
    pub config_fingerprint: u64,
    /// Steps taken when the snapshot was captured.
    pub step_count: u64,
    /// RNG stream position (xoshiro256++ internal state).
    pub rng_state: [u64; 4],
    /// Total-charge reference captured at initialization.
    pub charge_ref: f64,
    /// Active hot-path knobs and controller state at capture time.
    pub hot_path: HotPathMeta,
    /// Particle store (SoA canonical form; AoS runs convert losslessly).
    pub particles: ParticlesSoA,
    /// Charge density on grid points.
    pub rho: Vec<f64>,
    /// Electric field x-component on grid points.
    pub ex: Vec<f64>,
    /// Electric field y-component on grid points.
    pub ey: Vec<f64>,
    /// Diagnostics history (one sample per step plus the initial state).
    pub diag: Vec<DiagSample>,
}

/// Checksum used for snapshot integrity: FNV-1a style, but word-wise over
/// four independent lanes folded in lane order, with a byte-serial tail
/// for the last `len % 32` bytes. A plain byte-serial FNV is one long
/// dependent multiply chain and tops out near 1 GB/s, which made the
/// checksum the single largest cost of taking a checkpoint; four lanes
/// let the CPU overlap the multiplies while staying deterministic and
/// position-sensitive.
pub fn snapshot_hash(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [SEED; 4];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = SEED;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a 64-bit hash over a byte slice (used for the small canonical
/// config string behind [`config_fingerprint`]; snapshot bodies use the
/// faster [`snapshot_hash`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------- encoding ----------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

// The slice writers serialize through a small cache-resident staging
// block and append it with one `extend_from_slice` per block: appending
// element-wise pays a capacity check and length update per value, and a
// zero-filling `resize` touches every destination page twice. Both made
// `encode` the dominant cost of taking a multi-megabyte snapshot.

const STAGE: usize = 512;

fn put_u32_slice(buf: &mut Vec<u8>, s: &[u32]) {
    let mut block = [0u8; 4 * STAGE];
    for chunk in s.chunks(STAGE) {
        for (dst, v) in block.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&block[..chunk.len() * 4]);
    }
}

fn put_f64_slice(buf: &mut Vec<u8>, s: &[f64]) {
    let mut block = [0u8; 8 * STAGE];
    for chunk in s.chunks(STAGE) {
        for (dst, v) in block.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&block[..chunk.len() * 8]);
    }
}

fn put_hot_path(buf: &mut Vec<u8>, hp: &HotPathMeta) {
    put_u32(buf, kernel_code(hp.kernel_path));
    put_u32(buf, deposit_code(hp.deposit_path));
    put_u64(buf, hp.sort_period);
    put_u64(buf, hp.controller.len() as u64);
    buf.extend_from_slice(&hp.controller);
}

/// Borrowed form of [`SimState`]: everything [`encode_view`] needs,
/// without owning (or cloning) any of the arrays. A multi-megabyte
/// particle store copied once per coordinated checkpoint was the dominant
/// snapshot cost; serializing straight from the simulation's own buffers
/// avoids it.
pub struct SimStateView<'a> {
    /// Fingerprint of the owning configuration.
    pub config_fingerprint: u64,
    /// Steps taken when the snapshot was captured.
    pub step_count: u64,
    /// RNG stream position.
    pub rng_state: [u64; 4],
    /// Total-charge reference captured at initialization.
    pub charge_ref: f64,
    /// Active hot-path knobs and controller state at capture time.
    pub hot_path: &'a HotPathMeta,
    /// Particle store (SoA canonical form).
    pub particles: &'a ParticlesSoA,
    /// Charge density on grid points.
    pub rho: &'a [f64],
    /// Electric field x-component on grid points.
    pub ex: &'a [f64],
    /// Electric field y-component on grid points.
    pub ey: &'a [f64],
    /// Diagnostics history.
    pub diag: &'a [DiagSample],
}

/// Serialize a [`SimState`] into a self-contained checksummed snapshot.
pub fn encode(state: &SimState) -> Vec<u8> {
    encode_view(&SimStateView {
        config_fingerprint: state.config_fingerprint,
        step_count: state.step_count,
        rng_state: state.rng_state,
        charge_ref: state.charge_ref,
        hot_path: &state.hot_path,
        particles: &state.particles,
        rho: &state.rho,
        ex: &state.ex,
        ey: &state.ey,
        diag: &state.diag,
    })
}

/// Serialize a borrowed [`SimStateView`]; same wire format as [`encode`].
pub fn encode_view(state: &SimStateView<'_>) -> Vec<u8> {
    let n = state.particles.len();
    let mut buf = Vec::with_capacity(64 + n * 44 + state.rho.len() * 24 + state.diag.len() * 32);
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, FORMAT_VERSION);
    put_u64(&mut buf, state.config_fingerprint);
    put_u64(&mut buf, state.step_count);
    for w in state.rng_state {
        put_u64(&mut buf, w);
    }
    put_f64(&mut buf, state.charge_ref);
    put_hot_path(&mut buf, state.hot_path);

    put_u64(&mut buf, n as u64);
    put_u32_slice(&mut buf, &state.particles.icell);
    put_u32_slice(&mut buf, &state.particles.ix);
    put_u32_slice(&mut buf, &state.particles.iy);
    put_f64_slice(&mut buf, &state.particles.dx);
    put_f64_slice(&mut buf, &state.particles.dy);
    put_f64_slice(&mut buf, &state.particles.vx);
    put_f64_slice(&mut buf, &state.particles.vy);

    put_u64(&mut buf, state.rho.len() as u64);
    put_f64_slice(&mut buf, state.rho);
    put_f64_slice(&mut buf, state.ex);
    put_f64_slice(&mut buf, state.ey);

    put_u64(&mut buf, state.diag.len() as u64);
    for s in state.diag {
        put_f64(&mut buf, s.time);
        put_f64(&mut buf, s.kinetic);
        put_f64(&mut buf, s.field);
        put_f64(&mut buf, s.ex_mode);
    }

    let sum = snapshot_hash(&buf);
    put_u64(&mut buf, sum);
    buf
}

// ---------------- decoding ----------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PicError> {
        if self.pos + n > self.buf.len() {
            return Err(PicError::Checkpoint(format!(
                "snapshot truncated: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PicError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PicError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, PicError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, PicError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, PicError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    fn hot_path(&mut self) -> Result<HotPathMeta, PicError> {
        let kernel_path = kernel_from_code(self.u32()?)?;
        let deposit_path = deposit_from_code(self.u32()?)?;
        let sort_period = self.u64()?;
        let n = self.len_prefix(1)?;
        let controller = self.take(n)?.to_vec();
        Ok(HotPathMeta {
            kernel_path,
            deposit_path,
            sort_period,
            controller,
        })
    }

    /// Bounded length prefix: a corrupted count must not drive a huge
    /// allocation before the checksum gets a chance to reject the buffer.
    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, PicError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_bytes) > remaining {
            return Err(PicError::Checkpoint(format!(
                "snapshot corrupt: length prefix {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }
}

/// Parse and validate a snapshot produced by [`encode`].
///
/// Checks, in order: minimum size, trailing checksum over the whole
/// payload, magic, format version, and internal length consistency. The
/// caller ([`crate::sim::Simulation::restore`]) additionally checks the
/// configuration fingerprint and the array lengths against its own grid.
pub fn decode(bytes: &[u8]) -> Result<SimState, PicError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(PicError::Checkpoint(format!(
            "snapshot too small ({} bytes)",
            bytes.len()
        )));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at(len-8) leaves 8 bytes"));
    let actual = snapshot_hash(payload);
    if stored != actual {
        return Err(PicError::Checkpoint(format!(
            "snapshot checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }

    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(PicError::Checkpoint("bad snapshot magic".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PicError::Checkpoint(format!(
            "unsupported snapshot version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let config_fingerprint = r.u64()?;
    let step_count = r.u64()?;
    let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let charge_ref = r.f64()?;
    let hot_path = r.hot_path()?;

    let n = r.len_prefix(44)?; // 3×u32 + 4×f64 per particle
    let particles = ParticlesSoA {
        icell: r.u32_vec(n)?,
        ix: r.u32_vec(n)?,
        iy: r.u32_vec(n)?,
        dx: r.f64_vec(n)?,
        dy: r.f64_vec(n)?,
        vx: r.f64_vec(n)?,
        vy: r.f64_vec(n)?,
    };

    let ng = r.len_prefix(24)?; // 3×f64 per grid point
    let rho = r.f64_vec(ng)?;
    let ex = r.f64_vec(ng)?;
    let ey = r.f64_vec(ng)?;

    let nd = r.len_prefix(32)?; // 4×f64 per sample
    let mut diag = Vec::with_capacity(nd);
    for _ in 0..nd {
        diag.push(DiagSample {
            time: r.f64()?,
            kinetic: r.f64()?,
            field: r.f64()?,
            ex_mode: r.f64()?,
        });
    }

    if r.pos != payload.len() {
        return Err(PicError::Checkpoint(format!(
            "snapshot has {} trailing bytes",
            payload.len() - r.pos
        )));
    }

    Ok(SimState {
        config_fingerprint,
        step_count,
        rng_state,
        charge_ref,
        hot_path,
        particles,
        rho,
        ex,
        ey,
        diag,
    })
}

/// Fingerprint a configuration over an explicit canonical field list:
/// every knob that shapes the physics or the data layout. The hot-path
/// knobs — `kernel_path`, `deposit_path`, `sort_period` — are deliberately
/// *excluded* since snapshot format v2: the active values travel as
/// [`HotPathMeta`] instead. The controller *profile* is included — it
/// shapes the sort schedule and therefore the trajectory. `threads` stays excluded: it only partitions work across
/// the pool without changing what is computed, so a checkpoint written on
/// an 8-thread run restores into a 1-thread run (and a shrunken
/// distributed survivor can adopt a dead rank's snapshot regardless of its
/// pool size).
pub fn config_fingerprint(cfg: &crate::sim::PicConfig) -> u64 {
    let canon = format!(
        "grid_nx={};grid_ny={};lx={:?};ly={:?};n_particles={};dt={:?};\
         distribution={:?};ordering={:?};particle_layout={:?};\
         field_layout={:?};loop_structure={:?};position_update={:?};\
         hoisted={:?};sort_out_of_place={:?};seed={};keep_range={:?};\
         keep_cells={:?};controller={:?}",
        cfg.grid_nx,
        cfg.grid_ny,
        cfg.lx,
        cfg.ly,
        cfg.n_particles,
        cfg.dt,
        cfg.distribution,
        cfg.ordering,
        cfg.particle_layout,
        cfg.field_layout,
        cfg.loop_structure,
        cfg.position_update,
        cfg.hoisted,
        cfg.sort_out_of_place,
        cfg.seed,
        cfg.keep_range,
        cfg.keep_cells,
        cfg.controller,
    );
    fnv1a(canon.as_bytes())
}

// ---------------- multi-species (EM) snapshots ----------------
//
// The 2d3v multi-species world gets its own magic and encoder so the v1
// single-species wire format above stays byte-identical — a legacy
// checkpoint taken before the species subsystem landed still decodes (and
// hashes) exactly as it did, and the two formats can never be confused:
// the first eight bytes differ.

/// EM snapshot format version (independent of [`FORMAT_VERSION`]). v2
/// added the same hot-path metadata block as the single-species format.
pub const EM_FORMAT_VERSION: u32 = 2;

const EM_MAGIC: [u8; 8] = *b"PIC2DEMS";

/// One species' checkpointed storage.
#[derive(Debug, Clone, PartialEq)]
pub struct EmSpeciesState {
    /// In-plane SoA store.
    pub particles: ParticlesSoA,
    /// Out-of-plane velocities, index-parallel.
    pub vz: Vec<f64>,
}

/// The complete restorable state of an [`crate::em::EmSimulation`].
#[derive(Debug, Clone, PartialEq)]
pub struct EmState {
    /// Fingerprint of the owning [`crate::em::EmConfig`] (covers the
    /// species table).
    pub config_fingerprint: u64,
    /// Steps taken when the snapshot was captured.
    pub step_count: u64,
    /// RNG stream position.
    pub rng_state: [u64; 4],
    /// Total-charge reference captured at initialization.
    pub charge_ref: f64,
    /// Active hot-path knobs and controller state at capture time.
    pub hot_path: HotPathMeta,
    /// Per-species particle stores, in species-table order.
    pub species: Vec<EmSpeciesState>,
    /// Charge density on grid points.
    pub rho: Vec<f64>,
    /// Electric field components on grid points.
    pub ex: Vec<f64>,
    /// See [`ex`](Self::ex).
    pub ey: Vec<f64>,
    /// Current density components on grid points.
    pub jx: Vec<f64>,
    /// See [`jx`](Self::jx).
    pub jy: Vec<f64>,
    /// See [`jx`](Self::jx).
    pub jz: Vec<f64>,
    /// Diagnostics history.
    pub diag: Vec<DiagSample>,
}

/// Serialize an [`EmState`] into a self-contained checksummed snapshot
/// (same integrity scheme as [`encode`]: trailing [`snapshot_hash`] over
/// every preceding byte, raw IEEE-754 bit patterns throughout).
pub fn encode_em(state: &EmState) -> Vec<u8> {
    let np: usize = state.species.iter().map(|s| s.particles.len()).sum();
    let mut buf = Vec::with_capacity(96 + np * 52 + state.rho.len() * 48 + state.diag.len() * 32);
    buf.extend_from_slice(&EM_MAGIC);
    put_u32(&mut buf, EM_FORMAT_VERSION);
    put_u64(&mut buf, state.config_fingerprint);
    put_u64(&mut buf, state.step_count);
    for w in state.rng_state {
        put_u64(&mut buf, w);
    }
    put_f64(&mut buf, state.charge_ref);
    put_hot_path(&mut buf, &state.hot_path);

    put_u64(&mut buf, state.species.len() as u64);
    for sp in &state.species {
        let n = sp.particles.len();
        assert_eq!(sp.vz.len(), n, "vz must be index-parallel");
        put_u64(&mut buf, n as u64);
        put_u32_slice(&mut buf, &sp.particles.icell);
        put_u32_slice(&mut buf, &sp.particles.ix);
        put_u32_slice(&mut buf, &sp.particles.iy);
        put_f64_slice(&mut buf, &sp.particles.dx);
        put_f64_slice(&mut buf, &sp.particles.dy);
        put_f64_slice(&mut buf, &sp.particles.vx);
        put_f64_slice(&mut buf, &sp.particles.vy);
        put_f64_slice(&mut buf, &sp.vz);
    }

    put_u64(&mut buf, state.rho.len() as u64);
    put_f64_slice(&mut buf, &state.rho);
    put_f64_slice(&mut buf, &state.ex);
    put_f64_slice(&mut buf, &state.ey);
    put_f64_slice(&mut buf, &state.jx);
    put_f64_slice(&mut buf, &state.jy);
    put_f64_slice(&mut buf, &state.jz);

    put_u64(&mut buf, state.diag.len() as u64);
    for s in &state.diag {
        put_f64(&mut buf, s.time);
        put_f64(&mut buf, s.kinetic);
        put_f64(&mut buf, s.field);
        put_f64(&mut buf, s.ex_mode);
    }

    let sum = snapshot_hash(&buf);
    put_u64(&mut buf, sum);
    buf
}

/// True when `bytes` starts with the EM snapshot magic — how a runtime
/// holding an opaque snapshot routes it to the right decoder.
pub fn is_em_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[..8] == EM_MAGIC
}

/// Parse and validate a snapshot produced by [`encode_em`].
pub fn decode_em(bytes: &[u8]) -> Result<EmState, PicError> {
    if bytes.len() < EM_MAGIC.len() + 4 + 8 {
        return Err(PicError::Checkpoint(format!(
            "EM snapshot too small ({} bytes)",
            bytes.len()
        )));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at(len-8) leaves 8 bytes"));
    let actual = snapshot_hash(payload);
    if stored != actual {
        return Err(PicError::Checkpoint(format!(
            "EM snapshot checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }

    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let magic = r.take(8)?;
    if magic != EM_MAGIC {
        return Err(PicError::Checkpoint("bad EM snapshot magic".into()));
    }
    let version = r.u32()?;
    if version != EM_FORMAT_VERSION {
        return Err(PicError::Checkpoint(format!(
            "unsupported EM snapshot version {version} (expected {EM_FORMAT_VERSION})"
        )));
    }
    let config_fingerprint = r.u64()?;
    let step_count = r.u64()?;
    let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let charge_ref = r.f64()?;
    let hot_path = r.hot_path()?;

    let nsp = r.len_prefix(8)?; // at least the length prefix per species
    let mut species = Vec::with_capacity(nsp);
    for _ in 0..nsp {
        let n = r.len_prefix(52)?; // 3×u32 + 5×f64 per particle
        species.push(EmSpeciesState {
            particles: ParticlesSoA {
                icell: r.u32_vec(n)?,
                ix: r.u32_vec(n)?,
                iy: r.u32_vec(n)?,
                dx: r.f64_vec(n)?,
                dy: r.f64_vec(n)?,
                vx: r.f64_vec(n)?,
                vy: r.f64_vec(n)?,
            },
            vz: r.f64_vec(n)?,
        });
    }

    let ng = r.len_prefix(48)?; // 6×f64 per grid point
    let rho = r.f64_vec(ng)?;
    let ex = r.f64_vec(ng)?;
    let ey = r.f64_vec(ng)?;
    let jx = r.f64_vec(ng)?;
    let jy = r.f64_vec(ng)?;
    let jz = r.f64_vec(ng)?;

    let nd = r.len_prefix(32)?;
    let mut diag = Vec::with_capacity(nd);
    for _ in 0..nd {
        diag.push(DiagSample {
            time: r.f64()?,
            kinetic: r.f64()?,
            field: r.f64()?,
            ex_mode: r.f64()?,
        });
    }

    if r.pos != payload.len() {
        return Err(PicError::Checkpoint(format!(
            "EM snapshot has {} trailing bytes",
            payload.len() - r.pos
        )));
    }

    Ok(EmState {
        config_fingerprint,
        step_count,
        rng_state,
        charge_ref,
        hot_path,
        species,
        rho,
        ex,
        ey,
        jx,
        jy,
        jz,
        diag,
    })
}

/// Fingerprint an [`crate::em::EmConfig`] over an explicit canonical field
/// list — the multi-species analogue of [`config_fingerprint`]. The
/// species table is part of the canonical string (name, charge, mass,
/// density, marker count, and distribution of every species, in order), so
/// two worlds that differ in any species never share a fingerprint and
/// snapshots can never cross-restore between them. `threads` is excluded
/// for the same portability reason as the legacy fingerprint, and the
/// hot-path knobs (`kernel_path`/`deposit_path`/`sort_period`) are
/// excluded for the same reason as [`config_fingerprint`] — they travel as [`HotPathMeta`] instead, while
/// the controller profile (which shapes the sort schedule) is covered.
pub fn em_config_fingerprint(cfg: &crate::em::EmConfig) -> u64 {
    use std::fmt::Write as _;
    let mut canon = format!(
        "em;grid_nx={};grid_ny={};lx={:?};ly={:?};dt={:?};b0={:?};\
         solve_e={:?};ordering={:?};seed={};replica={:?};\
         controller={:?};nspecies={}",
        cfg.grid_nx,
        cfg.grid_ny,
        cfg.lx,
        cfg.ly,
        cfg.dt,
        cfg.b0,
        cfg.solve_e,
        cfg.ordering,
        cfg.seed,
        cfg.replica,
        cfg.controller,
        cfg.species.len(),
    );
    for s in &cfg.species {
        write!(
            canon,
            ";species[name={};charge={:?};mass={:?};density={:?};n={};dist={:?}]",
            s.name, s.charge, s.mass, s.density, s.n_particles, s.distribution
        )
        .expect("writing to a String cannot fail");
    }
    fnv1a(canon.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> SimState {
        let mut p = ParticlesSoA::zeroed(5);
        for i in 0..5 {
            p.icell[i] = i as u32;
            p.ix[i] = 2 * i as u32;
            p.iy[i] = 3 * i as u32;
            p.dx[i] = 0.1 * i as f64;
            p.dy[i] = 0.2 * i as f64;
            p.vx[i] = -1.5 + i as f64;
            p.vy[i] = 0.5 - i as f64;
        }
        SimState {
            config_fingerprint: 0xDEAD_BEEF,
            step_count: 42,
            rng_state: [1, 2, 3, 4],
            charge_ref: -1024.0,
            hot_path: HotPathMeta {
                kernel_path: KernelPath::Lanes,
                deposit_path: DepositPath::LaneReduce,
                sort_period: 17,
                controller: vec![0xA5, 0x5A, 0x3C, 0xC3],
            },
            particles: p,
            rho: vec![0.25; 16],
            ex: vec![1.0; 16],
            ey: vec![-1.0; 16],
            diag: vec![DiagSample {
                time: 0.05,
                kinetic: 10.0,
                field: 0.01,
                ex_mode: 1e-3,
            }],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = sample_state();
        let bytes = encode(&s);
        let t = decode(&bytes).unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = encode(&sample_state());
        // Flip one bit in a spread of positions (including header, data,
        // and the checksum itself) — all must fail decode.
        for pos in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_state());
        for keep in [0, 7, 19, bytes.len() - 9, bytes.len() - 1] {
            assert!(decode(&bytes[..keep]).is_err(), "truncated to {keep}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode(&sample_state());
        // Version field sits right after the 8-byte magic.
        bytes[8] = FORMAT_VERSION as u8 + 1;
        // Re-stamp the checksum so only the version check can fire.
        let n = bytes.len();
        let sum = snapshot_hash(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("version")));
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_huge_allocation() {
        let mut bytes = encode(&sample_state());
        // n_particles sits after magic(8) + version(4) + fprint(8) +
        // steps(8) + rng(32) + charge(8) + hot-path meta (4+4+8+8 plus the
        // 4-byte controller blob of `sample_state`) = offset 96.
        bytes[96..104].copy_from_slice(&u64::MAX.to_le_bytes());
        let n = bytes.len();
        let sum = snapshot_hash(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(_)));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = crate::sim::PicConfig::landau_table1(1000);
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
    }

    #[test]
    fn fingerprint_ignores_hot_path_knobs() {
        // Since format v2 kernel/deposit/sort-period are snapshot
        // metadata, not config identity.
        let mut a = crate::sim::PicConfig::landau_table1(1000);
        a.kernel_path = crate::sim::KernelPath::Scalar;
        a.deposit_path = crate::sim::DepositPath::Exact;
        a.sort_period = 10;
        let mut b = a.clone();
        b.kernel_path = crate::sim::KernelPath::Lanes;
        b.deposit_path = crate::sim::DepositPath::LaneReduce;
        b.sort_period = 50;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn fingerprint_covers_controller_profile() {
        // The controller profile shapes the sort schedule — and with it
        // the particle ordering and reassociated-deposit trajectories —
        // so it is part of config identity.
        let a = crate::sim::PicConfig::landau_table1(1000);
        let mut b = a.clone();
        b.controller = Some(crate::control::ControllerConfig::default());
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn hot_path_metadata_roundtrips() {
        let s = sample_state();
        let t = decode(&encode(&s)).unwrap();
        assert_eq!(t.hot_path, s.hot_path);
        // Unknown path codes are rejected even with a valid checksum.
        let mut bytes = encode(&s);
        bytes[68..72].copy_from_slice(&7u32.to_le_bytes()); // kernel code
        let n = bytes.len();
        let sum = snapshot_hash(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("kernel-path")));
        // Deposit code 2 was the removed run-register path: rejected by
        // name, never read as another path.
        let mut bytes = encode(&s);
        bytes[72..76].copy_from_slice(&2u32.to_le_bytes()); // deposit code
        let sum = snapshot_hash(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("sorted_block")));
    }

    #[test]
    fn wrong_version_controller_blob_rejected_without_touching_state() {
        use crate::sim::Simulation;
        let mut cfg = crate::sim::PicConfig::landau_table1(2_000);
        cfg.grid_nx = 16;
        cfg.grid_ny = 16;
        cfg.controller = Some(crate::control::ControllerConfig::default());
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(3);
        let mut st = decode(&sim.checkpoint()).unwrap();
        assert_eq!(st.hot_path.controller.len(), crate::control::CTRL_STATE_LEN);
        st.hot_path.controller[0] = 1; // the pre-scheduler blob version
        st.step_count = 99;
        let stale = encode(&st);
        sim.run(2);
        let live = sim.checkpoint();
        let err = sim.restore(&stale).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("version")));
        assert_eq!(
            sim.checkpoint(),
            live,
            "a rejected blob must not touch state"
        );
    }

    #[test]
    fn fingerprint_ignores_thread_count() {
        // Thread count partitions work without changing the trajectory, so
        // checkpoints are portable across pool sizes.
        let mut a = crate::sim::PicConfig::landau_table1(1000);
        a.threads = 1;
        let mut b = a.clone();
        b.threads = 8;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
