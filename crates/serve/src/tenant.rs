//! Tenant abstraction: one runtime scheduling loop over both simulation
//! kinds the workspace offers — the single-species electrostatic
//! [`Simulation`] and the multi-species electromagnetic [`EmSimulation`].
//!
//! The runtime never branches on the tenant kind outside this module: a
//! [`Workload`] describes what to run (and fingerprints it for the result
//! cache and checkpoint verification), and a live [`Tenant`] exposes the
//! handful of operations the scheduler needs — step, checkpoint, watchdog
//! scan, diagnostic streaming. Checkpoints carry their own magic, so a
//! snapshot of one kind can never be re-admitted into a tenant of the
//! other ([`ckpt::is_em_snapshot`] routes the decode).

use pic_core::diag::DiagStream;
use pic_core::em::{EmConfig, EmSimulation};
use pic_core::pool::ThreadPool;
use pic_core::resilience::checkpoint::{self as ckpt};
use pic_core::resilience::watchdog::{scan_violation, WatchdogConfig, WatchdogViolation};
use pic_core::sim::{PicConfig, Simulation};
use std::io::Write;
use std::sync::Arc;

/// What a job runs: the configuration of either simulation kind.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A single-species electrostatic simulation ([`Simulation`]).
    Single(PicConfig),
    /// A multi-species 2d3v electromagnetic simulation ([`EmSimulation`]).
    MultiSpecies(EmConfig),
}

impl Workload {
    /// The config fingerprint keying the result cache and verified against
    /// every checkpoint before re-admission. The two kinds hash different
    /// canonical strings, so a `Single` and a `MultiSpecies` workload can
    /// never collide.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Workload::Single(cfg) => ckpt::config_fingerprint(cfg),
            Workload::MultiSpecies(cfg) => ckpt::em_config_fingerprint(cfg),
        }
    }

    /// Total marker particles stepped per time step (all species).
    pub fn particles(&self) -> usize {
        match self {
            Workload::Single(cfg) => cfg.n_particles,
            Workload::MultiSpecies(cfg) => cfg.total_particles(),
        }
    }

    /// Grid cells (= grid points, periodic) touched per time step.
    pub fn cells(&self) -> usize {
        match self {
            Workload::Single(cfg) => cfg.grid_nx * cfg.grid_ny,
            Workload::MultiSpecies(cfg) => cfg.grid_nx * cfg.grid_ny,
        }
    }

    /// Grid arrays reduced each step: ρ alone for the electrostatic kind,
    /// ρ plus the three current components for the electromagnetic one —
    /// the admission cost model charges communication per reduced array.
    pub fn reduced_arrays(&self) -> usize {
        match self {
            Workload::Single(_) => 1,
            Workload::MultiSpecies(_) => 4,
        }
    }
}

/// A live tenant: the simulation kind erased behind the operations the
/// scheduler uses.
// The runtime keeps tenants behind one `Box` already; boxing the larger
// variant would only add a second indirection on the hot stepping path.
#[allow(clippy::large_enum_variant)]
pub enum Tenant {
    /// Electrostatic single-species tenant.
    Single(Simulation),
    /// Electromagnetic multi-species tenant.
    Em(EmSimulation),
}

impl Tenant {
    /// Build a fresh tenant on the shared pool.
    pub fn new_shared(workload: &Workload, pool: Arc<ThreadPool>) -> Result<Self, String> {
        match workload {
            Workload::Single(cfg) => Simulation::new_shared(cfg.clone(), pool)
                .map(Tenant::Single)
                .map_err(|e| format!("init: {e}")),
            Workload::MultiSpecies(cfg) => EmSimulation::new_shared(cfg.clone(), pool)
                .map(Tenant::Em)
                .map_err(|e| format!("init: {e}")),
        }
    }

    /// Restore a tenant from a snapshot after verifying (a) the snapshot
    /// kind matches the workload kind and (b) its config fingerprint
    /// matches `fingerprint` — a checkpoint may only re-enter the executor
    /// under the exact config that produced it.
    pub fn from_snapshot_shared(
        workload: &Workload,
        snapshot: &[u8],
        fingerprint: u64,
        pool: Arc<ThreadPool>,
    ) -> Result<Self, String> {
        match workload {
            Workload::Single(cfg) => {
                if ckpt::is_em_snapshot(snapshot) {
                    return Err("EM checkpoint offered to a single-species job".into());
                }
                let st = ckpt::decode(snapshot).map_err(|e| format!("decode checkpoint: {e}"))?;
                if st.config_fingerprint != fingerprint {
                    return Err("checkpoint fingerprint does not match job config".into());
                }
                Simulation::from_snapshot_shared(cfg.clone(), snapshot, pool)
                    .map(Tenant::Single)
                    .map_err(|e| format!("restore: {e}"))
            }
            Workload::MultiSpecies(cfg) => {
                if !ckpt::is_em_snapshot(snapshot) {
                    return Err("single-species checkpoint offered to an EM job".into());
                }
                let st =
                    ckpt::decode_em(snapshot).map_err(|e| format!("decode checkpoint: {e}"))?;
                if st.config_fingerprint != fingerprint {
                    return Err("checkpoint fingerprint does not match job config".into());
                }
                EmSimulation::from_snapshot_shared(cfg.clone(), snapshot, pool)
                    .map(Tenant::Em)
                    .map_err(|e| format!("restore: {e}"))
            }
        }
    }

    /// Steps completed so far.
    pub fn steps(&self) -> u64 {
        match self {
            Tenant::Single(s) => s.steps() as u64,
            Tenant::Em(s) => s.steps() as u64,
        }
    }

    /// Advance one step.
    pub fn step(&mut self) {
        match self {
            Tenant::Single(s) => s.step(),
            Tenant::Em(s) => s.step(),
        }
    }

    /// Bit-exact versioned checkpoint of the current state.
    pub fn checkpoint(&self) -> Vec<u8> {
        match self {
            Tenant::Single(s) => s.checkpoint(),
            Tenant::Em(s) => s.checkpoint(),
        }
    }

    /// Write one NaN into ρ — the fault-injection hook shared by both
    /// kinds (the watchdog scan must catch it either way).
    pub fn corrupt_rho(&mut self) {
        match self {
            Tenant::Single(s) => s.rho_mut()[0] = f64::NAN,
            Tenant::Em(s) => s.rho_mut()[0] = f64::NAN,
        }
    }

    /// Run the kind's invariant scan against the runtime's thresholds.
    pub fn scan(&mut self, wcfg: &WatchdogConfig) -> Option<WatchdogViolation> {
        match self {
            Tenant::Single(s) => scan_violation(s, wcfg),
            Tenant::Em(s) => s.scan_violation(wcfg),
        }
    }

    /// Stream the newest per-step diagnostics: the energy sample for both
    /// kinds, plus one per-species moment record for the EM kind.
    pub fn record_stream<W: Write>(&self, stream: &mut DiagStream<W>, job: u64) {
        let step = self.steps();
        match self {
            Tenant::Single(s) => {
                if let Some(sample) = s.diagnostics().history.last() {
                    stream.record(Some(job), step, sample);
                }
            }
            Tenant::Em(s) => {
                if let Some(sample) = s.diagnostics().history.last() {
                    stream.record(Some(job), step, sample);
                }
                for (arena, m) in s.species().iter().zip(s.moments()) {
                    stream.record_species(Some(job), step, &arena.def.name, &m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_kinds_and_configs() {
        let single = Workload::Single(PicConfig::landau_table1(1_000));
        let em = Workload::MultiSpecies(EmConfig::ion_acoustic(512));
        let em2 = Workload::MultiSpecies(EmConfig::cyclotron(512));
        assert_ne!(single.fingerprint(), em.fingerprint());
        assert_ne!(em.fingerprint(), em2.fingerprint());
        assert_eq!(em.fingerprint(), em.fingerprint());
    }

    #[test]
    fn snapshot_kind_mismatch_is_rejected() {
        let pool = Arc::new(ThreadPool::new(1));
        let em_wl = Workload::MultiSpecies(EmConfig::ion_acoustic(256));
        let mut em = Tenant::new_shared(&em_wl, pool.clone()).unwrap();
        em.step();
        let em_snap = em.checkpoint();

        let single_wl = Workload::Single(PicConfig::landau_table1(1_000));
        match Tenant::from_snapshot_shared(&single_wl, &em_snap, single_wl.fingerprint(), pool) {
            Err(err) => assert!(err.contains("EM checkpoint"), "{err}"),
            Ok(_) => panic!("EM snapshot accepted by a single-species job"),
        }
    }

    #[test]
    fn em_tenant_checkpoint_resume_is_bit_exact() {
        let pool = Arc::new(ThreadPool::new(2));
        let wl = Workload::MultiSpecies(EmConfig::ion_acoustic(512));
        let mut a = Tenant::new_shared(&wl, pool.clone()).unwrap();
        for _ in 0..3 {
            a.step();
        }
        let snap = a.checkpoint();
        let mut b = Tenant::from_snapshot_shared(&wl, &snap, wl.fingerprint(), pool).unwrap();
        for _ in 0..3 {
            a.step();
            b.step();
        }
        assert_eq!(a.checkpoint(), b.checkpoint());
    }
}
