//! Concurrent-history crash sweeps with a durable-linearizability
//! oracle.
//!
//! [`crate::mt::mt_crash_sweep`] interleaves *transactions* serially, so
//! its oracle is per-thread prefix recovery. The sweep here goes one
//! level finer: N **real** OS threads run lock-free
//! [`ConcurrentIndex`] operations whose loads/stores/CAS genuinely
//! interleave mid-operation, serialized one access at a time by a
//! seeded [`Turnstile`], so the whole run — CAS winners, retry loops,
//! the armed crash boundary — replays bit-for-bit from
//! `(seed, crash point)` on any host (the `UTPR_QC_SEED` contract).
//!
//! The shared driver ([`crate::sweep`]) sequences the trials. Each one:
//!
//! 1. snapshots the prepopulated base image and arms the pool's fault
//!    gate at durable-write boundary `k`;
//! 2. drives the turnstile schedule, recording an invoke/response
//!    [`History`] of every operation; the gate trip stops all threads
//!    at their next yield, leaving in-flight operations *pending*;
//! 3. power-cycles the pool — under [`FlushModel::Adr`] every line that
//!    was written but never flushed+fenced reverts to its durable
//!    image, which is what distinguishes the flush strategies' crash
//!    exposure;
//! 4. recovers: a fresh shard adopts the image, allocator invariants
//!    and the structure's own invariant walk must hold, and a full
//!    audit of the key universe is appended to the history as completed
//!    reads;
//! 5. hands the history to the Wing&Gong checker
//!    ([`utpr_qc::linear::check`]): the audited state must be a legal
//!    cut of the crashed execution — completed operations durable,
//!    pending ones included or dropped. Any refusal is a
//!    [`crate::sweep::SweepFailure`] carrying the replay seed.

use crate::rng::mix;
use crate::sweep::{sweep, validated, End, Run, SweepCore, SweepReport, Verdict, Workload};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use utpr_ds::concurrent::{ConcurrentIndex, FlushStrategy, Handle};
use utpr_ds::{ConcHash, ConcList};
use utpr_heap::{AddressSpace, FaultPlan, FlushModel, HeapError, SharedPool, SlabId};
use utpr_ptr::{site, ExecEnv, Mode};
use utpr_qc::linear::{check, History, KvOp};
use utpr_qc::sched::Turnstile;

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

const POOL_BYTES: u64 = 24 << 20;
/// Small key universe so histories overlap heavily and the audit stays
/// enumerable.
pub const KEY_UNIVERSE: u64 = 8;

/// Shape of one concurrent-history crash sweep.
#[derive(Clone, Copy, Debug)]
pub struct ConcSweepSpec {
    /// Real OS threads under the turnstile.
    pub threads: u32,
    /// Lock-free operations per thread.
    pub ops_per_thread: u64,
    /// Keys committed (and history-seeded) before the gate is armed.
    pub prepopulate: u64,
    /// Flush strategy every handle follows.
    pub strategy: FlushStrategy,
    /// Crash-point selection and the master seed (the schedule, op mix,
    /// and values derive from it too).
    pub core: SweepCore,
}

impl ConcSweepSpec {
    /// Tier-1 scale: 3 threads, sampled boundaries, one strategy.
    #[must_use]
    pub fn small(seed: u64, strategy: FlushStrategy) -> ConcSweepSpec {
        ConcSweepSpec {
            threads: 3,
            ops_per_thread: 4,
            prepopulate: 3,
            strategy,
            core: SweepCore::sampled(seed, 10),
        }
    }

    /// Verify scale: every boundary of a 2-thread history.
    #[must_use]
    pub fn exhaustive(seed: u64, strategy: FlushStrategy) -> ConcSweepSpec {
        ConcSweepSpec {
            threads: 2,
            ops_per_thread: 3,
            prepopulate: 2,
            strategy,
            core: SweepCore::exhaustive(seed),
        }
    }
}

fn prepop_key(i: u64) -> u64 {
    i % KEY_UNIVERSE
}
fn prepop_val(seed: u64, i: u64) -> u64 {
    mix(seed, 0xBA5E ^ i) >> 1
}

fn op_of(seed: u64, t: u64, j: u64) -> KvOp {
    let salt = (t << 24) ^ j;
    let r = mix(seed, 0xC0DE ^ salt);
    let key = mix(seed, 0x1E7 ^ salt) % KEY_UNIVERSE;
    match r % 4 {
        0 | 1 => KvOp::Insert(key, mix(seed, 0x7A1 ^ salt) >> 1),
        2 => KvOp::Get(key),
        _ => KvOp::Remove(key),
    }
}

/// The lock-free history workload: a shared pool in ADR mode holding one
/// structure prepopulated single-threaded (descriptor in the root), and
/// one slab per thread.
struct ConcSweep<I> {
    spec: ConcSweepSpec,
    base: Arc<SharedPool>,
    slabs: Vec<SlabId>,
    index: PhantomData<fn() -> I>,
}

impl<I: ConcurrentIndex> ConcSweep<I> {
    fn prepare(spec: &ConcSweepSpec) -> Result<ConcSweep<I>> {
        let seed = spec.core.seed;
        let name =
            format!("conc-sweep-{}-{}-{:x}", I::NAME, spec.strategy.label(), mix(seed, 0x5EED));
        let base = SharedPool::create(&name, POOL_BYTES, 8)?;
        base.set_flush_model(FlushModel::Adr);
        let slabs: Vec<SlabId> = (0..spec.threads)
            .map(|_| base.carve_slab(96 << 10))
            .collect::<Result<Vec<_>>>()?;

        let mut space = AddressSpace::new(mix(seed, 0xC5E7));
        let pool = space.adopt_shared(&base)?;
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let idx = I::create(&mut env)?;
        let mut h = Handle::new(&mut env, spec.strategy)?;
        for i in 0..spec.prepopulate {
            idx.insert(&mut h, prepop_key(i), prepop_val(seed, i))?;
        }
        env.set_root(site!("conc.sweep-root", StackLocal), idx.descriptor())?;
        env.space_mut().fence();
        Ok(ConcSweep { spec: *spec, base, slabs, index: PhantomData })
    }

    /// A fresh history holding the prepopulated contents as completed
    /// sequential inserts, so the checker's model starts from the right
    /// state.
    fn seed_history(&self) -> History {
        let mut hist = History::new();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..self.spec.prepopulate {
            let (k, v) = (prepop_key(i), prepop_val(self.spec.core.seed, i));
            let id = hist.begin(u32::MAX, KvOp::Insert(k, v));
            hist.complete(id, model.insert(k, v));
        }
        hist
    }
}

impl<I: ConcurrentIndex> Workload for ConcSweep<I> {
    type Image = Arc<SharedPool>;
    /// The invoke/response history; a crash leaves in-flight ops pending.
    type Seen = History;

    /// Runs the full turnstile schedule on a snapshot of the base image
    /// with real threads.
    fn run(&self, crash_at: Option<u64>) -> Result<Run<Arc<SharedPool>, History>> {
        let spec = &self.spec;
        let seed = spec.core.seed;
        let image = self.base.snapshot();
        image.set_faults(crash_at.map_or(FaultPlan::counting(), FaultPlan::crash_at));
        let ts = Turnstile::new(spec.threads as usize, seed);
        let hist = Mutex::new(self.seed_history());
        let hard: Mutex<Option<HeapError>> = Mutex::new(None);

        std::thread::scope(|s| {
            for t in 0..spec.threads as usize {
                let (image, ts, hist, hard) = (&image, &ts, &hist, &hard);
                s.spawn(move || {
                    let run = || -> Result<()> {
                        let mut space = AddressSpace::new(mix(seed, 0xD21 ^ (t as u64 + 1)));
                        let pool = space.adopt_shared(image)?;
                        space.bind_arena_slab(pool, self.slabs[t])?;
                        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
                        let idx = I::open(env.root(site!("conc.sweep-open", KnownReturn))?);
                        let yielder = || {
                            ts.yield_point(t)
                                .map_err(|_| HeapError::CrashInjected { writes: u64::MAX })
                        };
                        let mut h =
                            Handle::new(&mut env, spec.strategy)?.with_yielder(&yielder);
                        for j in 0..spec.ops_per_thread {
                            let op = op_of(seed, t as u64, j);
                            let id = hist.lock().expect("history").begin(t as u32, op);
                            // An error leaves the op pending.
                            let result = match op {
                                KvOp::Insert(k, v) => idx.insert(&mut h, k, v),
                                KvOp::Remove(k) => idx.remove(&mut h, k),
                                KvOp::Get(k) => idx.get(&mut h, k),
                            }?;
                            hist.lock().expect("history").complete(id, result);
                        }
                        Ok(())
                    };
                    match run() {
                        Ok(()) => {}
                        Err(HeapError::CrashInjected { .. }) => ts.crash(),
                        Err(e) => {
                            *hard.lock().expect("hard") = Some(e);
                            ts.crash();
                        }
                    }
                    ts.finish(t);
                });
            }
        });

        let err = hard.into_inner().expect("hard");
        let end = match err {
            Some(e) => End::Died(e),
            None if ts.crashed() => End::Crashed,
            None => End::Completed,
        };
        let writes = image.faults().writes();
        Ok(Run { image, seen: hist.into_inner().expect("history"), writes, end })
    }

    /// Power-cycles, restarts, audits the whole key universe into the
    /// history, and asks the checker whether it is a legal cut.
    fn audit(
        &self,
        k: u64,
        run: Run<Arc<SharedPool>, History>,
    ) -> std::result::Result<Verdict, String> {
        let e2s = |e: HeapError| format!("harness error: {e}");
        let (image, mut history) = (run.image, run.seen);
        let cut = history.pending() > 0;

        // Power failure: unflushed lines revert, tags die with the caches.
        image.set_faults(FaultPlan::disabled());
        image.power_cycle();

        // Restart: fresh shard adopts the image and audits everything.
        let mut space = AddressSpace::new(mix(self.spec.core.seed, 0x42EC ^ k));
        let pool = space.adopt_shared(&image).map_err(e2s)?;
        image.validate().map_err(|e| format!("allocator invariants violated: {e}"))?;
        let mut env = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let idx = I::open(env.root(site!("conc.sweep-check", KnownReturn)).map_err(e2s)?);
        validated(|| idx.validate(&mut env))?;

        // Append the recovered state as completed audit reads, then ask
        // the checker whether it is a legal cut of the crashed execution.
        let mut h = Handle::new(&mut env, self.spec.strategy).map_err(e2s)?;
        for key in 0..KEY_UNIVERSE {
            let id = history.begin(u32::MAX - 1, KvOp::Get(key));
            let got = idx.get(&mut h, key).map_err(e2s)?;
            history.complete(id, got);
        }
        check(&history).map_err(|detail| format!("durable linearizability refuted: {detail}"))?;
        Ok(Verdict::Recovered { cut })
    }
}

/// Sweeps crash boundaries of an N-thread lock-free history under one
/// flush strategy; see the module docs.
///
/// # Errors
///
/// Propagates setup failures (consistency findings land in
/// [`SweepReport::failures`]).
///
/// # Panics
///
/// Panics when `spec.threads` is zero.
pub fn conc_crash_sweep<I: ConcurrentIndex>(spec: &ConcSweepSpec) -> Result<SweepReport> {
    assert!(spec.threads > 0, "sweep over zero threads");
    sweep(I::NAME, &ConcSweep::<I>::prepare(spec)?, &spec.core)
}

/// Convenience: sweeps the hash map under every flush strategy.
///
/// # Errors
///
/// Propagates setup failures.
pub fn conc_sweep_all_strategies(seed: u64) -> Result<Vec<SweepReport>> {
    FlushStrategy::ALL
        .iter()
        .map(|s| conc_crash_sweep::<ConcHash>(&ConcSweepSpec::small(seed, *s)))
        .collect()
}

/// The list variant of [`conc_sweep_all_strategies`].
///
/// # Errors
///
/// Propagates setup failures.
pub fn conc_sweep_list(seed: u64, strategy: FlushStrategy) -> Result<SweepReport> {
    conc_crash_sweep::<ConcList>(&ConcSweepSpec::small(seed, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conc_sweep_hash_all_strategies_is_clean() {
        for (r, strategy) in conc_sweep_all_strategies(13).unwrap().iter().zip(FlushStrategy::ALL) {
            assert!(r.boundaries > 0, "{strategy:?}: schedule must cross durable writes");
            assert_eq!(r.tested, 10.min(r.boundaries), "{strategy:?} sample budget");
            assert!(r.failures.is_empty(), "{strategy:?}: {:?}", r.failures);
        }
    }

    #[test]
    fn conc_sweep_list_exhaustive_two_threads_is_clean() {
        let spec = ConcSweepSpec::exhaustive(7, FlushStrategy::Traverse);
        let r = conc_crash_sweep::<ConcList>(&spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "exhaustive sweep hits every boundary");
        assert!(r.rollbacks > 0, "some crash points must cut an operation mid-flight");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn conc_sweep_replays_under_a_fixed_seed() {
        let spec = ConcSweepSpec::small(99, FlushStrategy::FliT);
        let a = conc_crash_sweep::<ConcHash>(&spec).unwrap();
        let b = conc_crash_sweep::<ConcHash>(&spec).unwrap();
        assert_eq!(a.boundaries, b.boundaries, "same seed, same schedule");
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
