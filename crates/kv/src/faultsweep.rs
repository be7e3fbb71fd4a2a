//! Systematic crash-point and media-fault sweeps over the data structures.
//!
//! For each structure this module prepares a prepopulated pool and a
//! transaction-wrapped insert/remove workload, and hands both to the
//! shared crash-campaign driver ([`crate::sweep`]): it counts the
//! workload's durable-write boundaries, re-runs it once per crash point
//! with the fault gate armed ([`utpr_heap::FaultPlan::crash_at`]), and
//! asks this module's audit about each crashed image.
//! [`utpr_heap::crash_and_recover`] restarts the address space and rolls
//! back the torn transaction, and the recovered structure is checked
//! against three oracles:
//!
//! 1. its own invariant validator ([`Index::validate`]),
//! 2. exact contents against the transaction-prefix model the recovered
//!    image must equal (the op being crashed either rolled back or — when
//!    the crash struck its post-commit deferred frees — committed),
//! 3. a mutation probe: the recovered structure must accept a write and
//!    validate again.
//!
//! Two media-fault variants ride on the same machinery:
//!
//! * **Torn sweeps** ([`SweepSpec::torn`]) run the armed workload under
//!   the ADR flush model with [`utpr_heap::FaultPlan::torn_at`]: the
//!   in-flight durable write at the crash boundary lands partially (a
//!   seeded subset of its 8-byte words), and every unfenced line drains
//!   word-by-lottery at restart. The oracle battery is unchanged — the
//!   undo log's fence discipline must make recovery exact — except that a
//!   *typed* corruption error from recovery counts as detected, never as
//!   a silent failure.
//! * **Bit-flip campaigns** ([`bitflip_campaign`]) inject seeded retention
//!   errors into pool pages between detach and re-attach. With CRC
//!   integrity on, re-attach must fail with
//!   [`utpr_heap::HeapError::MediaCorruption`]; the campaign then walks
//!   the quarantine → salvage → reseal path and reports recovered vs
//!   lost keys. With CRC off, the same flips measure the silent-wrong
//!   rate the integrity layer exists to prevent.
//!
//! Everything derives from the spec's master seed, so a failure
//! reproduces from `(seed, crash point)` alone — the two numbers every
//! [`SweepFailure`] carries.

use crate::harness::Benchmark;
use crate::rng::Rng;
use crate::store::KvStore;
use crate::sweep::{
    sweep, validated, End, Run, SweepCore, SweepFailure, SweepReport, Verdict, Workload,
};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use utpr_ds::{
    AvlTree, BPlusTree, HashMapIndex, Index, LinkedList, RbTree, ScapegoatTree, SplayTree,
};
use utpr_heap::{
    crash_and_recover, AddressSpace, FaultPlan, FlushModel, HeapError, IntegrityMode, PoolId,
    Region, SalvageStats,
};
use utpr_ptr::{site, ExecEnv, Mode, NullSink, UPtr};

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

/// Pool name every sweep uses.
const POOL: &str = "faultsweep";
const POOL_BYTES: u64 = 8 << 20;

/// What kind of media fault the armed run injects at the crash boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultFlavor {
    /// Clean power loss: the in-flight durable write is wholly suppressed.
    Crash,
    /// Torn power loss under ADR: the in-flight write lands, then every
    /// unfenced cache line drains a seeded subset of its 8-byte words.
    Torn,
}

/// Shape of one structure's sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec {
    /// Keys inserted before the gate is armed (the committed baseline).
    pub prepopulate: u64,
    /// Transaction-wrapped operations run while armed.
    pub txn_ops: u64,
    /// Crash-point selection and the master seed.
    pub core: SweepCore,
    /// Whether crashes are clean or torn.
    pub flavor: FaultFlavor,
}

impl SweepSpec {
    /// Tier-1 scale: small enough that every boundary is swept.
    pub fn small(seed: u64) -> SweepSpec {
        SweepSpec {
            prepopulate: 8,
            txn_ops: 6,
            core: SweepCore::exhaustive(seed),
            flavor: FaultFlavor::Crash,
        }
    }

    /// Bench scale: bigger workload, seeded-sampled crash points.
    pub fn sampled(seed: u64, txn_ops: u64, samples: u64) -> SweepSpec {
        SweepSpec {
            prepopulate: 64,
            txn_ops,
            core: SweepCore::sampled(seed, samples),
            flavor: FaultFlavor::Crash,
        }
    }

    /// Switches the sweep to torn-write crashes under the ADR flush model.
    #[must_use]
    pub fn torn(mut self) -> SweepSpec {
        self.flavor = FaultFlavor::Torn;
        self
    }
}

/// Arms the fault gate for crash point `k` according to the spec's flavor.
fn arm(env: &mut ExecEnv<NullSink>, spec: &SweepSpec, k: u64) {
    match spec.flavor {
        FaultFlavor::Crash => env.space_mut().set_faults(FaultPlan::crash_at(k)),
        FaultFlavor::Torn => {
            // ADR: durable writes pend per cache line until a fence; the
            // torn seed decides which pending words survive the drain.
            env.space_mut().set_flush_model(FlushModel::Adr);
            let tseed = spec.core.seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            env.space_mut().set_faults(FaultPlan::torn_at(k, tseed));
        }
    }
}

/// In torn mode a *typed* corruption error from recovery is an acceptable
/// (detected, not silent) outcome; in clean-crash mode it is a bug.
fn is_detected_corruption(spec: &SweepSpec, e: &HeapError) -> bool {
    spec.flavor == FaultFlavor::Torn
        && matches!(
            e,
            HeapError::MediaCorruption { .. }
                | HeapError::BadPoolHeader { .. }
                | HeapError::CorruptRegion(_)
        )
}

/// Mixes the structure name into the master seed so each structure gets
/// its own deterministic workload and pool layout.
fn structure_seed(seed: u64, name: &str) -> u64 {
    let mut x = seed ^ 0x243f_6a88_85a3_08d3;
    for b in name.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    x
}

fn fresh_env(space: AddressSpace, pool: PoolId) -> ExecEnv<NullSink> {
    ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build()
}

// ---- transactional crash sweep ---------------------------------------------

/// A structure the transactional sweep drives: its operations, the model
/// they act on, and its oracles. The maps run behind a [`KvStore`]; the
/// list is a queue of value pairs.
trait Subject: Sized {
    type Op: Copy;
    type Model: Clone;
    /// Table III name; it also salts the structure's seed.
    const NAME: &'static str;

    /// Creates the structure holding `n` committed entries drawn from
    /// `rng`; returns its descriptor and the matching model.
    fn populate(
        env: &mut ExecEnv<NullSink>,
        n: u64,
        rng: &mut Rng,
        keyspace: u64,
    ) -> Result<(UPtr, Self::Model)>;
    fn open(desc: UPtr) -> Self;
    /// Draws one armed-workload operation.
    fn draw(rng: &mut Rng, keyspace: u64) -> Self::Op;
    fn apply(model: &mut Self::Model, op: Self::Op);
    fn exec(&mut self, env: &mut ExecEnv<NullSink>, op: Self::Op) -> Result<()>;
    fn validate(&self, env: &mut ExecEnv<NullSink>) -> Result<u64>;
    /// Whether the recovered structure, whose validator counted `count`
    /// entries, holds exactly `model`.
    fn matches(
        &mut self,
        env: &mut ExecEnv<NullSink>,
        model: &Self::Model,
        count: u64,
        keyspace: u64,
    ) -> Result<bool>;
    /// Mutation probe: whether the recovered structure accepts a write.
    fn probe(&mut self, env: &mut ExecEnv<NullSink>) -> Result<bool>;
}

#[derive(Clone, Copy, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
}

impl<I: Index> Subject for KvStore<I> {
    type Op = MapOp;
    type Model = BTreeMap<u64, u64>;
    const NAME: &'static str = I::NAME;

    fn populate(
        env: &mut ExecEnv<NullSink>,
        n: u64,
        rng: &mut Rng,
        keyspace: u64,
    ) -> Result<(UPtr, Self::Model)> {
        let mut store: KvStore<I> = KvStore::create(env)?;
        let mut model = BTreeMap::new();
        for _ in 0..n {
            let k = rng.below(keyspace);
            let v = rng.next_u64() >> 1;
            store.set(env, k, v)?;
            model.insert(k, v);
        }
        Ok((store.index().descriptor(), model))
    }
    fn open(desc: UPtr) -> Self {
        KvStore::open(desc)
    }
    fn draw(rng: &mut Rng, keyspace: u64) -> MapOp {
        let k = rng.below(keyspace);
        if rng.below(3) == 0 {
            MapOp::Remove(k)
        } else {
            MapOp::Insert(k, rng.next_u64() >> 1)
        }
    }
    fn apply(model: &mut Self::Model, op: MapOp) {
        match op {
            MapOp::Insert(k, v) => {
                model.insert(k, v);
            }
            MapOp::Remove(k) => {
                model.remove(&k);
            }
        }
    }
    fn exec(&mut self, env: &mut ExecEnv<NullSink>, op: MapOp) -> Result<()> {
        match op {
            MapOp::Insert(k, v) => self.set(env, k, v).map(|_| ()),
            MapOp::Remove(k) => self.remove(env, k).map(|_| ()),
        }
    }
    fn validate(&self, env: &mut ExecEnv<NullSink>) -> Result<u64> {
        self.index().validate(env)
    }
    fn matches(
        &mut self,
        env: &mut ExecEnv<NullSink>,
        model: &Self::Model,
        count: u64,
        keyspace: u64,
    ) -> Result<bool> {
        if model.len() as u64 != count || self.len(env)? != count {
            return Ok(false);
        }
        for k in 0..keyspace {
            if self.get(env, k)? != model.get(&k).copied() {
                return Ok(false);
            }
        }
        Ok(true)
    }
    fn probe(&mut self, env: &mut ExecEnv<NullSink>) -> Result<bool> {
        let probe_key = u64::MAX - 1;
        self.set(env, probe_key, 0xFEED)?;
        let readable = self.get(env, probe_key)? == Some(0xFEED);
        self.remove(env, probe_key)?;
        Ok(readable)
    }
}

#[derive(Clone, Copy, Debug)]
enum LlOp {
    Push(u64, u64),
    Pop,
}

fn pair_sum(model: &VecDeque<(u64, u64)>) -> u64 {
    model.iter().fold(0u64, |a, (v0, v1)| a.wrapping_add(*v0).wrapping_add(*v1))
}

impl Subject for LinkedList {
    type Op = LlOp;
    type Model = VecDeque<(u64, u64)>;
    const NAME: &'static str = "LL";

    fn populate(
        env: &mut ExecEnv<NullSink>,
        n: u64,
        rng: &mut Rng,
        _keyspace: u64,
    ) -> Result<(UPtr, Self::Model)> {
        let mut list = LinkedList::create(env)?;
        let mut model = VecDeque::new();
        for _ in 0..n {
            let (v0, v1) = (rng.next_u64() >> 1, rng.next_u64() >> 1);
            list.push_back(env, v0, v1)?;
            model.push_back((v0, v1));
        }
        Ok((list.descriptor(), model))
    }
    fn open(desc: UPtr) -> Self {
        LinkedList::open(desc)
    }
    fn draw(rng: &mut Rng, _keyspace: u64) -> LlOp {
        if rng.below(3) == 0 {
            LlOp::Pop
        } else {
            LlOp::Push(rng.next_u64() >> 1, rng.next_u64() >> 1)
        }
    }
    fn apply(model: &mut Self::Model, op: LlOp) {
        match op {
            LlOp::Push(v0, v1) => model.push_back((v0, v1)),
            LlOp::Pop => {
                model.pop_front();
            }
        }
    }
    fn exec(&mut self, env: &mut ExecEnv<NullSink>, op: LlOp) -> Result<()> {
        match op {
            LlOp::Push(v0, v1) => self.push_back(env, v0, v1),
            LlOp::Pop => self.pop_front(env).map(|_| ()),
        }
    }
    fn validate(&self, env: &mut ExecEnv<NullSink>) -> Result<u64> {
        LinkedList::validate(self, env)
    }
    fn matches(
        &mut self,
        env: &mut ExecEnv<NullSink>,
        model: &Self::Model,
        count: u64,
        _keyspace: u64,
    ) -> Result<bool> {
        Ok(model.len() as u64 == count
            && self.len(env)? == count
            && self.iter_sum(env)? == pair_sum(model))
    }
    fn probe(&mut self, env: &mut ExecEnv<NullSink>) -> Result<bool> {
        let before = self.len(env)?;
        self.push_back(env, 1, 2)?;
        Ok(self.len(env)? == before + 1)
    }
}

/// One structure's transactional sweep workload: the base image (the
/// prepopulated store, its root set, and the undo log materialized so its
/// one-time allocation is outside the armed count) plus the armed ops and
/// their transaction-prefix models.
struct TxnSweep<S: Subject> {
    spec: SweepSpec,
    base: AddressSpace,
    pool: PoolId,
    keyspace: u64,
    ops: Vec<S::Op>,
    /// `models[j]` is the state after `j` committed ops.
    models: Vec<S::Model>,
}

/// Builds a quiesced image in `space`: the sweep pool holding `S` with
/// `n` committed entries behind the root, and the undo log materialized.
/// Returns the image, the pool, and the model of its contents.
fn populated<S: Subject>(
    mut space: AddressSpace,
    seed: u64,
    n: u64,
    keyspace: u64,
) -> Result<(AddressSpace, PoolId, S::Model)> {
    let pool = space.create_pool(POOL, POOL_BYTES)?;
    let mut env = fresh_env(space, pool);
    let mut rng = Rng::new(seed ^ 0x517c_c1b7_2722_0a95);
    let (desc, model) = S::populate(&mut env, n, &mut rng, keyspace)?;
    env.set_root(site!("faultsweep.set-root", StackLocal), desc)?;
    env.with_txn(|_| Ok(()))?;
    let (space, _, _) = env.into_parts();
    Ok((space, pool, model))
}

impl<S: Subject> TxnSweep<S> {
    fn prepare(spec: &SweepSpec) -> Result<TxnSweep<S>> {
        let sseed = structure_seed(spec.core.seed, S::NAME);
        let keyspace = (spec.prepopulate * 2).max(4);
        let (base, pool, model) =
            populated::<S>(AddressSpace::new(sseed), sseed, spec.prepopulate, keyspace)?;

        let mut rng = Rng::new(sseed ^ 0x9e37_79b9_7f4a_7c15);
        let ops: Vec<S::Op> = (0..spec.txn_ops).map(|_| S::draw(&mut rng, keyspace)).collect();
        let mut models = vec![model];
        for &op in &ops {
            let mut m = models[models.len() - 1].clone();
            S::apply(&mut m, op);
            models.push(m);
        }
        Ok(TxnSweep { spec: *spec, base, pool, keyspace, ops, models })
    }
}

impl<S: Subject> Workload for TxnSweep<S> {
    type Image = AddressSpace;
    /// Transactions that committed before the run stopped.
    type Seen = usize;

    fn run(&self, crash_at: Option<u64>) -> Result<Run<AddressSpace, usize>> {
        let mut env = fresh_env(self.base.clone(), self.pool);
        match crash_at {
            None => env.space_mut().set_faults(FaultPlan::counting()),
            Some(k) => arm(&mut env, &self.spec, k),
        }
        let mut subject = S::open(env.root(site!("faultsweep.open-root", KnownReturn))?);
        let (mut committed, mut err) = (0, None);
        for &op in &self.ops {
            if let Err(e) = env.with_txn(|env| subject.exec(env, op)) {
                err = Some(e);
                break;
            }
            committed += 1;
        }
        let writes = env.space().faults().writes();
        let (image, _, _) = env.into_parts();
        Ok(Run { image, seen: committed, writes, end: End::of(err) })
    }

    fn audit(
        &self,
        _k: u64,
        run: Run<AddressSpace, usize>,
    ) -> std::result::Result<Verdict, String> {
        let e2s = |e: HeapError| format!("harness error: {e}");
        let mut space = run.image;
        let rec = match crash_and_recover(&mut space, POOL) {
            Ok(r) => r,
            Err(e) if is_detected_corruption(&self.spec, &e) => return Ok(Verdict::Detected),
            Err(e) => return Err(format!("recovery failed: {e}")),
        };
        let mut env = fresh_env(space, rec.pool);
        let desc = env.root(site!("faultsweep.check-root", KnownReturn)).map_err(e2s)?;
        let mut subject = S::open(desc);

        // Oracle 1: the structure's own invariants.
        let count = validated(|| subject.validate(&mut env))?;

        // Oracle 2: exact contents. The crashed op either rolled back
        // (state == models[committed]) or the crash struck its deferred
        // post-commit frees (state == models[committed + 1]).
        let committed = run.seen;
        let mut matched = false;
        for j in [committed, (committed + 1).min(self.ops.len())] {
            if subject.matches(&mut env, &self.models[j], count, self.keyspace).map_err(e2s)? {
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(format!(
                "recovered contents match no transaction boundary (committed {committed}, count {count})"
            ));
        }

        // Oracle 3: the recovered structure still works.
        if !subject.probe(&mut env).map_err(e2s)? {
            return Err("post-recovery probe write not visible".into());
        }
        Ok(Verdict::Recovered { cut: rec.rolled_back })
    }
}

// ---- bit-flip retention campaign -------------------------------------------

/// Shape of one structure's bit-flip (retention-error) campaign.
#[derive(Clone, Copy, Debug)]
pub struct BitflipSpec {
    /// Keys inserted (and quiesced) before the simulated power-off.
    pub prepopulate: u64,
    /// Bit flips injected into resident pool pages per trial.
    pub flips: u64,
    /// Independent trials, each with a fresh pool and fresh flip sites.
    pub trials: u64,
    /// Master seed: workload, layout, and flip sites all derive from it.
    pub seed: u64,
    /// Whether the pool keeps CRC page sidecars (the detection layer).
    pub crc: bool,
}

impl BitflipSpec {
    /// Tier-1 scale, CRC on.
    pub fn small(seed: u64) -> BitflipSpec {
        BitflipSpec { prepopulate: 24, flips: 3, trials: 8, seed, crc: true }
    }

    /// Same campaign with the integrity layer off — the baseline arm that
    /// measures the silent-wrong rate CRC exists to prevent.
    #[must_use]
    pub fn crc_off(mut self) -> BitflipSpec {
        self.crc = false;
        self
    }
}

/// What a bit-flip campaign produced.
#[derive(Clone, Debug)]
pub struct BitflipReport {
    /// Table III name of the structure.
    pub benchmark: &'static str,
    /// Trials run.
    pub trials: u64,
    /// Trials where the damage surfaced as an error — `MediaCorruption`
    /// at re-attach, or a typed error / validator panic during probing.
    pub detected: u64,
    /// Trials that returned a wrong answer with no error at all. Data in
    /// the CRC-off arm; an oracle failure when CRC is on.
    pub silent_wrong: u64,
    /// Trials where every key read back correctly (flips cancelled or hit
    /// slack bytes).
    pub clean: u64,
    /// Keys proven intact by the post-salvage probe (detected trials).
    pub recovered_keys: u64,
    /// Keys the damage took with it (detected trials).
    pub lost_keys: u64,
    /// Accumulated recovered-vs-lost block accounting across the salvage
    /// walks — the same [`SalvageStats`] the online scrubber reports, so
    /// the two recovery paths can never diverge on what "recovered"
    /// means.
    pub salvage: SalvageStats,
    /// Oracle violations (always empty when the integrity layer works).
    pub failures: Vec<SweepFailure>,
}

/// How one probe of a recovered image went.
enum Probe {
    /// Every key matched the model.
    Clean,
    /// At least one wrong answer with no error raised.
    Wrong(u64),
    /// A typed error or panic surfaced while probing — noisy, not silent.
    Errored,
}

fn probe_map<I: Index>(
    env: &mut ExecEnv<NullSink>,
    model: &BTreeMap<u64, u64>,
    keyspace: u64,
) -> Probe {
    let mut wrong = 0u64;
    let mut errored = false;
    for k in 0..keyspace {
        let r = catch_unwind(AssertUnwindSafe(|| -> Result<Option<u64>> {
            let desc = env.root(site!("faultsweep.flip-probe", KnownReturn))?;
            let mut store = KvStore::<I>::open(desc);
            store.get(env, k)
        }));
        match r {
            Ok(Ok(got)) => {
                if got != model.get(&k).copied() {
                    wrong += 1;
                }
            }
            _ => errored = true,
        }
    }
    let validated = catch_unwind(AssertUnwindSafe(|| -> Result<u64> {
        let desc = env.root(site!("faultsweep.flip-validate", KnownReturn))?;
        I::open(desc).validate(env)
    }));
    match validated {
        Ok(Ok(n)) if n != model.len() as u64 => wrong += 1,
        Ok(Ok(_)) => {}
        _ => errored = true,
    }
    if errored {
        Probe::Errored
    } else if wrong > 0 {
        Probe::Wrong(wrong)
    } else {
        Probe::Clean
    }
}

/// Walks the degraded path after detected corruption: salvage the
/// allocator substrate, bless the damage (`release` + `reseal`), re-attach,
/// and count which keys survived.
fn salvage_and_probe<I: Index>(
    mut space: AddressSpace,
    model: &BTreeMap<u64, u64>,
    report: &mut BitflipReport,
) -> Result<()> {
    let id = space.pool_store().id_of(POOL)?;
    {
        let img = space.pool_store().peek(id)?;
        let salv = Region::salvage(img.data(), img.size());
        report.salvage.merge(&salv.stats());
    }
    space.pool_store_mut().release(id);
    space.pool_store_mut().reseal(id)?;
    let pool = match space.open_pool(POOL) {
        Ok(p) => p,
        // The flip hit the pool header itself; nothing is reachable.
        Err(_) => {
            report.lost_keys += model.len() as u64;
            return Ok(());
        }
    };
    let mut env = fresh_env(space, pool);
    for (k, v) in model {
        let got = catch_unwind(AssertUnwindSafe(|| -> Result<Option<u64>> {
            let desc = env.root(site!("faultsweep.flip-salvage", KnownReturn))?;
            let mut store = KvStore::<I>::open(desc);
            store.get(&mut env, *k)
        }));
        match got {
            Ok(Ok(Some(x))) if x == *v => report.recovered_keys += 1,
            _ => report.lost_keys += 1,
        }
    }
    Ok(())
}

fn bitflip_map<I: Index>(spec: &BitflipSpec) -> Result<BitflipReport> {
    let sseed = structure_seed(spec.seed, I::NAME);
    let keyspace = (spec.prepopulate * 2).max(4);
    let mut report = BitflipReport {
        benchmark: I::NAME,
        trials: spec.trials,
        detected: 0,
        silent_wrong: 0,
        clean: 0,
        recovered_keys: 0,
        lost_keys: 0,
        salvage: SalvageStats::default(),
        failures: Vec::new(),
    };

    for t in 0..spec.trials {
        let tseed = sseed ^ (t.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let mut space = AddressSpace::new(tseed);
        space.set_integrity(if spec.crc { IntegrityMode::Crc } else { IntegrityMode::Off });
        let (mut space, _, model) =
            populated::<KvStore<I>>(space, tseed, spec.prepopulate, keyspace)?;

        // Power off with retention errors queued for the off window.
        space.set_faults(
            FaultPlan::counting().with_bitflips(tseed ^ 0xf11b_f11b, spec.flips),
        );
        match crash_and_recover(&mut space, POOL) {
            Ok(rec) => {
                let mut env = fresh_env(space, rec.pool);
                match probe_map::<I>(&mut env, &model, keyspace) {
                    Probe::Clean => report.clean += 1,
                    Probe::Errored => report.detected += 1,
                    Probe::Wrong(n) => {
                        report.silent_wrong += 1;
                        if spec.crc {
                            report.failures.push(SweepFailure {
                                crash_point: t,
                                seed: spec.seed,
                                detail: format!(
                                    "CRC on, yet {n} wrong answers surfaced with no error"
                                ),
                            });
                        }
                    }
                }
            }
            Err(
                HeapError::MediaCorruption { .. }
                | HeapError::CorruptRegion(_)
                | HeapError::BadPoolHeader { .. },
            ) => {
                // Typed detection: the CRC sidecar at re-attach, or the
                // hardened allocator/header validation underneath it.
                report.detected += 1;
                salvage_and_probe::<I>(space, &model, &mut report)?;
            }
            Err(e) => {
                report.failures.push(SweepFailure {
                    crash_point: t,
                    seed: spec.seed,
                    detail: format!("power-off recovery failed unexpectedly: {e}"),
                });
            }
        }
    }
    Ok(report)
}

fn bitflip_ll(spec: &BitflipSpec) -> Result<BitflipReport> {
    let sseed = structure_seed(spec.seed, "LL");
    let mut report = BitflipReport {
        benchmark: "LL",
        trials: spec.trials,
        detected: 0,
        silent_wrong: 0,
        clean: 0,
        recovered_keys: 0,
        lost_keys: 0,
        salvage: SalvageStats::default(),
        failures: Vec::new(),
    };

    for t in 0..spec.trials {
        let tseed = sseed ^ (t.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let mut space = AddressSpace::new(tseed);
        space.set_integrity(if spec.crc { IntegrityMode::Crc } else { IntegrityMode::Off });
        // A list draws no keys, so it needs no key space.
        let (mut space, _, model) = populated::<LinkedList>(space, tseed, spec.prepopulate, 0)?;

        space.set_faults(
            FaultPlan::counting().with_bitflips(tseed ^ 0xf11b_f11b, spec.flips),
        );
        // Whole-structure accounting: a list either survives its probe or
        // its elements are written off together.
        let probe_list = |env: &mut ExecEnv<NullSink>| -> Probe {
            let r = catch_unwind(AssertUnwindSafe(|| -> Result<bool> {
                let desc = env.root(site!("faultsweep.flip-ll-probe", KnownReturn))?;
                let list = LinkedList::open(desc);
                list.validate(env)?;
                Ok(list.len(env)? == model.len() as u64 && list.iter_sum(env)? == pair_sum(&model))
            }));
            match r {
                Ok(Ok(true)) => Probe::Clean,
                Ok(Ok(false)) => Probe::Wrong(1),
                _ => Probe::Errored,
            }
        };
        match crash_and_recover(&mut space, POOL) {
            Ok(rec) => {
                let mut env = fresh_env(space, rec.pool);
                match probe_list(&mut env) {
                    Probe::Clean => report.clean += 1,
                    Probe::Errored => report.detected += 1,
                    Probe::Wrong(_) => {
                        report.silent_wrong += 1;
                        if spec.crc {
                            report.failures.push(SweepFailure {
                                crash_point: t,
                                seed: spec.seed,
                                detail: "CRC on, yet the list silently lost elements".into(),
                            });
                        }
                    }
                }
            }
            Err(
                HeapError::MediaCorruption { .. }
                | HeapError::CorruptRegion(_)
                | HeapError::BadPoolHeader { .. },
            ) => {
                report.detected += 1;
                let id = space.pool_store().id_of(POOL)?;
                {
                    let img = space.pool_store().peek(id)?;
                    let salv = Region::salvage(img.data(), img.size());
                    report.salvage.merge(&salv.stats());
                }
                space.pool_store_mut().release(id);
                space.pool_store_mut().reseal(id)?;
                match space.open_pool(POOL) {
                    Ok(pool) => {
                        let mut env = fresh_env(space, pool);
                        match probe_list(&mut env) {
                            Probe::Clean => report.recovered_keys += model.len() as u64,
                            _ => report.lost_keys += model.len() as u64,
                        }
                    }
                    Err(_) => report.lost_keys += model.len() as u64,
                }
            }
            Err(e) => {
                report.failures.push(SweepFailure {
                    crash_point: t,
                    seed: spec.seed,
                    detail: format!("power-off recovery failed unexpectedly: {e}"),
                });
            }
        }
    }
    Ok(report)
}

/// Runs the bit-flip retention campaign for one structure.
///
/// # Errors
///
/// Propagates setup failures (campaign findings land in
/// [`BitflipReport::failures`]).
pub fn bitflip_campaign(benchmark: Benchmark, spec: &BitflipSpec) -> Result<BitflipReport> {
    match benchmark {
        Benchmark::Ll => bitflip_ll(spec),
        Benchmark::Hash => bitflip_map::<HashMapIndex>(spec),
        Benchmark::Rb => bitflip_map::<RbTree>(spec),
        Benchmark::Splay => bitflip_map::<SplayTree>(spec),
        Benchmark::Avl => bitflip_map::<AvlTree>(spec),
        Benchmark::Sg => bitflip_map::<ScapegoatTree>(spec),
        Benchmark::Bplus => bitflip_map::<BPlusTree>(spec),
    }
}

/// Runs the bit-flip campaign for the paper's six structures.
///
/// # Errors
///
/// Propagates setup failures from any structure.
pub fn bitflip_all(spec: &BitflipSpec) -> Result<Vec<BitflipReport>> {
    Benchmark::ALL.iter().map(|b| bitflip_campaign(*b, spec)).collect()
}

// ---- dispatch --------------------------------------------------------------

/// Sweeps one structure; see the module docs for the oracle battery.
///
/// # Errors
///
/// Propagates setup failures (workload bugs, not crash-consistency
/// findings — those land in [`SweepReport::failures`]).
pub fn sweep_structure(benchmark: Benchmark, spec: &SweepSpec) -> Result<SweepReport> {
    fn go<S: Subject>(spec: &SweepSpec) -> Result<SweepReport> {
        sweep(S::NAME, &TxnSweep::<S>::prepare(spec)?, &spec.core)
    }
    match benchmark {
        Benchmark::Ll => go::<LinkedList>(spec),
        Benchmark::Hash => go::<KvStore<HashMapIndex>>(spec),
        Benchmark::Rb => go::<KvStore<RbTree>>(spec),
        Benchmark::Splay => go::<KvStore<SplayTree>>(spec),
        Benchmark::Avl => go::<KvStore<AvlTree>>(spec),
        Benchmark::Sg => go::<KvStore<ScapegoatTree>>(spec),
        Benchmark::Bplus => go::<KvStore<BPlusTree>>(spec),
    }
}

/// Sweeps the paper's six structures ([`Benchmark::ALL`]).
///
/// # Errors
///
/// Propagates setup failures from any structure.
pub fn sweep_all(spec: &SweepSpec) -> Result<Vec<SweepReport>> {
    Benchmark::ALL.iter().map(|b| sweep_structure(*b, spec)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_exhaustive_and_clean_for_rb() {
        let spec = SweepSpec::small(7);
        let r = sweep_structure(Benchmark::Rb, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "small scale sweeps every boundary");
        assert!(r.boundaries > 0);
        assert!(r.rollbacks > 0, "some crash points must tear a transaction");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn small_sweep_is_clean_for_ll() {
        let spec = SweepSpec::small(7);
        let r = sweep_structure(Benchmark::Ll, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn sweep_is_deterministic_under_a_fixed_seed() {
        let spec = SweepSpec::small(42);
        let a = sweep_structure(Benchmark::Hash, &spec).unwrap();
        let b = sweep_structure(Benchmark::Hash, &spec).unwrap();
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.tested, b.tested);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn torn_small_sweep_is_exhaustive_and_silent_free_for_rb() {
        let spec = SweepSpec::small(7).torn();
        let r = sweep_structure(Benchmark::Rb, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries, "small scale sweeps every boundary");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn torn_small_sweep_is_silent_free_for_ll() {
        let spec = SweepSpec::small(11).torn();
        let r = sweep_structure(Benchmark::Ll, &spec).unwrap();
        assert_eq!(r.tested, r.boundaries);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn bitflips_with_crc_never_go_silent() {
        let spec = BitflipSpec::small(9);
        let r = bitflip_campaign(Benchmark::Hash, &spec).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.silent_wrong, 0, "CRC must turn every flip into a typed error");
        assert!(r.detected > 0, "flips into resident pages must trip the page CRCs");
        assert_eq!(r.detected + r.clean, r.trials);
    }

    #[test]
    fn bitflip_salvage_accounts_for_every_model_key() {
        let spec = BitflipSpec::small(13);
        let r = bitflip_campaign(Benchmark::Rb, &spec).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        // Detected trials route through salvage; each accounts for all keys.
        assert!(
            r.detected == 0 || r.recovered_keys + r.lost_keys > 0,
            "detected trials must classify keys as recovered or lost"
        );
        assert!(r.detected == 0 || r.salvage.blocks_recovered > 0, "salvage finds intact blocks");
    }

    #[test]
    fn bitflips_without_crc_measure_but_never_fail_the_oracle() {
        let spec = BitflipSpec::small(9).crc_off();
        let r = bitflip_campaign(Benchmark::Hash, &spec).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.detected + r.clean + r.silent_wrong, r.trials);
    }

    #[test]
    fn sampled_sweep_respects_the_sample_budget() {
        let spec = SweepSpec::sampled(11, 24, 16);
        let r = sweep_structure(Benchmark::Avl, &spec).unwrap();
        assert!(r.tested <= r.boundaries);
        assert!(r.tested >= 2, "edges always covered");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }
}
