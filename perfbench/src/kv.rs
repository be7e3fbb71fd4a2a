//! In-process replays of a KV operation stream on fresh stores, and the
//! `kv-sw-readlatest` workload built from them.
//!
//! The workload is the paper's Fig. 11 setting: `KvStore<RbTree>` in
//! `Mode::Sw` feeding the Table IV `Machine`, 10 k records then 100 k
//! operations (95 % read-latest GET, 5 % insert). Each round replays the
//! same stream on a fresh store, so every round must report the same
//! checksum and the same simulated cycles.
//!
//! Wall-clock times are the fastest composite round, normalized to a
//! reference host speed. Each round is timed per operation and per
//! 100-operation chunk; the fastest time of each piece across rounds is
//! kept (a stall spoils one piece, not the round). That alone still
//! leaves whole processes 10-20 % apart on a shared host, so every
//! round is also paired with a reference kernel run right before and
//! after it: the same stream on std's `BTreeMap`, code this repository
//! does not own. Times are scaled by `REF_NS_PER_OP × (records + ops) /
//! fastest reference run`, i.e. reported as they would read on a host
//! where the reference runs at [`REF_NS_PER_OP`]. Over 8 processes the
//! normalized throughput ranged over 4 % where the raw one ranged over
//! 18 %.

use std::collections::BTreeMap;
use std::time::Instant;

use utpr_ds::RbTree;
use utpr_heap::{AddressSpace, FlushModel, HeapError, TransStats};
use utpr_kv::workload::{generate, Op, Workload, WorkloadSpec};
use utpr_kv::{KvStore, RunSummary};
use utpr_ptr::{ExecEnv, Mode, NullSink, PtrStats, TimingSink};
use utpr_sim::{Machine, RangeEntry, SimConfig, SimStats};

use crate::report::Report;
use crate::stats::{median, percentile, Fastest};
use crate::trace::Tracer;

/// Nominal reference-kernel cost per operation (load and stream ops) of
/// the host the wall-clock numbers are normalized to.
pub const REF_NS_PER_OP: f64 = 100.0;

/// Pool size for one replay; the paper stream needs under 2 MiB.
const POOL_BYTES: u64 = 64 << 20;

/// Rounds below this count leave the fastest composite round unsteady.
const MIN_ROUNDS: usize = 5;

/// Operations per timed chunk of a round.
const CHUNK: usize = 100;

/// A timing sink the replays can be built over.
pub trait Sink: TimingSink + Sized {
    /// Builds the sink for a space with these pool attachments.
    fn make(ranges: Vec<RangeEntry>) -> Self;
    /// Modelled cycles so far.
    fn cycles(&self) -> f64 {
        0.0
    }
    /// Modelled machine counters.
    fn sim(&self) -> SimStats {
        SimStats::default()
    }
    /// Starts the measured phase (keeps warm caches).
    fn reset(&mut self) {}
}

impl Sink for NullSink {
    fn make(_: Vec<RangeEntry>) -> Self {
        NullSink
    }
}

impl Sink for Machine {
    fn make(ranges: Vec<RangeEntry>) -> Self {
        let mut m = Machine::new(SimConfig::table_iv());
        m.set_pool_ranges(ranges);
        m
    }
    fn cycles(&self) -> f64 {
        Machine::cycles(self)
    }
    fn sim(&self) -> SimStats {
        self.stats()
    }
    fn reset(&mut self) {
        self.reset_measurement();
    }
}

/// What one replay of a stream on a fresh store observed. Times are raw
/// host seconds.
#[derive(Debug, Default)]
pub struct Replay {
    /// Environment creation plus store load.
    pub setup_s: f64,
    /// `KvStore::load` alone.
    pub load_s: f64,
    /// Each operation's time.
    pub op_s: Vec<f64>,
    /// The reference kernel's time right before and right after.
    pub ref_s: [f64; 2],
    /// Outcome counters of the stream.
    pub summary: RunSummary,
    /// Operations that returned an error.
    pub failed: u64,
    /// Modelled cycles of the stream.
    pub cycles: f64,
    /// Pointer-layer counters of the stream.
    pub ptr: PtrStats,
    /// Machine counters of the stream.
    pub sim: SimStats,
    /// Translation-lookaside counters of the stream.
    pub trans: TransStats,
    /// Fences issued by the stream.
    pub fences: u64,
    /// Lines flushed by the stream.
    pub lines: u64,
    /// Resident bytes after the stream.
    pub resident: u64,
    /// Live records after the stream.
    pub len: u64,
    /// The reference kernel's checksum of the stream.
    pub ref_checksum: u64,
}

fn fresh<S: Sink>(mode: Mode) -> Result<ExecEnv<S>, HeapError> {
    let mut space = AddressSpace::new(0xBEEF);
    space.set_flush_model(FlushModel::Adr);
    let pool = space.create_pool("bench", POOL_BYTES)?;
    let ranges = space
        .attachments()
        .iter()
        .map(|a| RangeEntry {
            base: a.base.raw(),
            size: a.size,
            pool: a.pool.raw(),
        })
        .collect();
    Ok(ExecEnv::builder(space)
        .mode(mode)
        .pool(pool)
        .sink(S::make(ranges))
        .build())
}

/// The host-speed reference: `w` replayed on std's `BTreeMap` with the
/// values `KvStore::load` writes. Returns seconds and the GET checksum,
/// which must equal the store's.
pub fn reference_kernel(w: &Workload) -> (f64, u64) {
    let t0 = Instant::now();
    let mut m = BTreeMap::new();
    for &k in &w.load_keys {
        m.insert(k, k ^ 0x5a5a_5a5a_5a5a_5a5a);
    }
    let mut sum = 0u64;
    for op in &w.ops {
        match *op {
            Op::Get(k) => sum = sum.wrapping_add(m.get(&k).copied().unwrap_or(0)),
            Op::Set(k, v) => {
                m.insert(k, v);
            }
        }
    }
    let sum = std::hint::black_box(sum);
    (t0.elapsed().as_secs_f64(), sum)
}

/// Replays `w` on a fresh store: loads its records, then runs its stream
/// with one span per sampled operation under a `kv.round` span. The
/// reference kernel runs right before and after.
///
/// # Errors
///
/// Pool or store creation failures. Failed operations are counted, not
/// returned.
pub fn replay<S: Sink>(
    w: &Workload,
    mode: Mode,
    tr: &mut Tracer,
    parent: u32,
) -> Result<Replay, HeapError> {
    let (ref_before, ref_checksum) = reference_kernel(w);
    let round = tr.open("kv.round", parent, 0);
    let t0 = Instant::now();
    let mut env = fresh::<S>(mode)?;
    let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
    let load = tr.open("kv.load", round.id(), 0);
    let tl = Instant::now();
    store.load(&mut env, w)?;
    let load_s = tl.elapsed().as_secs_f64();
    tr.close(load);
    let setup_s = t0.elapsed().as_secs_f64();

    env.sink_mut().reset();
    env.reset_stats();
    env.space().reset_trans_stats();
    let (f0, l0) = (env.space().fence_count(), env.space().lines_flushed());
    let mut r = Replay {
        ref_checksum,
        op_s: Vec::with_capacity(w.ops.len()),
        ..Replay::default()
    };
    let mut tp = Instant::now();
    for (i, op) in w.ops.iter().enumerate() {
        let traced = tr.sampled(i as u64);
        let s0 = if traced { tr.now() } else { 0 };
        // The same per-operation client charge `KvStore::run` makes.
        env.frame_traffic(8, 4, 24);
        let (name, res) = match *op {
            Op::Get(k) => {
                r.summary.gets += 1;
                let res = store.get(&mut env, k);
                if let Ok(Some(v)) = res {
                    r.summary.hits += 1;
                    r.summary.checksum = r.summary.checksum.wrapping_add(v);
                }
                ("kv.get", res.map(|_| ()))
            }
            Op::Set(k, v) => {
                r.summary.sets += 1;
                ("kv.set", store.set(&mut env, k, v).map(|_| ()))
            }
        };
        r.failed += u64::from(res.is_err());
        if traced {
            let s1 = tr.now();
            tr.record(name, round.id(), i as u64, s0, s1);
        }
        let t = Instant::now();
        r.op_s.push((t - tp).as_secs_f64());
        tp = t;
    }
    tr.close(round);
    let (ref_after, _) = reference_kernel(w);
    r.ref_s = [ref_before, ref_after];
    r.setup_s = setup_s;
    r.load_s = load_s;
    r.cycles = env.sink().cycles();
    r.sim = env.sink().sim();
    r.ptr = env.stats();
    r.trans = env.space().trans_stats();
    r.fences = env.space().fence_count() - f0;
    r.lines = env.space().lines_flushed() - l0;
    r.resident = env.space().resident_bytes();
    r.len = store.len(&mut env)?;
    Ok(r)
}

/// The reference answer: the library's own `KvStore::run` over a
/// volatile build (§VII-B soundness: every mode computes the same
/// result).
///
/// # Errors
///
/// Store failures.
pub fn reference(w: &Workload) -> Result<RunSummary, HeapError> {
    let mut env = fresh::<NullSink>(Mode::Volatile)?;
    let mut store: KvStore<RbTree> = KvStore::create(&mut env)?;
    store.load(&mut env, w)?;
    store.run(&mut env, w)
}

/// Fails `rep` unless `got` matches the reference summary of `w` and the
/// `BTreeMap` reference kernel's checksum.
pub fn check_against(rep: &mut Report, what: &str, got: &Replay, want: &RunSummary, w: &Workload) {
    rep.tally.check(got.failed == 0, || {
        format!("{what}: {} operations failed", got.failed)
    });
    rep.tally.check(got.summary == *want, || {
        format!("{what}: {:?} != reference {want:?}", got.summary)
    });
    rep.tally.check(got.ref_checksum == want.checksum, || {
        format!(
            "{what}: BTreeMap checksum {:#x} != reference {:#x}",
            got.ref_checksum, want.checksum
        )
    });
    let gets = w.ops.iter().filter(|o| matches!(o, Op::Get(_))).count() as u64;
    rep.tally.check(got.summary.hits == gets, || {
        format!("{what}: {} of {gets} GETs hit", got.summary.hits)
    });
    let live = w.load_keys.len() as u64 + got.summary.sets;
    rep.tally.check(got.len == live, || {
        format!("{what}: {} live records, expected {live}", got.len)
    });
}

/// Rounds of identical work: the first round in full, and the fastest
/// composite timings normalized to the reference host.
struct Rounds {
    first: Replay,
    /// The stream, seconds.
    run_s: f64,
    /// Each operation's fastest time, seconds.
    op_s: Vec<f64>,
    /// Median setup, seconds.
    setup_s: f64,
    /// `KvStore::load` in the first round, seconds.
    load_s: f64,
    /// The slowest round's p99 operation time, seconds (diagnostic).
    worst_p99_s: f64,
}

/// Replays `w` in `mode` for `secs` (at least `min_rounds` times), checks
/// every round against the first, and keeps the fastest composite round.
fn rounds<S: Sink>(
    w: &Workload,
    mode: Mode,
    min_rounds: usize,
    secs: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Rounds, HeapError> {
    let phase = tr.open("kv.rounds", 0, 0);
    let t0 = Instant::now();
    let mut first: Option<Replay> = None;
    let (mut chunks, mut ops) = (Fastest::default(), Fastest::default());
    let (mut ref_s, mut setups, mut worst) = (f64::INFINITY, Vec::new(), 0.0f64);
    while setups.len() < min_rounds || t0.elapsed().as_secs_f64() < secs {
        let r = replay::<S>(w, mode, tr, phase.id())?;
        chunks.add(
            &r.op_s
                .chunks(CHUNK)
                .map(|c| c.iter().sum())
                .collect::<Vec<f64>>(),
        );
        ops.add(&r.op_s);
        ref_s = ref_s.min(r.ref_s[0]).min(r.ref_s[1]);
        setups.push(r.setup_s);
        worst = worst.max(percentile(&r.op_s, 0.99));
        rep.tally.attempted += w.ops.len() as u64;
        rep.tally.failed += r.failed;
        match &first {
            None => first = Some(r),
            Some(f) => {
                let n = setups.len() - 1;
                rep.tally.check(r.summary == f.summary, || {
                    format!("round {n} checksum differs from round 0")
                });
                rep.tally
                    .check(r.cycles.to_bits() == f.cycles.to_bits(), || {
                        format!(
                            "round {n} cycles {} != round 0 cycles {}",
                            r.cycles, f.cycles
                        )
                    });
            }
        }
    }
    tr.close(phase);
    let first = first.expect("at least one round");
    let norm = REF_NS_PER_OP * 1e-9 * (w.load_keys.len() + w.ops.len()) as f64 / ref_s;
    Ok(Rounds {
        run_s: chunks.total() * norm,
        op_s: ops.mins().iter().map(|t| t * norm).collect(),
        setup_s: median(&setups) * norm,
        load_s: first.load_s * norm,
        worst_p99_s: worst * norm,
        first,
    })
}

/// The paper's stream for `seed`.
pub fn paper_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        ..WorkloadSpec::paper()
    }
}

/// Per-layer counts of a Sw + Machine replay of `w`, and the host cost of
/// the simulator and of software UPR checks from paired replays: Machine
/// vs NullSink (both Sw), and Sw vs Volatile (both NullSink).
///
/// # Errors
///
/// Store failures.
pub fn layer_probe(w: &Workload, tr: &mut Tracer, rep: &mut Report) -> Result<(), HeapError> {
    let probe = tr.open("probe.replay", 0, 0);
    let machine = rounds::<Machine>(w, Mode::Sw, 3, 0.0, tr, rep)?;
    let sw_null = rounds::<NullSink>(w, Mode::Sw, 3, 0.0, tr, rep)?.run_s;
    let volatile = rounds::<NullSink>(w, Mode::Volatile, 3, 0.0, tr, rep)?.run_s;
    tr.close(probe);
    let (machine_s, load_s, machine) = (machine.run_s, machine.load_s, machine.first);
    rep.tally.check(
        machine.failed == 0 && machine.summary.hits == machine.summary.gets,
        || {
            format!(
                "layer probe replay: {:?}, {} failed",
                machine.summary, machine.failed
            )
        },
    );
    let ops = w.ops.len() as f64;
    let gets = machine.summary.gets.max(1) as f64;
    let (p, s) = (&machine.ptr, &machine.sim);
    rep.put(
        "uptr.dynamic_checks_per_op",
        p.dynamic_checks as f64 / ops,
        "count",
    );
    rep.put(
        "uptr.checks_elided_per_op",
        p.checks_elided as f64 / ops,
        "count",
    );
    rep.put(
        "uptr.conversions_per_op",
        (p.abs_to_rel + p.rel_to_abs) as f64 / ops,
        "count",
    );
    rep.put("ds.ptr_loads_per_op", p.ptr_loads as f64 / gets, "count");
    rep.put("sim.cycles_per_op", machine.cycles / ops, "cycles");
    rep.put("sim.l2_misses_per_op", s.l2_misses as f64 / ops, "count");
    rep.put("sim.l3_misses_per_op", s.l3_misses as f64 / ops, "count");
    rep.put("sim.tlb_walks_per_op", s.tlb_walks as f64 / ops, "count");
    rep.put(
        "sim.branch_mispredicts_per_op",
        s.branch_mispredicts as f64 / ops,
        "count",
    );
    rep.put(
        "sim.sw_conversions_per_op",
        s.sw_conversions as f64 / ops,
        "count",
    );
    rep.put(
        "sim.polb_accesses_per_op",
        s.polb_accesses as f64 / ops,
        "count",
    );
    rep.put(
        "sim.valb_accesses_per_op",
        s.valb_accesses as f64 / ops,
        "count",
    );
    rep.put(
        "heap.lookaside.spolb_hit_rate",
        machine.trans.spolb_hit_rate(),
        "ratio",
    );
    rep.put(
        "heap.lookaside.svalb_hit_rate",
        machine.trans.svalb_hit_rate(),
        "ratio",
    );
    rep.put(
        "sim.host_ns_per_op",
        (machine_s - sw_null) * 1e9 / ops,
        "ns",
    );
    rep.put(
        "uptr.host_ns_per_op",
        (sw_null - volatile) * 1e9 / ops,
        "ns",
    );
    rep.put("kv.store.load_s", load_s, "s");
    Ok(())
}

/// Puts the end-to-end metrics of a set of rounds.
fn end_to_end(w: &Workload, rs: &Rounds, rep: &mut Report) {
    rep.put("setup_s", rs.setup_s, "s");
    rep.put("ops_per_s", w.ops.len() as f64 / rs.run_s, "1/s");
    rep.put("p50_us", percentile(&rs.op_s, 0.50) * 1e6, "us");
    rep.put("p99_us", percentile(&rs.op_s, 0.99) * 1e6, "us");
    rep.put("serve.p999_us", percentile(&rs.op_s, 0.999) * 1e6, "us");
    rep.put("serve.worst_window_p99_us", rs.worst_p99_s * 1e6, "us");
    let first = &rs.first;
    rep.put(
        "sim_cycles_per_op",
        first.cycles / w.ops.len() as f64,
        "cycles",
    );
    let sets = first.summary.sets.max(1) as f64;
    rep.put("fences_per_write", first.fences as f64 / sets, "count");
    rep.put("lines_per_write", first.lines as f64 / sets, "count");
    rep.put(
        "space_bytes_per_record",
        first.resident as f64 / first.len.max(1) as f64,
        "B",
    );
}

/// The `kv-sw-readlatest` workload. Untraced, it measures rounds for
/// `secs`. Traced, it measures an untraced and a traced half, reports
/// their difference as the tracing overhead, and runs the layer probes.
///
/// # Errors
///
/// Pool or store creation failures.
pub fn workload(seed: u64, secs: f64, tr: &mut Tracer, rep: &mut Report) -> Result<(), HeapError> {
    let gen = tr.open("input.generate", 0, 0);
    let tg = Instant::now();
    let w = generate(&paper_spec(seed));
    rep.put("kv.workload.gen_s", tg.elapsed().as_secs_f64(), "s");
    tr.close(gen);

    let want = reference(&w)?;
    if !tr.on() {
        let rs = rounds::<Machine>(&w, Mode::Sw, MIN_ROUNDS, secs, tr, rep)?;
        check_against(rep, "Sw round 0", &rs.first, &want, &w);
        end_to_end(&w, &rs, rep);
        return Ok(());
    }
    // Traced: the untraced half gives the baseline the overhead is
    // measured against; spans are recorded only in the second half.
    let mut quiet = Tracer::new(false);
    let base = rounds::<Machine>(&w, Mode::Sw, MIN_ROUNDS, secs / 2.0, &mut quiet, rep)?;
    let traced = rounds::<Machine>(&w, Mode::Sw, MIN_ROUNDS, secs / 2.0, tr, rep)?;
    check_against(rep, "Sw round 0", &base.first, &want, &w);
    check_against(rep, "traced Sw round 0", &traced.first, &want, &w);
    let ops = w.ops.len() as f64;
    crate::put_overhead(rep, ops / base.run_s, ops / traced.run_s);
    end_to_end(&w, &base, rep);
    layer_probe(&w, tr, rep)?;
    let (bytes, per_op) = crate::serve::encode_kv_stream(&w);
    rep.put("serve.proto.bytes_per_op", per_op, "B");
    crate::serve::decode_probe(&bytes, tr, rep);
    crate::serve::probe_server(seed, tr, rep);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        generate(&WorkloadSpec {
            records: 300,
            operations: 2_000,
            read_fraction: 0.95,
            seed: 5,
        })
    }

    #[test]
    fn replays_repeat_and_match_the_reference() {
        let w = tiny();
        let mut tr = Tracer::new(false);
        let a = replay::<Machine>(&w, Mode::Sw, &mut tr, 0).unwrap();
        let b = replay::<Machine>(&w, Mode::Sw, &mut tr, 0).unwrap();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        assert!(a.cycles > 0.0 && a.op_s.len() == w.ops.len());
        let mut rep = Report::default();
        rep.tally.attempted = 1;
        check_against(&mut rep, "sw", &a, &reference(&w).unwrap(), &w);
        assert!(rep.tally.correct(), "{:?}", rep.tally);
    }

    #[test]
    fn a_corrupted_expected_value_fails_the_run() {
        let w = tiny();
        let got = replay::<NullSink>(&w, Mode::Sw, &mut Tracer::new(false), 0).unwrap();
        let mut want = reference(&w).unwrap();
        want.checksum ^= 1;
        let mut rep = Report::default();
        rep.tally.attempted = 1;
        check_against(&mut rep, "sw", &got, &want, &w);
        assert!(!rep.tally.correct());
        // Both the store's and the BTreeMap reference's answers disagree.
        assert_eq!(rep.tally.checks_failed, 2);
    }

    #[test]
    fn the_reference_kernel_computes_the_store_checksum() {
        let w = tiny();
        assert_eq!(reference_kernel(&w).1, reference(&w).unwrap().checksum);
    }
}
