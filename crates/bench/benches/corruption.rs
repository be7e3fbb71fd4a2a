//! Media-fault campaign: torn-write crash sweeps, bit-flip retention
//! trials, CRC write-path overhead, and scrub throughput.
//!
//! Three questions, one harness:
//!
//! 1. **Torn sweeps** — under the ADR flush model, crash every structure
//!    at every durable-write boundary with the in-flight write landing
//!    partially and unfenced lines draining word-by-lottery. The oracle
//!    is *no silent wrong answer*: after recovery each structure
//!    validates and matches its transaction-prefix model, or recovery
//!    surfaces a typed corruption error.
//! 2. **Bit-flip campaigns** — seeded retention errors injected while the
//!    "machine" is off. The CRC arm must detect every observable flip at
//!    re-attach (`MediaCorruption`), then quarantine → salvage → reseal
//!    and report recovered vs lost keys. The CRC-off arm measures the
//!    silent-wrong rate the integrity layer exists to prevent.
//! 3. **Cost** — wall-clock overhead of the CRC write path (dirty-page
//!    tracking) on the Fig. 11 RB workload, and scrub throughput over a
//!    sealed pool.
//!
//! Scale via `UTPR_BENCH_SCALE=small|medium|paper`; replay any failure
//! with `UTPR_QC_SEED=<seed>`. Exits nonzero when any oracle fails — the
//! campaign is a verification harness as much as a benchmark.

use std::time::Instant;
use utpr_bench::par;
use utpr_bench::report::{BenchReport, Json};
use utpr_heap::{AddressSpace, IntegrityMode};
use utpr_kv::workload::{generate, WorkloadSpec};
use utpr_kv::{
    bitflip_campaign, sweep_structure, Benchmark, BitflipReport, BitflipSpec, KvStore, Op,
    SweepReport, SweepSpec,
};
use utpr_ds::RbTree;
use utpr_ptr::{ExecEnv, Mode, NullSink};

fn torn_spec(seed: u64) -> SweepSpec {
    match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => SweepSpec::small(seed).torn(),
        Ok("medium") => SweepSpec::sampled(seed, 32, 64).torn(),
        _ => SweepSpec::sampled(seed, 64, 128).torn(),
    }
}

fn flip_spec(seed: u64) -> BitflipSpec {
    match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => BitflipSpec::small(seed),
        Ok("medium") => BitflipSpec { prepopulate: 64, flips: 4, trials: 16, seed, crc: true },
        _ => BitflipSpec { prepopulate: 128, flips: 6, trials: 32, seed, crc: true },
    }
}

fn torn_json(r: &SweepReport) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("torn_sweep".into())),
        ("benchmark", Json::Str(r.benchmark.to_string())),
        ("crash_points", Json::U64(r.boundaries)),
        ("tested", Json::U64(r.tested)),
        ("rollbacks", Json::U64(r.rollbacks)),
        ("detected", Json::U64(r.detected)),
        ("failures", Json::U64(r.failures.len() as u64)),
    ])
}

fn flip_json(r: &BitflipReport, crc: bool) -> Json {
    let observable = r.trials - r.clean;
    let detection_rate =
        if observable == 0 { 1.0 } else { r.detected as f64 / observable as f64 };
    Json::obj(vec![
        ("kind", Json::Str("bitflip".into())),
        ("benchmark", Json::Str(r.benchmark.to_string())),
        ("crc", Json::Bool(crc)),
        ("trials", Json::U64(r.trials)),
        ("detected", Json::U64(r.detected)),
        ("silent_wrong", Json::U64(r.silent_wrong)),
        ("clean", Json::U64(r.clean)),
        ("detection_rate", Json::F64(detection_rate)),
        ("recovered_keys", Json::U64(r.recovered_keys)),
        ("lost_keys", Json::U64(r.lost_keys)),
        ("salvaged_blocks", Json::U64(r.salvage.blocks_recovered)),
        ("salvage_intact_bytes", Json::U64(r.salvage.intact_bytes)),
        ("salvage_lost_bytes", Json::U64(r.salvage.lost_bytes)),
        ("failures", Json::U64(r.failures.len() as u64)),
    ])
}

/// Runs the Fig. 11 RB workload on a plain (unsimulated) env and returns
/// the measured wall seconds — the write path is the only variable, so
/// the CRC-on/off delta isolates the dirty-tracking cost.
fn rb_wall_seconds(spec: &WorkloadSpec, integrity: IntegrityMode, seed: u64) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..3 {
        let mut space = AddressSpace::new(seed ^ rep);
        space.set_integrity(integrity);
        let pool = space.create_pool("corruption-bench", 64 << 20).expect("pool");
        let mut env: ExecEnv<NullSink> =
            ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
        let w = generate(spec);
        let mut store: KvStore<RbTree> = KvStore::create(&mut env).expect("create");
        store.load(&mut env, &w).expect("load");
        let t0 = Instant::now();
        for op in &w.ops {
            match op {
                Op::Get(k) => {
                    store.get(&mut env, *k).expect("get");
                }
                Op::Set(k, v) => {
                    store.set(&mut env, *k, *v).expect("set");
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Seals a populated pool and times a full scrub pass; returns
/// (MB scanned, MB/s).
fn scrub_throughput(spec: &WorkloadSpec, seed: u64) -> (f64, f64) {
    let mut space = AddressSpace::new(seed);
    space.set_integrity(IntegrityMode::Crc);
    let pool = space.create_pool("scrub-bench", 64 << 20).expect("pool");
    let mut env: ExecEnv<NullSink> = ExecEnv::builder(space).mode(Mode::Hw).pool(pool).build();
    let w = generate(spec);
    let mut store: KvStore<RbTree> = KvStore::create(&mut env).expect("create");
    store.load(&mut env, &w).expect("load");
    let (mut space, _, _) = env.into_parts();
    space.restart(); // quiesce: seals every resident page
    let id = space.pool_store().id_of("scrub-bench").expect("id");
    let t0 = Instant::now();
    let scrub = space.pool_store_mut().scrub(id).expect("scrub");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(scrub.corrupt_page.is_none(), "pristine pool must scrub clean");
    let mb = scrub.bytes_scanned as f64 / (1024.0 * 1024.0);
    (mb, mb / secs)
}

fn main() {
    let t0 = Instant::now();
    let seed = utpr_qc::runner::base_seed();
    let torn = torn_spec(seed);
    let flips = flip_spec(seed);
    let wl = match std::env::var("UTPR_BENCH_SCALE").as_deref() {
        Ok("small") => WorkloadSpec::small(),
        _ => WorkloadSpec { records: 5_000, operations: 20_000, read_fraction: 0.95, seed: 42 },
    };

    // Fan the (structure, campaign) grid: torn sweep + two bitflip arms
    // per structure.
    #[derive(Clone, Copy)]
    enum Job {
        Torn(Benchmark),
        Flip(Benchmark, bool),
    }
    let grid: Vec<Job> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| [Job::Torn(b), Job::Flip(b, true), Job::Flip(b, false)])
        .collect();

    enum Out {
        Torn(SweepReport),
        Flip(BitflipReport, bool),
    }
    let outs: Vec<Out> = par::par_map_auto(&grid, |_, job| match *job {
        Job::Torn(b) => Out::Torn(sweep_structure(b, &torn).expect("torn sweep setup")),
        Job::Flip(b, crc) => {
            let s = if crc { flips } else { flips.crc_off() };
            Out::Flip(bitflip_campaign(b, &s).expect("bitflip setup"), crc)
        }
    });

    let mut failures = 0usize;
    let mut torn_table =
        utpr_bench::Table::new(&["bench", "points", "tested", "rollbacks", "detected", "failures"]);
    let mut flip_table = utpr_bench::Table::new(&[
        "bench", "crc", "trials", "detected", "silent", "recovered", "lost", "failures",
    ]);
    let mut records = Vec::new();
    for out in &outs {
        match out {
            Out::Torn(r) => {
                torn_table.row(vec![
                    r.benchmark.to_string(),
                    r.boundaries.to_string(),
                    r.tested.to_string(),
                    r.rollbacks.to_string(),
                    r.detected.to_string(),
                    r.failures.len().to_string(),
                ]);
                failures += r.failures.len();
                for f in &r.failures {
                    eprintln!("FAIL torn {}: {f}", r.benchmark);
                }
                records.push(torn_json(r));
            }
            Out::Flip(r, crc) => {
                flip_table.row(vec![
                    r.benchmark.to_string(),
                    crc.to_string(),
                    r.trials.to_string(),
                    r.detected.to_string(),
                    r.silent_wrong.to_string(),
                    r.recovered_keys.to_string(),
                    r.lost_keys.to_string(),
                    r.failures.len().to_string(),
                ]);
                failures += r.failures.len();
                for f in &r.failures {
                    eprintln!("FAIL bitflip {} (crc={crc}): {f}", r.benchmark);
                }
                records.push(flip_json(r, *crc));
            }
        }
    }
    println!("\n=== Torn-write crash sweep (ADR drain, seed {seed}) ===");
    println!("{}", torn_table.render());
    println!("=== Bit-flip retention campaign (seed {seed}) ===");
    println!("{}", flip_table.render());

    // CRC write-path overhead on the Fig. 11 RB workload.
    let t_off = rb_wall_seconds(&wl, IntegrityMode::Off, seed ^ 0xc0c0);
    let t_crc = rb_wall_seconds(&wl, IntegrityMode::Crc, seed ^ 0xc0c0);
    let overhead = t_crc / t_off - 1.0;
    println!(
        "CRC write-path overhead (RB, {} ops): {:.2}% ({:.3}s vs {:.3}s)",
        wl.operations,
        overhead * 100.0,
        t_crc,
        t_off
    );

    let (scrub_mb, scrub_mbps) = scrub_throughput(&wl, seed ^ 0x5c4b);
    println!("Scrub throughput: {scrub_mb:.1} MB sealed, {scrub_mbps:.0} MB/s");

    let mut report = BenchReport::new("corruption", par::jobs(), t0.elapsed());
    report.set_extra("seed", Json::U64(seed));
    report.set_extra("total_failures", Json::U64(failures as u64));
    report.set_extra("crc_overhead_frac", Json::F64(overhead));
    report.set_extra("crc_wall_s", Json::F64(t_crc));
    report.set_extra("crc_off_wall_s", Json::F64(t_off));
    report.set_extra("scrub_mb", Json::F64(scrub_mb));
    report.set_extra("scrub_mb_per_s", Json::F64(scrub_mbps));
    for r in records {
        report.push_record(r);
    }
    report.write();

    if failures > 0 {
        eprintln!("{failures} media-fault oracle failure(s) — replay with UTPR_QC_SEED={seed}");
        std::process::exit(1);
    }
}
