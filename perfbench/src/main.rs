//! The utpr benchmark: three workloads driven through the public APIs of
//! `utpr-kv`, `utpr-serve`, `utpr-heap`, `utpr-ptr` and `utpr-sim`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-sw-readlatest|serve-write-open|serve-read-open|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). The exit
//! code is 1 when an output check or an operation failed. See README.md
//! for the workloads, the metrics and their measured spread.

mod kv;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::{self_times, Tracer};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["kv-sw-readlatest", "serve-write-open", "serve-read-open"];

/// End-to-end metrics, reported untraced.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("sim_cycles_per_op", "cycles"),
    ("fences_per_write", "count"),
    ("lines_per_write", "count"),
    ("space_bytes_per_record", "B"),
];

/// Per-layer metrics, reported traced (followed by the self times of
/// [`SELF_TIME_SPANS`]).
const PER_LAYER: &[(&str, &str)] = &[
    ("kv.workload.gen_s", "s"),
    ("kv.store.load_s", "s"),
    ("serve.launch_s", "s"),
    ("serve.preload_s", "s"),
    ("uptr.dynamic_checks_per_op", "count"),
    ("uptr.checks_elided_per_op", "count"),
    ("uptr.conversions_per_op", "count"),
    ("ds.ptr_loads_per_op", "count"),
    ("sim.cycles_per_op", "cycles"),
    ("sim.l2_misses_per_op", "count"),
    ("sim.l3_misses_per_op", "count"),
    ("sim.tlb_walks_per_op", "count"),
    ("sim.branch_mispredicts_per_op", "count"),
    ("sim.sw_conversions_per_op", "count"),
    ("sim.polb_accesses_per_op", "count"),
    ("sim.valb_accesses_per_op", "count"),
    ("heap.lookaside.spolb_hit_rate", "ratio"),
    ("heap.lookaside.svalb_hit_rate", "ratio"),
    ("sim.host_ns_per_op", "ns"),
    ("uptr.host_ns_per_op", "ns"),
    ("serve.server.writes_per_txn", "count"),
    ("serve.server.ops_per_chunk", "count"),
    ("serve.server.fences_elided_per_write", "count"),
    ("serve.proto.decode_ns_per_frame", "ns"),
    ("serve.proto.bytes_per_op", "B"),
    ("serve.ping_rtt_p50_us", "us"),
    ("serve.route.fwd_frac", "ratio"),
    ("serve.load.send_late_p99_us", "us"),
    ("heap.txn.recover_ms", "ms"),
    ("serve.relaunch_ms", "ms"),
    ("serve.p999_us", "us"),
    ("serve.worst_window_p99_us", "us"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_ns_per_op", "ns"),
    ("trace.spans", "count"),
];

/// Spans whose mean self time per span the traced run reports as
/// `trace.self_us.<name>`. Every traced run records each of them.
const SELF_TIME_SPANS: [&str; 15] = [
    "input.generate",
    "kv.round",
    "kv.load",
    "kv.get",
    "kv.set",
    "serve.launch",
    "serve.preload",
    "serve.phase",
    "serve.request",
    "client.encode",
    "client.decode",
    "serve.shutdown",
    "serve.recover",
    "serve.launch_on",
    "proto.decode",
];

/// Tracing overhead: the traced minus the untraced throughput, and the
/// same difference as time per operation.
pub fn put_overhead(rep: &mut Report, untraced_ops_per_s: f64, traced_ops_per_s: f64) {
    rep.put(
        "trace.overhead_ops_per_s",
        traced_ops_per_s - untraced_ops_per_s,
        "1/s",
    );
    rep.put(
        "trace.overhead_ns_per_op",
        1e9 / traced_ops_per_s - 1e9 / untraced_ops_per_s,
        "ns",
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {val}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.tsv"))
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut tr = Tracer::new(trace);
    let mut rep = Report::default();
    let res = match workload {
        "kv-sw-readlatest" => {
            kv::workload(seed, seconds, &mut tr, &mut rep).map_err(|e| e.to_string())
        }
        "serve-write-open" => serve::workload(&serve::WRITE_OPEN, seed, seconds, &mut tr, &mut rep),
        "serve-read-open" => serve::workload(&serve::READ_OPEN, seed, seconds, &mut tr, &mut rep),
        _ => unreachable!("workload names are validated by parse"),
    };
    if let Err(e) = res {
        rep.tally.check(false, || format!("{workload}: {e}"));
    }
    if !trace {
        rep.select(END_TO_END);
        return rep;
    }
    let selfs = self_times(tr.spans());
    let mut names: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect();
    for s in SELF_TIME_SPANS {
        let (count, ns) = selfs.get(s).copied().unwrap_or((0, 0));
        rep.tally
            .check(count > 0, || format!("no {s} span was recorded"));
        let name = format!("trace.self_us.{s}");
        rep.put(name.clone(), ns as f64 / 1e3 / count.max(1) as f64, "us");
        names.push((name, "us"));
    }
    rep.put("trace.spans", tr.spans().len() as f64, "count");
    let path = spans_path(workload, seed);
    if let Err(e) = tr.write(&path) {
        rep.tally
            .check(false, || format!("writing {}: {e}", path.display()));
    }
    let names: Vec<(&str, &'static str)> = names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    rep.select(&names);
    rep
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for w in names {
        let rep = run(w, args.seed, args.seconds, args.trace);
        for f in &rep.tally.check_failures {
            eprintln!("perfbench: {w}: check failed: {f}");
        }
        if args.workload == "all" {
            println!("# {w}");
            for (n, v, u) in rep.metrics() {
                println!("{n:<40} {v:>16.4} {u}");
            }
        }
        println!("{}", rep.json());
        all_correct &= rep.tally.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_validated() {
        let a = args("--workload serve-read-open --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-read-open", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload all --seed x --seconds 1").is_err());
        assert!(args("--workload all --seed 1 --seconds 0").is_err());
        assert!(args("--workload all --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload all --seed 1").is_err());
    }

    #[test]
    fn metric_names_and_units_meet_the_output_contract() {
        let names: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| (*n).to_string())
            .chain(SELF_TIME_SPANS.iter().map(|s| format!("trace.self_us.{s}")))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.clone()), "{n} twice");
        }
        assert!(names.len() <= 128);
    }
}
