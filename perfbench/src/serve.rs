//! The served workloads: a loopback `utpr-serve` server driven by a
//! one-thread load generator over two connections, plus the layer probes
//! that need a server (PING-only phase, snapshot recovery, relaunch) and
//! the protocol decode probe.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use utpr_heap::{FlushModel, SharedPool};
use utpr_kv::rng::Rng;
use utpr_kv::workload::{key_of_index, KeyUniverse, Op, Workload};
use utpr_ptr::Mode;
use utpr_serve::{
    preload, preload_val, put_val, shard_of, Client, Decoder, DirectView, Request, Response,
    ServeConfig, ServeCounters, Server, ServerHandle,
};
use utpr_sim::Machine;

use crate::kv;
use crate::report::Report;
use crate::stats::{median, percentile, windowed, Tally};
use crate::trace::Tracer;

/// One served workload's shape. Every served workload is an open loop:
/// requests leave on a fixed schedule whatever the replies do, and
/// latency counts from the scheduled time.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Server shards (event-loop threads).
    pub shards: u32,
    /// Preloaded records; GETs draw zipfian ranks over them.
    pub records: u64,
    /// Client connections, all on one load thread.
    pub conns: usize,
    /// Aggregate requests per second.
    pub rate: f64,
    /// Share of GETs; the rest PUT fresh keys.
    pub read_fraction: f64,
}

/// Group commit with one shard (no forwarding), half of it writes of
/// fresh keys, at about a third of the measured closed-loop capacity.
pub const WRITE_OPEN: Shape = Shape {
    shards: 1,
    records: 20_000,
    conns: 2,
    rate: 20_000.0,
    read_fraction: 0.5,
};

/// Two shards (about half the ops cross), mostly reads.
pub const READ_OPEN: Shape = Shape {
    shards: 2,
    records: 20_000,
    conns: 2,
    rate: 10_000.0,
    read_fraction: 0.95,
};

/// The small server the in-process workload's traced run probes.
const PROBE: Shape = Shape {
    shards: 1,
    records: 2_000,
    conns: 2,
    rate: PING_RATE,
    read_fraction: 1.0,
};

/// Group-commit window of every server here.
const BATCH_WINDOW: usize = 16;

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// PING-only phase: rate and length.
const PING_RATE: f64 = 2_000.0;
const PING_SECS: f64 = 1.0;

/// Operations of the in-process replay of a served stream.
const REPLAY_OPS: usize = 50_000;

/// How long a phase may wait for outstanding replies after its end.
const DRAIN_NS: u64 = 5_000_000_000;

/// Request-byte recording cap for the decode probe.
const RECORD_CAP: usize = 4 << 20;

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// GET of a preloaded key.
    Get(u64),
    /// PUT of a fresh key (value [`put_val`]).
    Put(u64),
    /// PING.
    Ping,
}

impl WireOp {
    fn request(self, seed: u64) -> Request {
        match self {
            WireOp::Get(key) => Request::Get { key },
            WireOp::Put(key) => Request::Put {
                key,
                val: put_val(key, seed),
            },
            WireOp::Ping => Request::Ping,
        }
    }

    fn key(self) -> Option<u64> {
        match self {
            WireOp::Get(k) | WireOp::Put(k) => Some(k),
            WireOp::Ping => None,
        }
    }
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates each connection's requests for phase `phase`. GET keys are
/// zipfian over the preloaded records; PUT keys are fresh and disjoint
/// across connections and phases (index range `records + (slot << 24)`).
pub fn gen_ops(
    shape: &Shape,
    universe: &KeyUniverse,
    seed: u64,
    phase: u64,
    per_conn: usize,
) -> Vec<Vec<WireOp>> {
    (0..shape.conns as u64)
        .map(|c| {
            let slot = phase * shape.conns as u64 + c;
            let mut keys = universe.stream(mix(seed, 2 * slot));
            let mut rng = Rng::new(mix(seed, 2 * slot + 1));
            let mut inserts = 0u64;
            (0..per_conn)
                .map(|_| {
                    if rng.f64() < shape.read_fraction {
                        WireOp::Get(keys.next_key())
                    } else {
                        inserts += 1;
                        WireOp::Put(key_of_index(shape.records + (slot << 24) + inserts - 1))
                    }
                })
                .collect()
        })
        .collect()
}

fn per_conn(shape: &Shape, secs: f64) -> usize {
    (shape.rate * secs / shape.conns as f64).ceil() as usize + 1
}

fn config(shape: &Shape) -> ServeConfig {
    ServeConfig {
        shards: shape.shards,
        batch_window: BATCH_WINDOW,
        pool_bytes: 1 << 30,
        slab_bytes: 1 << 20,
        flush_model: FlushModel::Adr,
        seed: 42,
    }
}

/// What the load generator observed in one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// `(scheduled time s, latency µs from the scheduled time)` per reply.
    pub samples: Vec<(f64, f64)>,
    /// Reply time minus actual send time, µs.
    pub rtt_us: Vec<f64>,
    /// Actual send time minus scheduled time, µs (open loop).
    pub late_us: Vec<f64>,
    /// Correct replies.
    pub acked: u64,
    /// Keys of acknowledged PUTs.
    pub acked_puts: Vec<u64>,
    /// Phase length until the last reply, s.
    pub wall_s: f64,
    /// Request plus response bytes.
    pub bytes: u64,
    /// Requests whose key another shard owns than the connection's.
    pub fwd: u64,
    /// Requests sent.
    pub sent: u64,
    /// Request bytes as sent (when recording).
    pub recorded: Vec<u8>,
}

struct Flight {
    op: WireOp,
    req: u64,
    due: u64,
    sent: u64,
    enc: (u64, u64),
}

struct Wire {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    inflight: VecDeque<Flight>,
    ops: Vec<WireOp>,
    next: usize,
    shard: u32,
    dead: bool,
}

/// Checks one reply; `Err(true)` is a failed operation (error reply),
/// `Err(false)` a wrong answer.
fn check_reply(op: WireOp, resp: &Response) -> Result<(), bool> {
    match (op, resp) {
        (_, Response::Err(..)) => Err(true),
        (WireOp::Get(k), Response::Value(Some(v))) if *v == preload_val(k) => Ok(()),
        (WireOp::Put(_), Response::Done(None)) | (WireOp::Ping, Response::Pong) => Ok(()),
        _ => Err(false),
    }
}

/// A live server plus how many connections it has accepted (the acceptor
/// hands connection `n` to shard `n % shards`).
pub struct Live {
    handle: ServerHandle,
    conns: u64,
    shards: u32,
}

/// Runs one open-loop load phase: connection `c` sends its `k`-th op at
/// `(k × connections + c) / rate` seconds until `secs` have passed, then
/// the phase waits for the replies still owed.
///
/// # Errors
///
/// Connection-establishment failures. Mid-run socket deaths and error
/// replies are counted as failed operations in `tally`; wrong answers as
/// failed checks.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn drive(
    live: &mut Live,
    rate: f64,
    ops: Vec<Vec<WireOp>>,
    secs: f64,
    seed: u64,
    tr: &mut Tracer,
    record: bool,
    tally: &mut Tally,
) -> std::io::Result<Phase> {
    let conns = ops.len();
    let mut wires = Vec::with_capacity(conns);
    for ops in ops {
        let stream = TcpStream::connect(live.handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let shard = (live.conns % u64::from(live.shards)) as u32;
        live.conns += 1;
        wires.push(Wire {
            stream,
            dec: Decoder::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            ops,
            next: 0,
            shard,
            dead: false,
        });
    }
    let span = tr.open("serve.phase", 0, 0);
    let start = Instant::now();
    let base = tr.at(start);
    let now_ns = || start.elapsed().as_nanos() as u64;
    let deadline = (secs * 1e9) as u64;
    let mut out = Phase::default();
    let mut buf = vec![0u8; 64 << 10];
    let mut seq = u64::from(span.id()) << 32;
    let mut last_reply = 0u64;
    loop {
        let now = now_ns();
        let sending = now < deadline;
        let mut progressed = false;
        for (c, w) in wires.iter_mut().enumerate() {
            if w.dead {
                continue;
            }
            while sending && w.next < w.ops.len() {
                let due = ((w.next * conns + c) as f64 * 1e9 / rate) as u64;
                if due > now {
                    break;
                }
                let op = w.ops[w.next];
                w.next += 1;
                let traced = tr.sampled(seq);
                let e0 = if traced { tr.now() } else { 0 };
                let before = w.wbuf.len();
                op.request(seed).encode(&mut w.wbuf);
                let e1 = if traced { tr.now() } else { 0 };
                if record && out.recorded.len() < RECORD_CAP {
                    out.recorded.extend_from_slice(&w.wbuf[before..]);
                }
                out.bytes += (w.wbuf.len() - before) as u64;
                if op
                    .key()
                    .is_some_and(|k| shard_of(k, live.shards) != w.shard)
                {
                    out.fwd += 1;
                }
                w.inflight.push_back(Flight {
                    op,
                    req: seq,
                    due,
                    sent: now_ns(),
                    enc: (e0, e1),
                });
                seq += 1;
                out.sent += 1;
                progressed = true;
            }
            while !w.wbuf.is_empty() && !w.dead {
                match w.stream.write(&w.wbuf) {
                    Ok(0) => w.dead = true,
                    Ok(n) => {
                        w.wbuf.drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => w.dead = true,
                }
            }
        }
        for w in &mut wires {
            while !w.dead {
                match w.stream.read(&mut buf) {
                    Ok(0) => w.dead = true,
                    Ok(n) => {
                        out.bytes += n as u64;
                        w.dec.feed(&buf[..n]);
                        progressed = true;
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => w.dead = true,
                }
            }
            loop {
                let body = match w.dec.next_frame() {
                    Ok(Some(b)) => b,
                    Ok(None) => break,
                    Err(e) => {
                        tally.check(false, || format!("undecodable reply stream: {e}"));
                        w.dead = true;
                        break;
                    }
                };
                let done = now_ns();
                let Some(f) = w.inflight.pop_front() else {
                    tally.check(false, || "reply with no request in flight".into());
                    w.dead = true;
                    break;
                };
                let traced = tr.sampled(f.req);
                let d0 = if traced { tr.now() } else { 0 };
                let resp = Response::decode(body);
                let d1 = if traced { tr.now() } else { 0 };
                last_reply = done;
                match resp
                    .as_ref()
                    .map_err(|_| false)
                    .and_then(|r| check_reply(f.op, r))
                {
                    Ok(()) => {
                        out.acked += 1;
                        if let WireOp::Put(k) = f.op {
                            out.acked_puts.push(k);
                        }
                    }
                    Err(true) => tally.failed += 1,
                    Err(false) => tally.check(false, || format!("{:?} answered {resp:?}", f.op)),
                }
                out.samples
                    .push((f.due as f64 / 1e9, (done - f.due) as f64 / 1e3));
                out.rtt_us.push((done - f.sent) as f64 / 1e3);
                out.late_us.push(f.sent.saturating_sub(f.due) as f64 / 1e3);
                if traced {
                    let rid = tr.record(
                        "serve.request",
                        span.id(),
                        f.req,
                        base + f.sent,
                        base + done,
                    );
                    tr.record("client.encode", rid, f.req, f.enc.0, f.enc.1);
                    tr.record("client.decode", rid, f.req, d0, d1);
                }
            }
        }
        let exhausted = wires.iter().all(|w| w.dead || w.next == w.ops.len());
        let idle = wires
            .iter()
            .all(|w| w.dead || (w.inflight.is_empty() && w.wbuf.is_empty()));
        let now = now_ns();
        if idle && (!sending || exhausted) {
            break;
        }
        if now > deadline + DRAIN_NS {
            break;
        }
        if !progressed {
            let next_due = wires
                .iter()
                .enumerate()
                .filter(|(_, w)| sending && !w.dead && w.next < w.ops.len())
                .map(|(c, w)| ((w.next * conns + c) as f64 * 1e9 / rate) as u64)
                .min();
            let wait = next_due.map_or(1_000_000, |d| d.saturating_sub(now).min(1_000_000));
            wait_for(&wires, Duration::from_nanos(wait));
        }
    }
    // Requests still owed a reply when the phase gave up, or sent on a
    // connection that died, are lost acknowledgements.
    for w in &wires {
        tally.failed += w.inflight.len() as u64;
        tally.check(!w.dead, || "a connection died mid-phase".into());
    }
    tally.attempted += out.sent;
    out.wall_s = last_reply as f64 / 1e9;
    tr.close(span);
    Ok(out)
}

/// Sleeps until a socket is readable (or writable, if it has bytes
/// queued) or `timeout` passes.
#[cfg(target_os = "linux")]
fn wait_for(wires: &[Wire], timeout: Duration) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_short, c_void};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 1;
    const POLLOUT: c_short = 4;
    let mut fds: Vec<PollFd> = wires
        .iter()
        .filter(|w| !w.dead)
        .map(|w| PollFd {
            fd: w.stream.as_raw_fd(),
            events: if w.wbuf.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live array of `fds.len()` `struct pollfd`s
    // (same layout: int, short, short) that outlives the call; `ts` is a
    // valid `struct timespec` for x86-64/aarch64 Linux (two 64-bit
    // fields); a null signal mask leaves the mask unchanged. The result
    // is ignored: the caller re-reads every socket anyway.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_for(_: &[Wire], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(50)));
}

/// Launches a server and preloads it, timing both.
fn setup(shape: &Shape, tr: &mut Tracer, tally: &mut Tally) -> Result<(Live, f64, f64), String> {
    let span = tr.open("serve.launch", 0, 0);
    let t0 = Instant::now();
    let handle = Server::launch(&config(shape)).map_err(|e| format!("launch: {e}"))?;
    let launch_s = t0.elapsed().as_secs_f64();
    tr.close(span);
    let span = tr.open("serve.preload", 0, 0);
    let t1 = Instant::now();
    let acked = preload(handle.addr(), shape.records).map_err(|e| format!("preload: {e}"))?;
    let preload_s = t1.elapsed().as_secs_f64();
    tr.close(span);
    tally.check(acked == shape.records, || {
        format!("preload acked {acked} of {}", shape.records)
    });
    Ok((
        Live {
            handle,
            conns: 1,
            shards: shape.shards,
        },
        launch_s,
        preload_s,
    ))
}

/// Shuts a server down and audits its pool: every acknowledged PUT must
/// read back with its value, and the store must hold exactly the preload
/// plus those PUTs. Returns resident pool bytes per live record.
fn shutdown_and_audit(
    live: Live,
    shape: &Shape,
    acked_puts: &[u64],
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(ServeCounters, f64), String> {
    let pool: Arc<SharedPool> = Arc::clone(live.handle.pool());
    let span = tr.open("serve.shutdown", 0, 0);
    let (counters, crashed) = live.handle.shutdown();
    tr.close(span);
    tally.check(!crashed, || "server reported a crash".into());
    let mut view =
        DirectView::open(&pool, shape.shards).map_err(|e| format!("direct view: {e}"))?;
    let mut wrong = 0u64;
    for &k in acked_puts {
        if view.get(k).map_err(|e| format!("read-back: {e}"))? != Some(put_val(k, seed)) {
            wrong += 1;
        }
    }
    tally.check(wrong == 0, || {
        format!("{wrong} acknowledged PUTs did not read back")
    });
    if let Err(e) = view.validate() {
        tally.check(false, || format!("store invariants: {e}"));
    }
    let len = view.len().map_err(|e| format!("store walk: {e}"))?;
    let want = shape.records + acked_puts.len() as u64;
    tally.check(len == want, || {
        format!("store holds {len} records, expected {want}")
    });
    Ok((counters, pool.resident_bytes() as f64 / len.max(1) as f64))
}

fn delta(a: &ServeCounters, b: &ServeCounters) -> ServeCounters {
    ServeCounters {
        gets: b.gets - a.gets,
        puts: b.puts - a.puts,
        dels: b.dels - a.dels,
        scans: b.scans - a.scans,
        batch_frames: b.batch_frames - a.batch_frames,
        write_txns: b.write_txns - a.write_txns,
        read_chunks: b.read_chunks - a.read_chunks,
        fences_elided: b.fences_elided - a.fences_elided,
        lines_persisted: b.lines_persisted - a.lines_persisted,
        conns: b.conns - a.conns,
        proto_errors: b.proto_errors - a.proto_errors,
        pool_fences: b.pool_fences - a.pool_fences,
        pool_group_commits: b.pool_group_commits - a.pool_group_commits,
        pool_lines_drained: b.pool_lines_drained - a.pool_lines_drained,
    }
}

/// Completions per second of a phase.
fn ops_per_s(p: &Phase) -> f64 {
    p.acked as f64 / p.wall_s.max(1e-9)
}

/// End-to-end latency (best-decile windows) and throughput of a phase.
fn put_phase(rep: &mut Report, p: &Phase, secs: f64) {
    rep.put("ops_per_s", ops_per_s(p), "1/s");
    match windowed(&p.samples, secs) {
        Some(w) => {
            rep.put("p50_us", w.p50, "us");
            rep.put("p99_us", w.p99, "us");
            rep.put("serve.p999_us", w.p999, "us");
            rep.put("serve.worst_window_p99_us", w.worst_p99, "us");
        }
        None => rep.tally.check(false, || {
            format!("{} latency samples fill no window", p.samples.len())
        }),
    }
}

/// Persist traffic per write from server counter deltas.
fn put_persist(rep: &mut Report, d: &ServeCounters) {
    let writes = d.writes().max(1) as f64;
    rep.put("fences_per_write", d.pool_fences as f64 / writes, "count");
    rep.put(
        "lines_per_write",
        d.pool_lines_drained as f64 / writes,
        "count",
    );
}

/// Group-commit counts from server counter deltas.
fn put_server_layers(rep: &mut Report, d: &ServeCounters) {
    let writes = d.writes().max(1) as f64;
    rep.put(
        "serve.server.writes_per_txn",
        d.writes() as f64 / d.write_txns.max(1) as f64,
        "count",
    );
    rep.put(
        "serve.server.ops_per_chunk",
        d.ops() as f64 / (d.write_txns + d.read_chunks).max(1) as f64,
        "count",
    );
    rep.put(
        "serve.server.fences_elided_per_write",
        d.fences_elided as f64 / writes,
        "count",
    );
}

/// Routing share of a phase's requests.
fn put_route(rep: &mut Report, p: &Phase) {
    rep.put(
        "serve.route.fwd_frac",
        p.fwd as f64 / p.sent.max(1) as f64,
        "ratio",
    );
}

/// The served stream as an in-process workload: the preload plus the
/// first [`REPLAY_OPS`] requests, interleaved across connections.
fn as_workload(shape: &Shape, ops: &[Vec<WireOp>], seed: u64) -> Workload {
    let mut out = Vec::with_capacity(REPLAY_OPS);
    let mut i = 0;
    while out.len() < REPLAY_OPS && ops.iter().any(|c| i < c.len()) {
        for c in ops {
            match c.get(i) {
                Some(WireOp::Get(k)) => out.push(Op::Get(*k)),
                Some(WireOp::Put(k)) => out.push(Op::Set(*k, put_val(*k, seed))),
                _ => {}
            }
        }
        i += 1;
    }
    out.truncate(REPLAY_OPS);
    Workload {
        load_keys: (0..shape.records).map(key_of_index).collect(),
        ops: out,
    }
}

/// A PING-only phase: the event loop's reply path and idle wake-up,
/// with no store work.
fn ping_phase(
    live: &mut Live,
    seed: u64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Phase, String> {
    let n = (PING_RATE * PING_SECS / 2.0) as usize;
    let p = drive(
        live,
        PING_RATE,
        vec![vec![WireOp::Ping; n]; 2],
        PING_SECS,
        seed,
        tr,
        false,
        &mut rep.tally,
    )
    .map_err(|e| format!("ping phase: {e}"))?;
    if p.rtt_us.is_empty() {
        rep.tally.check(false, || "no PING replies".into());
    } else {
        rep.put("serve.ping_rtt_p50_us", percentile(&p.rtt_us, 0.5), "us");
    }
    Ok(p)
}

/// Recovery from a snapshot of the live pool: undo-log recovery, then a
/// relaunch over the recovered pool until its first correct reply.
fn snapshot_probe(
    live: &Live,
    shape: &Shape,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let snap = live.handle.pool().snapshot();
    let span = tr.open("serve.recover", 0, 0);
    let t0 = Instant::now();
    Server::recover(&snap).map_err(|e| format!("recover: {e}"))?;
    rep.put(
        "heap.txn.recover_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    tr.close(span);
    let span = tr.open("serve.launch_on", 0, 0);
    let t1 = Instant::now();
    let h = Server::launch_on(&config(shape), &snap).map_err(|e| format!("relaunch: {e}"))?;
    let key = key_of_index(0);
    let reply = Client::connect(h.addr()).and_then(|mut c| c.call(&Request::Get { key }));
    rep.put("serve.relaunch_ms", t1.elapsed().as_secs_f64() * 1e3, "ms");
    tr.close(span);
    let want = Response::Value(Some(preload_val(key)));
    rep.tally.check(matches!(&reply, Ok(r) if *r == want), || {
        format!("relaunched server answered {reply:?}")
    });
    let (_, crashed) = h.shutdown();
    rep.tally
        .check(!crashed, || "relaunched server crashed".into());
    Ok(())
}

/// Decodes recorded request bytes through the streaming `Decoder` and
/// `Request::decode`, fastest of five passes.
pub fn decode_probe(bytes: &[u8], tr: &mut Tracer, rep: &mut Report) {
    let span = tr.open("proto.decode", 0, 0);
    let (mut best, mut frames) = (f64::INFINITY, 0u64);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut d = Decoder::new();
        d.feed(bytes);
        let (mut n, mut bad) = (0u64, 0u64);
        while let Ok(Some(body)) = d.next_frame() {
            bad += u64::from(std::hint::black_box(Request::decode(body)).is_err());
            n += 1;
        }
        best = best.min(t0.elapsed().as_secs_f64());
        rep.tally.check(bad == 0 && d.buffered() == 0, || {
            format!(
                "decode probe: {bad} bad frames, {} bytes left",
                d.buffered()
            )
        });
        frames = n;
    }
    tr.close(span);
    rep.put(
        "serve.proto.decode_ns_per_frame",
        best * 1e9 / frames.max(1) as f64,
        "ns",
    );
}

/// The in-process stream as request frames, and the request plus
/// response bytes per operation it would put on the wire.
pub fn encode_kv_stream(w: &Workload) -> (Vec<u8>, f64) {
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    for op in &w.ops {
        match *op {
            Op::Get(key) => {
                Request::Get { key }.encode(&mut req);
                Response::Value(Some(key)).encode(&mut resp);
            }
            Op::Set(key, val) => {
                Request::Put { key, val }.encode(&mut req);
                Response::Done(None).encode(&mut resp);
            }
        }
    }
    let per_op = (req.len() + resp.len()) as f64 / w.ops.len().max(1) as f64;
    (req, per_op)
}

/// The server probes of the in-process workload's traced run: launch and
/// preload of a small server, its group-commit counts from the preload,
/// a PING-only phase, and snapshot recovery.
pub fn probe_server(seed: u64, tr: &mut Tracer, rep: &mut Report) {
    if let Err(e) = try_probe_server(seed, tr, rep) {
        rep.tally.check(false, || e);
    }
}

fn try_probe_server(seed: u64, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let (mut live, launch_s, preload_s) = setup(&PROBE, tr, &mut rep.tally)?;
    rep.put("serve.launch_s", launch_s, "s");
    rep.put("serve.preload_s", preload_s, "s");
    let d = live.handle.counters();
    let ping = ping_phase(&mut live, seed, tr, rep)?;
    rep.put(
        "serve.load.send_late_p99_us",
        percentile(&ping.late_us, 0.99),
        "us",
    );
    put_server_layers(rep, &d);
    put_route(rep, &ping);
    snapshot_probe(&live, &PROBE, tr, rep)?;
    shutdown_and_audit(live, &PROBE, &[], seed, tr, &mut rep.tally)?;
    Ok(())
}

/// A served workload. Untraced: [`SETUPS`] setups (the last one serves),
/// one phase of `secs`, audit, and the modelled cycles of the stream
/// replayed in-process. Traced: one setup, an untraced and a traced half
/// phase, the PING phase, snapshot recovery, audit, the in-process layer
/// probe and the decode probe.
///
/// # Errors
///
/// Launch, connection or audit failures.
pub fn workload(
    shape: &Shape,
    seed: u64,
    secs: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let phases = if tr.on() { 2 } else { 1 };
    let span = tr.open("input.generate", 0, 0);
    let t0 = Instant::now();
    let universe = KeyUniverse::new(shape.records);
    let n = per_conn(shape, secs / phases as f64);
    let mut inputs: Vec<_> = (0..phases)
        .map(|p| gen_ops(shape, &universe, seed, p, n))
        .collect();
    rep.put("kv.workload.gen_s", t0.elapsed().as_secs_f64(), "s");
    tr.close(span);
    let replay_w = as_workload(shape, &inputs[0], seed);

    if !tr.on() {
        let mut setups = Vec::new();
        let mut live = None;
        for _ in 0..SETUPS {
            let (l, launch_s, preload_s) = setup(shape, tr, &mut rep.tally)?;
            setups.push(launch_s + preload_s);
            if let Some(old) = live.replace(l) {
                shutdown_and_audit(old, shape, &[], seed, tr, &mut rep.tally)?;
            }
        }
        let mut live = live.expect("at least one setup");
        rep.put("setup_s", median(&setups), "s");
        let c0 = live.handle.counters();
        let p = drive(
            &mut live,
            shape.rate,
            inputs.remove(0),
            secs,
            seed,
            tr,
            false,
            &mut rep.tally,
        )
        .map_err(|e| format!("load: {e}"))?;
        let (c1, space) = shutdown_and_audit(live, shape, &p.acked_puts, seed, tr, &mut rep.tally)?;
        put_phase(rep, &p, secs);
        put_persist(rep, &delta(&c0, &c1));
        rep.put("space_bytes_per_record", space, "B");
        // The store the server runs (RbTree, Mode::Hw) on the Table IV
        // machine, replaying this workload's stream in-process.
        let r = kv::replay::<Machine>(&replay_w, Mode::Hw, tr, 0)
            .map_err(|e| format!("replay: {e}"))?;
        rep.tally
            .check(r.failed == 0 && r.summary.hits == r.summary.gets, || {
                format!("replay: {:?}, {} failed", r.summary, r.failed)
            });
        rep.put(
            "sim_cycles_per_op",
            r.cycles / replay_w.ops.len() as f64,
            "cycles",
        );
        return Ok(());
    }

    let (mut live, launch_s, preload_s) = setup(shape, tr, &mut rep.tally)?;
    rep.put("setup_s", launch_s + preload_s, "s");
    rep.put("serve.launch_s", launch_s, "s");
    rep.put("serve.preload_s", preload_s, "s");
    let half = secs / 2.0;
    let c0 = live.handle.counters();
    let mut quiet = Tracer::new(false);
    let base = drive(
        &mut live,
        shape.rate,
        inputs.remove(0),
        half,
        seed,
        &mut quiet,
        false,
        &mut rep.tally,
    )
    .map_err(|e| format!("load: {e}"))?;
    let c1 = live.handle.counters();
    let traced = drive(
        &mut live,
        shape.rate,
        inputs.remove(0),
        half,
        seed,
        tr,
        true,
        &mut rep.tally,
    )
    .map_err(|e| format!("load: {e}"))?;
    crate::put_overhead(rep, ops_per_s(&base), ops_per_s(&traced));
    put_phase(rep, &base, half);
    let d = delta(&c0, &c1);
    put_persist(rep, &d);
    put_server_layers(rep, &d);
    put_route(rep, &base);
    rep.put(
        "serve.proto.bytes_per_op",
        base.bytes as f64 / base.acked.max(1) as f64,
        "B",
    );
    rep.put(
        "serve.load.send_late_p99_us",
        percentile(&base.late_us, 0.99),
        "us",
    );
    ping_phase(&mut live, seed, tr, rep)?;
    snapshot_probe(&live, shape, tr, rep)?;
    let acked: Vec<u64> = base
        .acked_puts
        .iter()
        .chain(&traced.acked_puts)
        .copied()
        .collect();
    let (_, space) = shutdown_and_audit(live, shape, &acked, seed, tr, &mut rep.tally)?;
    rep.put("space_bytes_per_record", space, "B");

    kv::layer_probe(&replay_w, tr, rep).map_err(|e| format!("layer probe: {e}"))?;
    decode_probe(&traced.recorded, tr, rep);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked_against_the_generated_inputs() {
        let k = key_of_index(3);
        assert_eq!(
            check_reply(WireOp::Get(k), &Response::Value(Some(preload_val(k)))),
            Ok(())
        );
        // A corrupted expected value is a wrong answer, not a pass.
        assert_eq!(
            check_reply(WireOp::Get(k), &Response::Value(Some(preload_val(k) ^ 1))),
            Err(false)
        );
        assert_eq!(
            check_reply(WireOp::Get(k), &Response::Value(None)),
            Err(false)
        );
        assert_eq!(check_reply(WireOp::Put(k), &Response::Done(None)), Ok(()));
        assert_eq!(
            check_reply(WireOp::Put(k), &Response::Done(Some(1))),
            Err(false)
        );
        assert_eq!(check_reply(WireOp::Ping, &Response::Pong), Ok(()));
        let refused = Response::Err(utpr_serve::ErrCode::Internal, String::new());
        assert_eq!(check_reply(WireOp::Put(k), &refused), Err(true));
    }

    #[test]
    fn generated_puts_are_fresh_and_gets_hit_the_preload() {
        let shape = Shape {
            records: 500,
            ..READ_OPEN
        };
        let u = KeyUniverse::new(shape.records);
        let preload: std::collections::HashSet<u64> =
            (0..shape.records).map(key_of_index).collect();
        let mut seen = std::collections::HashSet::new();
        for phase in 0..2 {
            let ops = gen_ops(&shape, &u, 9, phase, 4_000);
            assert_eq!(
                ops,
                gen_ops(&shape, &u, 9, phase, 4_000),
                "same seed, same inputs"
            );
            for op in ops.iter().flatten() {
                match *op {
                    WireOp::Get(k) => assert!(preload.contains(&k)),
                    WireOp::Put(k) => {
                        assert!(!preload.contains(&k) && seen.insert(k), "PUT key reused")
                    }
                    WireOp::Ping => unreachable!(),
                }
            }
        }
        assert!(seen.len() > 500, "5% of 16k ops are PUTs");
    }

    #[test]
    fn a_short_served_phase_is_correct_and_audited() {
        let shape = Shape {
            records: 300,
            ..READ_OPEN
        };
        let mut rep = Report::default();
        let mut tr = Tracer::new(true);
        let (mut live, _, _) = setup(&shape, &mut tr, &mut rep.tally).unwrap();
        let u = KeyUniverse::new(shape.records);
        let ops = gen_ops(&shape, &u, 1, 0, 200);
        let p = drive(
            &mut live,
            4_000.0,
            ops,
            0.1,
            1,
            &mut tr,
            true,
            &mut rep.tally,
        )
        .unwrap();
        assert_eq!(p.acked, p.sent);
        assert!(p.sent > 300, "{} sent", p.sent);
        shutdown_and_audit(live, &shape, &p.acked_puts, 1, &mut tr, &mut rep.tally).unwrap();
        assert!(rep.tally.correct(), "{:?}", rep.tally);
        assert!(tr.spans().iter().any(|s| s.name == "serve.request"));
        decode_probe(&p.recorded, &mut tr, &mut rep);
        assert!(rep.get("serve.proto.decode_ns_per_frame").unwrap() > 0.0);

        // An acknowledged PUT that does not read back fails the audit.
        let mut bad = Report::default();
        let (live, _, _) = setup(&shape, &mut tr, &mut bad.tally).unwrap();
        shutdown_and_audit(
            live,
            &shape,
            &[key_of_index(1 << 40)],
            1,
            &mut tr,
            &mut bad.tally,
        )
        .unwrap();
        assert!(bad.tally.checks_failed >= 1);
    }
}
