//! The crash-campaign driver every boundary sweep runs on.
//!
//! A sweep crashes a workload at each durable-write boundary (or a
//! seeded sample of them), recovers, and audits the recovered image. The
//! workloads differ in what they run and what they check; the loop that
//! sequences them is the same, and it lives here once:
//!
//! 1. **census** — one run with the fault gate counting sizes the
//!    boundary space;
//! 2. **point selection** — [`utpr_heap::select_points`] over that
//!    census, exhaustive up to [`SweepCore::exhaustive_limit`], else
//!    [`SweepCore::samples`] seeded points;
//! 3. **armed run** per point — a run that completes, or dies of a
//!    non-crash error, is a failure before recovery is even tried;
//! 4. **audit** — the workload recovers the crashed image and applies
//!    its own oracles ([`Workload::audit`]).
//!
//! Each workload supplies the three parts the driver cannot know: its
//! base image (built by its constructor — the *prepare* step), its run
//! under the gate ([`Workload::run`]), and its audit. The driver owns the
//! verdicts, the counts, and the replay line every [`SweepFailure`]
//! prints: `crash point K (replay with UTPR_QC_SEED=S)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use utpr_heap::{select_points, HeapError};

/// Result alias.
pub type Result<T> = std::result::Result<T, HeapError>;

/// The part every sweep spec shares: which crash points to test, and the
/// master seed the workload, its schedule, and the sampling derive from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepCore {
    /// Boundary counts up to this are swept exhaustively.
    pub exhaustive_limit: u64,
    /// Seeded sample size above the exhaustive limit.
    pub samples: u64,
    /// Master seed (set `UTPR_QC_SEED` to this to replay).
    pub seed: u64,
}

impl SweepCore {
    /// Every boundary is tested.
    #[must_use]
    pub fn exhaustive(seed: u64) -> SweepCore {
        SweepCore {
            exhaustive_limit: u64::MAX,
            samples: 0,
            seed,
        }
    }

    /// `samples` seeded boundaries are tested (the first and last always
    /// among them).
    #[must_use]
    pub fn sampled(seed: u64, samples: u64) -> SweepCore {
        SweepCore {
            exhaustive_limit: 0,
            samples,
            seed,
        }
    }
}

/// One crash point that did not recover cleanly.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Boundary index the gate was armed at.
    pub crash_point: u64,
    /// The sweep's master seed (set `UTPR_QC_SEED` to this to replay).
    pub seed: u64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash point {} (replay with UTPR_QC_SEED={}): {}",
            self.crash_point, self.seed, self.detail
        )
    }
}

/// What one sweep produced.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Name of the swept structure.
    pub benchmark: &'static str,
    /// Durable-write boundaries the workload crosses.
    pub boundaries: u64,
    /// Crash points actually tested (== `boundaries` when exhaustive).
    pub tested: u64,
    /// Crash points that cut work mid-flight: recovery rolled back a
    /// transaction, or a lock-free history was left with a pending
    /// operation.
    pub rollbacks: u64,
    /// Crash points where recovery surfaced a typed corruption error
    /// (torn flavor only — detected damage, not a silent wrong answer).
    pub detected: u64,
    /// Crash points that failed an oracle.
    pub failures: Vec<SweepFailure>,
}

/// How one run of a workload ended.
pub(crate) enum End {
    /// Every operation ran; the gate never tripped.
    Completed,
    /// The gate tripped: the machine died at the armed boundary.
    Crashed,
    /// A non-crash error killed the run.
    Died(HeapError),
}

impl End {
    /// Classifies the error, if any, that stopped a run.
    pub(crate) fn of(err: Option<HeapError>) -> End {
        match err {
            None => End::Completed,
            Some(HeapError::CrashInjected { .. }) => End::Crashed,
            Some(e) => End::Died(e),
        }
    }
}

/// One run of a workload on a fresh copy of its base image.
pub(crate) struct Run<Image, Seen> {
    /// The image the run left behind (what recovery starts from).
    pub image: Image,
    /// What the run observed: a committed prefix or an operation history.
    pub seen: Seen,
    /// Durable writes the gate counted.
    pub writes: u64,
    /// How the run ended.
    pub end: End,
}

/// What an audit concluded about one recovered crash point.
pub(crate) enum Verdict {
    /// Every oracle held; `cut` when the crash cut work mid-flight.
    Recovered { cut: bool },
    /// Recovery surfaced a typed corruption error (detected damage).
    Detected,
}

/// A crash-sweep workload. Its constructor prepares the base image; the
/// driver sequences the rest.
pub(crate) trait Workload {
    /// A trial's copy of the base image.
    type Image;
    /// What a run observed.
    type Seen;

    /// Runs the workload on a fresh copy of the base image, with the
    /// fault gate counting (`crash_at == None`: the census run) or armed
    /// at boundary `k`.
    fn run(&self, crash_at: Option<u64>) -> Result<Run<Self::Image, Self::Seen>>;

    /// Recovers a crashed run and checks the workload's oracles; `Err` is
    /// the failure detail.
    fn audit(
        &self,
        k: u64,
        run: Run<Self::Image, Self::Seen>,
    ) -> std::result::Result<Verdict, String>;
}

/// Sweeps `workload`'s crash boundaries as `core` selects them.
///
/// # Errors
///
/// Propagates a failed census run (a setup bug, not a crash-consistency
/// finding — those land in [`SweepReport::failures`]).
pub(crate) fn sweep<W: Workload>(
    benchmark: &'static str,
    workload: &W,
    core: &SweepCore,
) -> Result<SweepReport> {
    let census = workload.run(None)?;
    if let End::Died(e) = census.end {
        return Err(e);
    }
    let points = select_points(
        census.writes,
        core.exhaustive_limit,
        core.samples,
        core.seed,
    );
    let mut report = SweepReport {
        benchmark,
        boundaries: census.writes,
        tested: points.len() as u64,
        rollbacks: 0,
        detected: 0,
        failures: Vec::new(),
    };
    for k in points {
        let verdict = match workload.run(Some(k)) {
            Err(e) => Err(format!("harness error: {e}")),
            Ok(run) => match run.end {
                End::Completed => Err("armed run completed without crashing".into()),
                End::Died(ref e) => Err(format!("armed run died of a non-crash error: {e}")),
                End::Crashed => workload.audit(k, run),
            },
        };
        match verdict {
            Ok(Verdict::Recovered { cut }) => report.rollbacks += u64::from(cut),
            Ok(Verdict::Detected) => report.detected += 1,
            Err(detail) => {
                report.failures.push(SweepFailure {
                    crash_point: k,
                    seed: core.seed,
                    detail,
                });
            }
        }
    }
    Ok(report)
}

/// Runs a structure's invariant validator (oracle 1 of every audit): its
/// node count, or a failure detail when it errors or panics.
pub(crate) fn validated(check: impl FnOnce() -> Result<u64>) -> std::result::Result<u64, String> {
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(Ok(n)) => Ok(n),
        Ok(Err(e)) => Err(format!("validator errored: {e}")),
        Err(panic) => Err(format!("invariant violated: {}", panic_message(&*panic))),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".into()
    }
}
