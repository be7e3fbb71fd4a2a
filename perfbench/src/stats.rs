//! The benchmark's estimators and its failure accounting.
//!
//! Wall-clock numbers on a shared host are only slowed down by noise,
//! never sped up, and the noise comes in bursts: vCPU stalls, wake-up
//! delays, neighbours' cache traffic. The estimators keep the fast side
//! of repeated work: the fastest composite of equal rounds for in-process
//! throughput ([`Fastest`]), and the best decile of equal time windows
//! for served latency ([`windowed`]). Both hide periodic stalls by
//! design; the worst window and the whole-run p99.9 are kept as
//! diagnostics so the stalls stay visible.

use utpr_qc::bench::nearest_rank;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-percentile of unsorted samples.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `(0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q)
}

/// Samples a window needs so that its nearest-rank `q`-percentile has at
/// least ten samples beyond it.
pub fn min_window_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// Windowed latency summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Best-decile window p50.
    pub p50: f64,
    /// Best-decile window p99.
    pub p99: f64,
    /// The worst window's p99 (diagnostic).
    pub worst_p99: f64,
    /// Whole-run p99.9 (diagnostic).
    pub p999: f64,
    /// Windows that qualified.
    pub windows: usize,
}

/// Which window is reported: the 10th percentile of windows, ranked best
/// first.
const BEST_WINDOW_Q: f64 = 0.10;

/// At most this many windows.
const MAX_WINDOWS: usize = 512;

/// Splits `(t, latency)` samples into equal windows of `t` over
/// `[0, span)` and reports the best-decile window's p50 and p99: the 10th
/// percentile, lowest first, over windows of each window's own value.
///
/// A host stall inflates the percentiles of the window it falls in. On a
/// shared host that stalls in most windows, the median window measures
/// the host (one closed-loop p99 spread 55 % over ten runs); the best-decile
/// window measures the server in the windows the host spared.
///
/// The window count is chosen so that a window holds on average 1.25 ×
/// [`min_window_samples`]`(0.99)`; a window that still falls short (a
/// throughput dip) is skipped rather than allowed to report a p99 with
/// fewer than ten samples beyond it. Samples with `t` outside the span
/// are clamped into the edge windows.
///
/// Returns `None` when no window qualifies.
pub fn windowed(samples: &[(f64, f64)], span: f64) -> Option<Windowed> {
    let need = min_window_samples(0.99);
    if samples.len() < need || span <= 0.0 {
        return None;
    }
    let w = (samples.len() * 4 / (5 * need)).clamp(1, MAX_WINDOWS);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); w];
    for &(t, lat) in samples {
        let i = ((t / span) * w as f64).floor();
        let i = if i.is_finite() {
            (i.max(0.0) as usize).min(w - 1)
        } else {
            0
        };
        buckets[i].push(lat);
    }
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for b in &mut buckets {
        if b.len() < need {
            continue;
        }
        b.sort_by(f64::total_cmp);
        p50s.push(nearest_rank(b, 0.50));
        p99s.push(nearest_rank(b, 0.99));
    }
    if p99s.is_empty() {
        return None;
    }
    let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
    Some(Windowed {
        p50: percentile(&p50s, BEST_WINDOW_Q),
        p99: percentile(&p99s, BEST_WINDOW_Q),
        worst_p99: p99s.iter().copied().fold(f64::MIN, f64::max),
        p999: percentile(&all, 0.999),
        windows: p99s.len(),
    })
}

/// Element-wise fastest times over rounds of identical work, each round
/// timed in the same pieces (chunks or single operations). Host noise
/// only ever slows a piece down, so a stall spoils the piece it hits
/// instead of the whole round; the sum of the minima is the round as it
/// runs with no interference.
#[derive(Clone, Debug, Default)]
pub struct Fastest {
    mins: Vec<f64>,
}

impl Fastest {
    /// Folds in one round's piece times.
    ///
    /// # Panics
    ///
    /// Panics if the round is cut into a different number of pieces.
    pub fn add(&mut self, times: &[f64]) {
        if self.mins.is_empty() {
            self.mins = times.to_vec();
            return;
        }
        assert_eq!(
            self.mins.len(),
            times.len(),
            "rounds cut into different pieces"
        );
        for (m, t) in self.mins.iter_mut().zip(times) {
            *m = m.min(*t);
        }
    }

    /// Each piece's fastest time.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// The fastest composite round.
    pub fn total(&self) -> f64 {
        self.mins.iter().sum()
    }
}

/// Operations attempted and failed, plus output-check failures. A run is
/// correct only when no check failed and no operation failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: error replies, dead connections, lost acks.
    pub failed: u64,
    /// Human-readable descriptions of failed output checks (first few).
    pub check_failures: Vec<String>,
    /// Total failed output checks.
    pub checks_failed: u64,
}

impl Tally {
    /// Records an output check; `what` is evaluated only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed += 1;
            if self.check_failures.len() < 8 {
                self.check_failures.push(what());
            }
        }
    }

    /// Whether the run produced correct outputs with no failed operation.
    pub fn correct(&self) -> bool {
        self.checks_failed == 0 && self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_window_needs_ten_samples_beyond() {
        assert_eq!(min_window_samples(0.99), 1000);
        assert_eq!(min_window_samples(0.5), 20);
        // One window of exactly 1000 samples 1..=1000: p99 is the 990th
        // value, leaving 10 samples above it.
        let s: Vec<(f64, f64)> = (1..=1000).map(|i| (0.5, f64::from(i))).collect();
        let w = windowed(&s, 1.0).unwrap();
        assert_eq!(w.windows, 1);
        assert_eq!(w.p99, 990.0);
        assert_eq!(w.p50, 500.0);
        assert_eq!(s.iter().filter(|x| x.1 > w.p99).count(), 10);
    }

    #[test]
    fn short_windows_are_skipped_not_trusted() {
        assert!(windowed(&[(0.1, 5.0); 999], 1.0).is_none());
        // 4000 samples → two windows; the second holds only 500, so it
        // is skipped and its huge latencies cannot set p99.
        let mut s: Vec<(f64, f64)> = (0..3500).map(|i| (0.1, f64::from(i % 100))).collect();
        s.extend((0..500).map(|_| (0.9, 1e6)));
        let w = windowed(&s, 1.0).unwrap();
        assert_eq!(w.windows, 1);
        assert_eq!(w.p99, 98.0);
        assert_eq!(w.p999, 1e6, "the whole-run tail still shows the stall");
    }

    #[test]
    fn stalled_windows_move_the_worst_window_not_the_reported_values() {
        // 20 windows of 1300 samples each; all but windows 12, 13, 14,
        // 16, 17 and 18 stall 50x.
        let mut s = Vec::new();
        for win in 0..20 {
            let stalled = win < 12 || win % 4 == 3;
            for i in 0..1300 {
                let t = (f64::from(win) + 0.5) / 20.0;
                let base = f64::from(i % 100) + 1.0;
                s.push((t, if stalled { base * 50.0 } else { base }));
            }
        }
        let w = windowed(&s, 1.0).unwrap();
        assert_eq!(w.windows, 20);
        assert_eq!((w.p50, w.p99), (50.0, 99.0));
        assert_eq!(w.worst_p99, 99.0 * 50.0);
        assert_eq!(w.p999, 100.0 * 50.0, "the whole-run tail shows the stalls");
    }

    #[test]
    fn the_fastest_composite_round_takes_each_pieces_fastest_time() {
        // Three rounds of four 1 s pieces, each stalled in another piece.
        let mut f = Fastest::default();
        for r in [
            [5.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 9.0, 1.0],
            [1.0, 1.2, 1.0, 3.0],
        ] {
            f.add(&r);
        }
        assert_eq!(f.mins(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(f.total(), 4.0, "faster than every whole round (8, 12, 6.2)");
    }

    #[test]
    fn failures_and_checks_make_a_run_incorrect() {
        let mut t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        assert!(t.correct());
        t.check(true, || unreachable!("passing checks are not described"));
        assert!(t.correct());
        t.failed = 1;
        assert!(!t.correct(), "a failed op fails the run");
        let mut u = Tally {
            attempted: 10,
            ..Tally::default()
        };
        u.check(1 + 1 == 3, || "arithmetic".into());
        assert!(!u.correct(), "a failed check fails the run");
        assert!(
            !Tally::default().correct(),
            "nothing attempted is not a pass"
        );
    }
}
