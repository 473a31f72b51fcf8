//! The arithmetic behind every reported number: percentiles, the
//! slice-median throughput, and span self times.

use std::time::Instant;

/// Nearest-rank percentile of ascending `sorted`; `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Equal-op-count slices the measured window is cut into.
pub const SLICES: usize = 20;

/// Every timing is computed per slice and reported at this quantile of the
/// slices, counted from the fast end. Interference on a shared host is
/// one-sided (a neighbour can only slow a slice down) and comes in bursts of
/// a few seconds that hit anything from none to half of a run, so the median
/// over slices moved 8-12 % between identical runs where this quiet-slice
/// value moved 3-5 %. It is not the best slice: two of twenty are faster.
pub const QUIET: f64 = 0.1;

/// The quiet-slice value of per-slice latencies (lower is faster).
pub fn quiet_low(per_slice: Vec<f64>) -> f64 {
    percentile(&sorted(per_slice), QUIET)
}

/// The quiet-slice value of per-slice rates (higher is faster).
pub fn quiet_high(per_slice: Vec<f64>) -> f64 {
    percentile(&sorted(per_slice), 1.0 - QUIET)
}

/// Ops/s of each slice between consecutive `(ops done, when)` marks.
pub fn slice_rates(marks: &[(usize, Instant)]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) as f64 / w[1].1.duration_since(w[0].1).as_secs_f64())
        .collect()
}

/// One traced interval. `parent` indexes the span that caused it; spans of
/// one timed unit share `op_id`. Times are ns since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of each span: its duration minus its direct children's. The
/// children here are replays run after the parent returned, so only their
/// durations nest, not their timestamps; a child set that outlasts its
/// parent leaves the parent a self time of 0.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur());
        }
    }
    own
}

/// The layer a span belongs to: the part of its name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quiet_slice_value_ignores_stalled_slices() {
        let t0 = Instant::now();
        let mut at = t0;
        // 100 ops per slice; six of twenty slices stall to a tenth of the rate.
        let mut marks = vec![(0, t0)];
        for slice in 0..SLICES {
            at += Duration::from_millis(if slice % 3 == 0 && slice < 18 {
                1000
            } else {
                100
            });
            marks.push(((slice + 1) * 100, at));
        }
        let rates = slice_rates(&marks);
        assert_eq!(rates.len(), SLICES);
        assert!((quiet_high(rates.clone()) - 1000.0).abs() < 1e-6);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        let latencies: Vec<f64> = rates.iter().map(|r| 1e9 / r).collect();
        assert!((quiet_low(latencies) - 1e6).abs() < 1e-3);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, dur, parent| Span {
            name,
            start_ns: 0,
            end_ns: dur,
            parent,
            op_id: 0,
        };
        let spans = [
            span("core.get", 100, None),
            span("rpc.echo", 60, Some(0)),
            span("fabric.pingpong", 40, Some(1)),
            span("databox.codec", 5, Some(1)),
            span("containers.cuckoo", 10, Some(0)),
            // A replay that outlasts its parent clamps the parent at 0.
            span("core.put", 20, None),
            span("rpc.echo", 30, Some(5)),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 40, 5, 10, 0, 30]);
        assert_eq!(layer_of("containers.cuckoo"), "containers");
    }
}
