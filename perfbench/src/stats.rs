//! Order statistics and the span self-time aggregation.

use pardec_obs::{Event, EventKind};
use std::collections::BTreeMap;

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        Summary {
            n: sorted.len(),
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.5),
            p75: quantile(&sorted, 0.75),
        }
    }
}

/// Linearly interpolated quantile of a sorted sample (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// How many of `n` sorted samples lie at or below the nearest-rank
/// percentile `per_mille / 10` (integer arithmetic: `0.999 * 10000` rounds up
/// past 9990 in floating point).
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000)
}

/// Nearest-rank percentile `per_mille / 10` of a sorted sample.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), per_mille).clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles (in per mille) that has
/// at least ten samples beyond it in a sample of `n`, if any. The
/// registry's fixed tail percentiles are tested against it.
#[cfg(test)]
pub fn tail_per_mille(n: usize) -> Option<usize> {
    [999, 990, 900, 750, 500]
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= 10)
}

/// Per-name totals of the span events of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the time covered by child spans on the same thread.
    pub self_s: f64,
}

/// Groups the span events of a drained trace by name. A span's parent is
/// the innermost span on the same thread that was still open when it
/// started; spans on other threads are never children, however they
/// overlap in time.
pub fn aggregate_spans(events: &[Event]) -> BTreeMap<String, SpanTotals> {
    struct Span<'a> {
        name: &'a str,
        thread: u64,
        start: u64,
        dur: u64,
    }
    let mut spans: Vec<Span> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_us } => Some(Span {
                name: &e.name,
                thread: e.thread,
                start: e.at_us,
                dur: dur_us,
            }),
            _ => None,
        })
        .collect();
    // Parents sort before the children they contain: by start, then longest.
    spans.sort_by_key(|s| (s.thread, s.start, std::cmp::Reverse(s.dur)));
    let mut child_us = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.thread == spans[i].thread && t.start + t.dur > spans[i].start {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            child_us[parent] += spans[i].dur;
        }
        open.push(i);
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_us) {
        let t = out.entry(s.name.to_string()).or_default();
        t.count += 1;
        t.total_s += s.dur as f64 * 1e-6;
        t.self_s += s.dur.saturating_sub(child) as f64 * 1e-6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: u64, at_us: u64, dur_us: u64) -> Event {
        Event {
            name: name.into(),
            thread,
            seq: 0,
            at_us,
            kind: EventKind::Span { dur_us },
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let events = [
            span("outer", 0, 0, 100),
            span("mid", 0, 10, 50),
            span("inner", 0, 20, 10),
            span("inner", 0, 40, 5),
            // Back to back with `mid`: a sibling, not a child.
            span("mid", 0, 60, 30),
            // Overlaps `outer` in time, but on another thread.
            span("worker", 1, 5, 90),
            span("inner", 1, 10, 20),
            counter_event(),
        ];
        let agg = aggregate_spans(&events);
        let us = |s: f64| (s * 1e6).round() as u64;
        assert_eq!(agg["outer"].count, 1);
        assert_eq!(us(agg["outer"].self_s), 100 - 50 - 30);
        assert_eq!(agg["mid"].count, 2);
        assert_eq!(us(agg["mid"].total_s), 80);
        assert_eq!(us(agg["mid"].self_s), 50 - 15 + 30);
        assert_eq!(agg["inner"].count, 3);
        assert_eq!(us(agg["inner"].self_s), 35);
        assert_eq!(us(agg["worker"].self_s), 90 - 20);
        assert_eq!(agg.len(), 4);
    }

    #[test]
    fn siblings_touching_at_one_microsecond_do_not_nest() {
        let agg = aggregate_spans(&[span("a", 0, 0, 10), span("b", 0, 10, 10)]);
        assert_eq!(agg["a"].self_s, agg["a"].total_s);
        assert_eq!(agg["b"].self_s, agg["b"].total_s);
    }

    fn counter_event() -> Event {
        Event {
            kind: EventKind::Counter { value: 3 },
            ..span("not.a.span", 0, 0, 0)
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_per_mille(9), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn percentiles_and_quartiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&sorted, 1000), 100.0);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert_eq!(Summary::of(&[1.0, 2.0]).p50, 1.5);
    }
}
