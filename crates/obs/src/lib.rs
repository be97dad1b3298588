//! `pardec-obs` — the workspace's unified tracing + metrics layer.
//!
//! Sits at the very bottom of the crate DAG (even below `pardec-graph`) so
//! every layer — frontier waves, combine kernel phases, MR shuffle rounds,
//! cluster loops, snapshot load, the serve request path — can emit into one
//! ordered trace without dependency cycles.
//!
//! Three primitives:
//!
//! - **Spans** ([`span!`]): scoped phase timers. A guard records name,
//!   thread, start offset, duration, and arbitrary fields when dropped.
//! - **Counters / gauges / metrics** ([`counter`], [`gauge`], [`record`]):
//!   point samples. The [`Observe`] trait adapts the workspace's existing
//!   ledgers (`CombineStats`, `RoundStats`, `QueryLedger`, …) into one
//!   schema — each observation becomes a single `metric` event.
//! - **Histograms** ([`hist::Log2Histogram`]): fixed-bucket log2 latency
//!   distributions with integer-only p50/p90/p99, used by the serve daemon
//!   and exportable as `hist` events.
//!
//! # Zero cost when disabled
//!
//! A single global [`AtomicBool`] gates everything. Every entry point checks
//! it with one relaxed load and returns immediately when tracing is off —
//! the [`span!`] macro does not even evaluate its field expressions. No
//! timers run, no allocations happen, and computational results are never
//! derived from anything recorded here, so outputs are byte-identical with
//! tracing on, off, or absent.
//!
//! # Recording model
//!
//! Events land in per-thread buffers (a `thread_local` `Vec` behind an
//! uncontended `Mutex`, registered once per thread in a global registry).
//! [`drain`] collects every buffer and sorts by `(at_us, seq)` into one
//! ordered trace; [`flush_to_path`] writes it as JSONL, one object per line
//! (see [`Event::to_json`] for the schema).

pub mod hist;
pub mod json;

pub use hist::{AtomicLog2Histogram, Log2Histogram, BUCKETS};
pub use json::validate_object;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable naming a trace output path (same meaning as the CLI
/// `--trace` flag; the flag wins when both are set).
pub const TRACE_ENV: &str = "PARDEC_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static THREAD_IDS: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Is tracing currently enabled? One relaxed load — this is the fast path
/// every instrumentation site hits, traced or not.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on (and pins the trace epoch, so `at_us` offsets are
/// relative to the first enable).
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off. Already-recorded events stay buffered until
/// [`drain`]/[`flush_to_path`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Reads [`TRACE_ENV`] (`PARDEC_TRACE`); a non-empty value is a trace path.
pub fn trace_path_from_env() -> Option<String> {
    std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty())
}

// ---------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------

/// A field value. Everything the workspace's ledgers carry fits here.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    fn push_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => json::push_f64(out, *v),
            Value::Str(s) => json::push_escaped(out, s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One named field attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub key: &'static str,
    pub value: Value,
}

/// What kind of event a trace line describes.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A scoped phase timer; `dur_us` is wall time inside the span.
    Span { dur_us: u64 },
    /// A monotonic count sample.
    Counter { value: u64 },
    /// A point-in-time measurement.
    Gauge { value: f64 },
    /// A ledger observation ([`record`]) — all payload in `fields`.
    Metric,
    /// A histogram snapshot (boxed: 65 buckets would dominate the enum).
    Hist { snapshot: Box<Log2Histogram> },
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub name: String,
    pub thread: u64,
    pub seq: u64,
    /// Microseconds since the trace epoch (first [`enable`]).
    pub at_us: u64,
    pub kind: EventKind,
    pub fields: Vec<Field>,
}

impl Event {
    fn type_str(&self) -> &'static str {
        match self.kind {
            EventKind::Span { .. } => "span",
            EventKind::Counter { .. } => "counter",
            EventKind::Gauge { .. } => "gauge",
            EventKind::Metric => "metric",
            EventKind::Hist { .. } => "hist",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Schema: every line has `type`, `name`, `thread`, `seq`, `at_us`.
    /// Spans add `dur_us`; counters/gauges add `value`; hists add `count`,
    /// `sum`, `p50`/`p90`/`p99`, and the non-zero `buckets`. Any fields go
    /// under a nested `"fields"` object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"type\":\"{}\",\"name\":", self.type_str());
        json::push_escaped(&mut out, &self.name);
        let _ = write!(
            out,
            ",\"thread\":{},\"seq\":{},\"at_us\":{}",
            self.thread, self.seq, self.at_us
        );
        match &self.kind {
            EventKind::Span { dur_us } => {
                let _ = write!(out, ",\"dur_us\":{dur_us}");
            }
            EventKind::Counter { value } => {
                let _ = write!(out, ",\"value\":{value}");
            }
            EventKind::Gauge { value } => {
                out.push_str(",\"value\":");
                json::push_f64(&mut out, *value);
            }
            EventKind::Metric => {}
            EventKind::Hist { snapshot } => {
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                    snapshot.count(),
                    snapshot.sum(),
                    snapshot.percentile(50),
                    snapshot.percentile(90),
                    snapshot.percentile(99)
                );
                out.push_str(",\"buckets\":{");
                let mut first = true;
                for (i, &c) in snapshot.counts().iter().enumerate() {
                    if c != 0 {
                        if !first {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{i}\":{c}");
                        first = false;
                    }
                }
                out.push('}');
            }
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, f) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_escaped(&mut out, f.key);
                out.push(':');
                f.value.push_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------
// Per-thread buffers
// ---------------------------------------------------------------------

type Buffer = Arc<Mutex<Vec<Event>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: (u64, Buffer) = {
        let id = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
        let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
        registry().lock().unwrap().push(Arc::clone(&buf));
        (id, buf)
    };
}

fn push_event(name: &str, kind: EventKind, fields: Vec<Field>, at_us: u64) {
    LOCAL.with(|(thread, buf)| {
        let event = Event {
            name: name.to_string(),
            thread: *thread,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            at_us,
            kind,
            fields,
        };
        // Uncontended in practice: only drain() ever touches another
        // thread's buffer.
        buf.lock().unwrap().push(event);
    });
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Collects every thread's buffered events into one trace ordered by
/// `(at_us, seq)`, clearing the buffers.
pub fn drain() -> Vec<Event> {
    let mut all = Vec::new();
    for buf in registry().lock().unwrap().iter() {
        all.append(&mut buf.lock().unwrap());
    }
    all.sort_by_key(|e| (e.at_us, e.seq));
    all
}

/// Writes the drained trace as JSONL to `w` and returns the event count.
pub fn write_jsonl(w: &mut dyn std::io::Write) -> std::io::Result<usize> {
    let events = drain();
    for e in &events {
        writeln!(w, "{}", e.to_json())?;
    }
    Ok(events.len())
}

/// Drains the trace into a file at `path`; returns the event count.
pub fn flush_to_path(path: &str) -> std::io::Result<usize> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = write_jsonl(&mut f)?;
    use std::io::Write as _;
    f.flush()?;
    Ok(n)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// The live half of a [`SpanGuard`].
#[derive(Debug)]
pub struct ActiveSpan {
    name: &'static str,
    started: Instant,
    at_us: u64,
    fields: Vec<Field>,
}

/// Records a span event when dropped. Obtained from [`span()`]/[`span!`];
/// holds `None` (and does nothing) when tracing is disabled.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Attaches a field discovered mid-span (e.g. a result size known only
    /// at the end of the phase). No-op when tracing is disabled.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(s) = self.0.as_mut() {
            s.fields.push(Field {
                key,
                value: value.into(),
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let dur_us = s.started.elapsed().as_micros() as u64;
            push_event(s.name, EventKind::Span { dur_us }, s.fields, s.at_us);
        }
    }
}

/// Starts a span with no fields. Prefer the [`span!`] macro, which also
/// skips field-expression evaluation when tracing is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Starts a span with pre-built fields (the [`span!`] macro's entry point).
#[inline]
pub fn span_with(name: &'static str, fields: Vec<Field>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(ActiveSpan {
        name,
        started: Instant::now(),
        at_us: now_us(),
        fields,
    }))
}

/// Opens a scoped phase timer: `let _s = span!("cluster.round", round = r);`
///
/// Field expressions are evaluated **only when tracing is enabled**, so a
/// disabled build pays one relaxed atomic load and nothing else.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr $(, $key:ident = $value:expr)+ $(,)?) => {
        $crate::span_with(
            $name,
            if $crate::enabled() {
                vec![$($crate::Field {
                    key: stringify!($key),
                    value: $crate::Value::from($value),
                }),+]
            } else {
                Vec::new()
            },
        )
    };
}

// ---------------------------------------------------------------------
// Counters, gauges, ledger observations
// ---------------------------------------------------------------------

/// Records a monotonic count sample.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if enabled() {
        push_event(name, EventKind::Counter { value }, Vec::new(), now_us());
    }
}

/// Records a point-in-time measurement.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        push_event(name, EventKind::Gauge { value }, Vec::new(), now_us());
    }
}

/// Records a histogram snapshot under `name`.
#[inline]
pub fn histogram(name: &'static str, snapshot: Log2Histogram) {
    if enabled() {
        push_event(
            name,
            EventKind::Hist {
                snapshot: Box::new(snapshot),
            },
            Vec::new(),
            now_us(),
        );
    }
}

/// The sink an [`Observe`] implementation fills: each call adds one field
/// to the pending `metric` event.
#[derive(Debug, Default)]
pub struct Metrics {
    fields: Vec<Field>,
}

impl Metrics {
    /// Adds an integer measurement.
    pub fn counter(&mut self, key: &'static str, value: u64) {
        self.fields.push(Field {
            key,
            value: Value::U64(value),
        });
    }

    /// Adds a float measurement.
    pub fn gauge(&mut self, key: &'static str, value: f64) {
        self.fields.push(Field {
            key,
            value: Value::F64(value),
        });
    }

    /// Adds a string label (e.g. an MR round's name).
    pub fn label(&mut self, key: &'static str, value: &str) {
        self.fields.push(Field {
            key,
            value: Value::Str(value.to_string()),
        });
    }
}

/// Adapts a ledger type into the unified schema. The four pre-existing
/// ledgers (`CombineStats`, `RoundStats`, `QueryLedger`, shuffle sizes)
/// implement this; [`record`] turns one observation into one `metric`
/// event named after [`Observe::scope`].
pub trait Observe {
    /// The event name this ledger reports under (e.g. `"mr.round"`).
    fn scope(&self) -> &'static str;
    /// Writes the ledger's current values into the sink.
    fn observe(&self, m: &mut Metrics);
}

/// Records one observation of a ledger as a single `metric` trace event.
/// No-op (without calling `observe`) when tracing is disabled.
pub fn record(obj: &dyn Observe) {
    if !enabled() {
        return;
    }
    let mut m = Metrics::default();
    obj.observe(&mut m);
    push_event(obj.scope(), EventKind::Metric, m.fields, now_us());
}

/// Runs a ledger's `observe` and returns the fields (test helper).
pub fn collect(obj: &dyn Observe) -> Vec<Field> {
    let mut m = Metrics::default();
    obj.observe(&mut m);
    m.fields
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is global state; serialize the tests that toggle it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Toy {
        pairs: u64,
    }

    impl Observe for Toy {
        fn scope(&self) -> &'static str {
            "toy"
        }
        fn observe(&self, m: &mut Metrics) {
            m.counter("pairs", self.pairs);
            m.label("algo", "test");
            m.gauge("ratio", 0.5);
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        disable();
        drain();
        {
            let mut s = span!("quiet.phase", n = 3usize);
            s.field("late", 9u64);
        }
        counter("quiet.count", 1);
        gauge("quiet.gauge", 2.0);
        record(&Toy { pairs: 7 });
        assert!(drain().is_empty());
    }

    #[test]
    fn span_and_metric_round_trip() {
        let _g = lock();
        disable();
        drain();
        enable();
        {
            let mut s = span!("phase.a", round = 2usize, strategy = "hybrid");
            s.field("claimed", 10u64);
        }
        counter("items", 42);
        record(&Toy { pairs: 7 });
        disable();
        let events = drain();
        assert_eq!(events.len(), 3);
        let span = &events[0];
        assert_eq!(span.name, "phase.a");
        assert!(matches!(span.kind, EventKind::Span { .. }));
        assert_eq!(span.fields.len(), 3);
        assert_eq!(span.fields[0].key, "round");
        assert_eq!(span.fields[0].value, Value::U64(2));
        assert_eq!(span.fields[1].value, Value::Str("hybrid".into()));
        assert_eq!(span.fields[2].key, "claimed");
        assert_eq!(events[1].kind, EventKind::Counter { value: 42 });
        let metric = &events[2];
        assert_eq!(metric.name, "toy");
        assert_eq!(metric.fields.len(), 3);
        // Events are ordered and seq is strictly increasing.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        // A second drain is empty.
        assert!(drain().is_empty());
    }

    #[test]
    fn json_lines_validate() {
        let _g = lock();
        disable();
        drain();
        enable();
        {
            let _s = span!("json.span", label = "a\"b", size = 4096usize);
        }
        gauge("json.gauge", 1.25);
        let mut h = Log2Histogram::new();
        h.record(3);
        h.record(900);
        histogram("json.hist", h);
        record(&Toy { pairs: 1 });
        disable();
        let mut out = Vec::new();
        let n = write_jsonl(&mut out).unwrap();
        assert_eq!(n, 4);
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            let keys = validate_object(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(keys.contains(&"type".to_string()), "{line}");
            assert!(keys.contains(&"name".to_string()), "{line}");
            assert!(keys.contains(&"at_us".to_string()), "{line}");
        }
        let hist_line = text.lines().find(|l| l.contains("json.hist")).unwrap();
        assert!(hist_line.contains("\"count\":2"));
        assert!(hist_line.contains("\"p50\":"));
    }

    #[test]
    fn flush_to_file() {
        let _g = lock();
        disable();
        drain();
        enable();
        counter("file.count", 5);
        disable();
        let path = std::env::temp_dir().join("pardec_obs_flush_test.jsonl");
        let path = path.to_str().unwrap().to_string();
        let n = flush_to_path(&path).unwrap();
        assert_eq!(n, 1);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 1);
        validate_object(body.lines().next().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn collect_reads_ledger_without_tracing() {
        let fields = collect(&Toy { pairs: 9 });
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].value, Value::U64(9));
    }
}
