//! In-memory spans recorded by the benchmark's own code around its
//! calls into each layer (`--trace 1`). Spans are kept in memory and
//! written when the run ends, so recording costs a clock read and a
//! push; the untraced run records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of top-level spans.
pub const ROOT: u64 = 0;

/// One timed interval. `req` names the request slot for driver spans
/// (0 elsewhere).
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

/// Span recorder. Disabled recorders hand out id 0 and keep nothing.
pub struct Trace {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Count and time of every span of one name.
#[derive(Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside span `name` under `parent`; `f` receives the
    /// span's id so it can parent its own children.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(vec![Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req: 0,
        }]);
        out
    }

    /// Appends spans recorded elsewhere (driver threads batch theirs).
    pub fn push(&self, spans: Vec<Span>) {
        if self.on && !spans.is_empty() {
            self.spans
                .lock()
                .expect("trace lock poisoned by a panicking recorder")
                .extend(spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("trace lock poisoned by a panicking recorder")
            .len()
    }

    /// Per-name count, total and self time. A span's self time is its
    /// duration minus the time its children cover; children that ran
    /// in parallel can cover more than the parent, so it floors at 0.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self
            .spans
            .lock()
            .expect("trace lock poisoned by a panicking recorder");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur as f64 / 1e9;
            e.self_s += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("trace lock poisoned by a panicking recorder");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }

    /// Measured cost of recording one span, in seconds: the tracing
    /// overhead of a run is this times the spans it recorded.
    pub fn cost_per_span_s() -> f64 {
        const N: u64 = 20_000;
        let probe = Trace::new(true);
        let t = Instant::now();
        for _ in 0..N {
            probe.span("calibrate", 0, |_| ());
        }
        t.elapsed().as_secs_f64() / N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Trace::new(true);
        t.push(vec![
            Span {
                id: 1,
                parent: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                req: 0,
            },
            Span {
                id: 2,
                parent: 1,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                req: 0,
            },
            Span {
                id: 3,
                parent: 1,
                name: "inner",
                start_ns: 50,
                end_ns: 70,
                req: 0,
            },
        ]);
        let layers = t.layer_times();
        assert_eq!(layers["outer"].count, 1);
        assert!((layers["outer"].self_s - 50e-9).abs() < 1e-15);
        assert_eq!(layers["inner"].count, 2);
        assert!((layers["inner"].self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span("x", 0, |id| id), 0);
        assert_eq!(t.len(), 0);
    }
}
