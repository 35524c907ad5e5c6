//! Spans around the benchmark's calls into the program, for the traced run.
//!
//! A span is recorded around each public call the benchmark makes. Span
//! durations feed exact percentiles; the first [`KEEP_PER_PHASE`] spans of
//! each client in each phase are also kept verbatim and written out, together
//! with every phase-level span, when the benchmark ends.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Verbatim op spans kept per client per phase (the rest only feed the
/// duration samples), so the span file stays a few megabytes.
pub const KEEP_PER_PHASE: usize = 256;

/// The process-wide time origin spans are stamped against.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since [`origin`].
#[must_use]
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One recorded call. Spans of one request share `req`; `parent` is the
/// `req` of the phase span that issued it (0 for a phase span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub req: u64,
    pub parent: u64,
    pub name: &'static str,
    pub target: &'static str,
    pub client: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Exact duration samples of one kind of call.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sort once so [`Samples::quantile`] can be read repeatedly.
    pub fn sort(&mut self) {
        self.0.sort_unstable();
    }

    /// Nearest-rank quantile of sorted samples, in ns (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        f64::from(self.0[rank - 1])
    }
}

/// A client's span recorder for one phase. Made with `on = false`, it records
/// nothing and reads no clock.
pub struct Tracer {
    on: bool,
    target: &'static str,
    client: u32,
    parent: u64,
    next_req: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `client`'s calls inside the phase span `parent`.
    #[must_use]
    pub fn new(on: bool, target: &'static str, client: usize, parent: u64) -> Tracer {
        let next_req = (parent << 40) | ((client as u64) << 36);
        Tracer { on, target, client: client as u32, parent, next_req, spans: Vec::new() }
    }

    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh request id, unique across clients.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Time `f` as span `name` of request `req`; returns its result and
    /// duration in ns (0 when tracing is off).
    #[inline]
    pub fn span<R>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.on {
            return (f(), 0);
        }
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        if self.spans.len() < KEEP_PER_PHASE {
            let (target, client, parent) = (self.target, self.client, self.parent);
            self.spans.push(Span { req, parent, name, target, client, start_ns, end_ns });
        }
        (r, end_ns - start_ns)
    }
}

/// Every span kept during the run, written out at exit.
pub struct SpanLog {
    on: bool,
    phases: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    #[must_use]
    pub fn new(on: bool) -> SpanLog {
        SpanLog { on, phases: 0, spans: Vec::new() }
    }

    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Run `f` as phase span `name`; `f` receives the phase's id, which the
    /// spans it causes carry as their `parent`.
    pub fn phase<R>(
        &mut self,
        target: &'static str,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.phases += 1;
        let req = self.phases;
        let start_ns = now_ns();
        let r = f(req);
        if self.on {
            let end_ns = now_ns();
            self.spans.push(Span { req, parent: 0, name, target, client: 0, start_ns, end_ns });
        }
        r
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as JSON lines, after a `stamp` header line.
    pub fn write(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"stamp\":{}}}", crate::report::json_str(stamp))?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"parent\":{},\"name\":\"{}\",\"target\":\"{}\",\"client\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.parent, s.name, s.target, s.client, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v);
        }
        s.sort();
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, "x", 0, 1);
        let (v, ns) = t.span(1, "Handle::get", || 7);
        assert_eq!((v, ns), (7, 0));
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true, "x", 1, 1);
        let req = t.request();
        let _ = t.span(req, "Service::route", || ());
        let _ = t.span(req, "Service::call", || ());
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].req, t.spans[1].req);
        assert_eq!(t.spans[0].parent, 1);
    }
}
