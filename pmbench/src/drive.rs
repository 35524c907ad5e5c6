//! The closed loop both paths share: every client issues its next op only
//! after the previous reply, and every reply is checked against the model.

use crate::gen::{Op, OpGen, Outcome};
use crate::report::median;
use crate::trace::{Samples, Span, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Ops between two reads of the clock in a measured loop.
const CHUNK: u64 = 128;

/// How long a closed loop runs: for a time, or for a fixed op count per
/// client.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Secs(f64),
    Ops(u64),
}

/// Operations issued and operations whose reply was wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Count one checked reply.
    pub fn check(&mut self, target: &str, client: usize, op: &Op, got: Outcome) {
        self.attempted += 1;
        if got != op.expect {
            self.failed += 1;
            report_mismatch(target, client, op, got);
        }
    }
}

/// Report the first few wrong replies of the run on stderr.
fn report_mismatch(target: &str, client: usize, op: &Op, got: Outcome) {
    static SHOWN: AtomicU64 = AtomicU64::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 10 {
        eprintln!(
            "pmbench: wrong reply on {target} client {client}: {:?} key {:#018x}: expected {:?}, got {got:?}",
            op.kind, op.key, op.expect
        );
    }
}

/// What closed loops measured, over all clients.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub tally: Tally,
    /// Wall time of the loop, from the clients' common start to the last
    /// client's end.
    pub secs: f64,
    /// Sum over clients of each client's wall time in the loop.
    pub client_secs: f64,
    pub get_ns: Samples,
    pub write_ns: Samples,
    pub route_ns: Samples,
    pub spans: Vec<Span>,
}

impl LoopOut {
    /// Completed ops per second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.tally.attempted as f64 / self.secs
    }

    /// Every call's latency, gets and writes together, sorted.
    #[must_use]
    pub fn call_ns(&self) -> Samples {
        let mut all = self.get_ns.clone();
        all.extend(self.write_ns.clone());
        all.sort();
        all
    }

    pub fn merge(&mut self, o: LoopOut) {
        self.tally.add(o.tally);
        self.secs += o.secs;
        self.client_secs += o.client_secs;
        self.get_ns.extend(o.get_ns);
        self.write_ns.extend(o.write_ns);
        self.route_ns.extend(o.route_ns);
        self.spans.extend(o.spans);
    }
}

/// One measure window's figures.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub rate: f64,
    pub p50_ns: f64,
    pub p90_ns: f64,
}

/// The measure windows of one target, accumulated over the rounds of a run.
/// A figure is reported as the median over the windows.
#[derive(Debug, Default)]
pub struct Windows {
    pub windows: Vec<Window>,
    /// Every window merged.
    pub all: LoopOut,
}

impl Windows {
    pub fn push(&mut self, w: LoopOut) {
        let calls = w.call_ns();
        self.windows.push(Window {
            rate: w.rate(),
            p50_ns: calls.quantile(0.50),
            p90_ns: calls.quantile(0.90),
        });
        self.all.merge(w);
    }

    /// The median over the windows of `f`.
    #[must_use]
    pub fn median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(self.windows.iter().map(f).collect())
    }

    /// The median window's throughput, in ops/s.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.median(|w| w.rate)
    }
}

/// CPU time stolen from this machine by the hypervisor so far, in clock
/// ticks, summed over CPUs (`/proc/stat`); 0 where it cannot be read.
#[must_use]
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().and_then(|l| l.split_whitespace().nth(8)).and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Run all of `gens`' streams at once, one client thread each. Each thread
/// calls `make_client` for its op executor, which runs one op (recording
/// spans and latency samples into the tracer and the client's `LoopOut`)
/// and returns the reply.
pub fn closed_loop<C>(
    gens: &mut [OpGen],
    budget: Budget,
    trace: bool,
    parent: u64,
    target: &'static str,
    make_client: impl Fn() -> C + Sync,
) -> LoopOut
where
    C: FnMut(&Op, &mut Tracer, &mut LoopOut) -> Outcome,
{
    let barrier = Barrier::new(gens.len());
    let start = std::sync::OnceLock::new();
    let per_client: Vec<LoopOut> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(c, gen)| {
                let (barrier, make_client, start) = (&barrier, &make_client, &start);
                s.spawn(move || {
                    let mut tracer = Tracer::new(trace, target, c, parent);
                    let mut exec = make_client();
                    let mut out = LoopOut::default();
                    barrier.wait();
                    let t0: Instant = *start.get_or_init(Instant::now);
                    loop {
                        let n = match budget {
                            Budget::Ops(total) => CHUNK.min(total - out.tally.attempted),
                            Budget::Secs(_) => CHUNK,
                        };
                        for _ in 0..n {
                            let op = gen.next_op();
                            let got = exec(&op, &mut tracer, &mut out);
                            out.tally.check(target, c, &op, got);
                        }
                        let done = match budget {
                            Budget::Ops(total) => out.tally.attempted >= total,
                            Budget::Secs(secs) => t0.elapsed().as_secs_f64() >= secs,
                        };
                        if done {
                            break;
                        }
                    }
                    out.secs = t0.elapsed().as_secs_f64();
                    out.client_secs = out.secs;
                    out.spans = tracer.spans;
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let mut out = LoopOut::default();
    let mut secs = 0.0f64;
    for o in per_client {
        secs = secs.max(o.secs);
        out.merge(o);
    }
    out.secs = secs;
    out
}
