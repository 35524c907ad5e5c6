//! The embedded path: each PM index driven directly through session
//! `Handle`s by closed-loop clients, one index at a time.

use crate::drive::{closed_loop, Budget, LoopOut, Tally, Windows};
use crate::gen::{Kind, Op, OpGen, Outcome, Workload, CLIENTS};
use crate::report::Metrics;
use crate::trace::{Span, SpanLog, Tracer};
use recipe::key::u64_key;
use recipe::session::{Handle, Index, OpError, OpResult};
use std::sync::Arc;
use std::time::Instant;

/// The measured indexes: registry name and metric slug. The five RECIPE
/// conversions, the paper's hand-crafted PM baselines and the learned index.
/// `P-BwTree(dc16)` (a config ablation of the same code) and
/// `WOART(global-lock)` (single-writer) are left out.
pub const INDEXES: [(&str, &str); 9] = [
    ("P-ART", "p-art"),
    ("P-HOT", "p-hot"),
    ("P-BwTree", "p-bwtree"),
    ("P-Masstree", "p-masstree"),
    ("P-CLHT", "p-clht"),
    ("FAST&FAIR", "fast-fair"),
    ("P-APEX", "p-apex"),
    ("CCEH", "cceh"),
    ("Level-Hashing", "level-hashing"),
];

/// Build the PM instantiation of registry entry `name`.
pub fn build(name: &str) -> Result<Arc<dyn Index>, String> {
    harness::all_indexes()
        .into_iter()
        .find(|e| e.name == name)
        .map(|e| e.build(harness::PolicyMode::Pmem))
        .ok_or_else(|| format!("index {name:?} is not in the registry"))
}

/// Run `op` through `h`; the reply in the model's vocabulary.
pub fn apply(h: &mut Handle<'_>, op: &Op) -> Outcome {
    let key = u64_key(op.key);
    match op.kind {
        Kind::Get => Outcome::Value(h.get(&key)),
        Kind::Insert => match h.insert(&key, op.value) {
            Ok(OpResult::Inserted) => Outcome::Inserted,
            Ok(OpResult::Updated) => Outcome::Updated,
            _ => Outcome::Other,
        },
        Kind::Remove => match h.remove(&key) {
            Ok(OpResult::Removed) => Outcome::Removed,
            Err(OpError::NotFound) => Outcome::NotFound,
            _ => Outcome::Other,
        },
    }
}

/// The measured closed loop over `index`: one `Handle` per client, a span
/// per call when tracing.
pub fn measure(
    index: &dyn Index,
    gens: &mut [OpGen],
    budget: Budget,
    trace: bool,
    parent: u64,
    target: &'static str,
) -> LoopOut {
    closed_loop(gens, budget, trace, parent, target, || {
        let mut h = Handle::new(index);
        move |op: &Op, tracer: &mut Tracer, out: &mut LoopOut| {
            let name = match op.kind {
                Kind::Get => "Handle::get",
                Kind::Insert => "Handle::insert",
                Kind::Remove => "Handle::remove",
            };
            let req = tracer.request();
            let (got, ns) = tracer.span(req, name, || apply(&mut h, op));
            if tracer.on() {
                if op.kind == Kind::Get { &mut out.get_ns } else { &mut out.write_ns }.push(ns);
            }
            got
        }
    })
}

/// Run `per_client` on one thread per client's stream and merge the tallies
/// and spans.
fn per_client(
    gens: &[OpGen],
    trace: bool,
    parent: u64,
    target: &'static str,
    per_client: impl Fn(&OpGen, usize, &mut Tracer, &mut Tally) + Sync,
) -> (Tally, Vec<Span>) {
    std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter()
            .enumerate()
            .map(|(c, g)| {
                let per_client = &per_client;
                s.spawn(move || {
                    let mut tracer = Tracer::new(trace, target, c, parent);
                    let mut t = Tally::default();
                    per_client(g, c, &mut tracer, &mut t);
                    (t, tracer.spans)
                })
            })
            .collect();
        let mut total = Tally::default();
        let mut spans = Vec::new();
        for h in handles {
            let (t, s) = h.join().expect("a client thread panicked");
            total.add(t);
            spans.extend(s);
        }
        (total, spans)
    })
}

/// Insert every client's preload share, one thread per client.
pub fn preload(
    index: &dyn Index,
    gens: &[OpGen],
    trace: bool,
    parent: u64,
    target: &'static str,
) -> (Tally, Vec<Span>) {
    per_client(gens, trace, parent, target, |g, c, tracer, t| {
        let mut h = Handle::new(index);
        for (key, value) in g.preload() {
            let op = Op { kind: Kind::Insert, key, value, expect: Outcome::Inserted };
            let req = tracer.request();
            let (got, _) = tracer.span(req, "Handle::insert", || apply(&mut h, &op));
            t.check(target, c, &op, got);
        }
    })
}

/// Read back every key each client touched and compare with its model.
pub fn verify(index: &dyn Index, gens: &[OpGen], target: &'static str) -> Tally {
    per_client(gens, false, 0, target, |g, c, _, t| {
        let mut h = Handle::new(index);
        for (key, value) in g.expected() {
            let op = Op { kind: Kind::Get, key, value: 0, expect: Outcome::Value(value) };
            t.check(target, c, &op, apply(&mut h, &op));
        }
    })
    .0
}

/// The PM-layer counters, read at window boundaries.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub stats: pm::stats::Stats,
    pub probes: pm::stats::ProbeStats,
    pub charged: pm::latency::ChargedNs,
    pub elided_fences: u64,
}

impl Counters {
    #[must_use]
    pub fn now() -> Counters {
        Counters {
            stats: pm::stats::snapshot(),
            probes: pm::stats::probes(),
            charged: pm::latency::charged(),
            elided_fences: pm::flush::elided_fences(),
        }
    }
}

/// Counter deltas summed over a target's untraced windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct PmDelta {
    pub clwb: u64,
    pub fence: u64,
    pub node_visits: u64,
    pub probes: [u64; pm::stats::Mapping::COUNT],
    pub charged_ns: u64,
    pub elided_fences: u64,
}

impl PmDelta {
    pub fn add(&mut self, before: &Counters, after: &Counters) {
        let d = after.stats.since(&before.stats);
        self.clwb += d.clwb;
        self.fence += d.fence;
        self.node_visits += d.node_visits;
        let p = after.probes.since(&before.probes);
        for (sum, n) in self.probes.iter_mut().zip(p.per_mapping) {
            *sum += n;
        }
        self.charged_ns += after.charged.since(&before.charged).total();
        self.elided_fences += after.elided_fences - before.elided_fences;
    }
}

/// The index whose windows report a probe mapping's per-op count.
fn probe_owner(label: &str) -> Option<&'static str> {
    match label.split('_').next() {
        Some("art") => Some("p-art"),
        Some("hot") => Some("p-hot"),
        Some("apex") => Some("p-apex"),
        _ => None,
    }
}

/// One index under one workload, from set-up to the final contents check.
pub struct IndexRun {
    pub slug: &'static str,
    index: Arc<dyn Index>,
    gens: Vec<OpGen>,
    pub setup_s: f64,
    pub tally: Tally,
    heap_bytes_per_key: f64,
    /// Untraced windows: the throughput, counters and CPU time.
    pub plain: Windows,
    pm: PmDelta,
    /// Traced windows: the span latencies.
    pub traced: Windows,
}

impl IndexRun {
    /// Set up: preload every client's share and settle the index; the time
    /// this takes is the index's set-up time.
    pub fn setup(
        index: Arc<dyn Index>,
        slug: &'static str,
        workload: Workload,
        preload_keys: u64,
        seed: u64,
        log: &mut SpanLog,
    ) -> IndexRun {
        let trace = log.on();
        let gens: Vec<OpGen> =
            (0..CLIENTS).map(|c| OpGen::new(workload, seed, c, preload_keys)).collect();
        let heap0 = crate::heap::live_bytes();
        let start = Instant::now();
        let (tally, spans) =
            log.phase(slug, "preload", |id| preload(&*index, &gens, trace, id, slug));
        log.phase(slug, "Index::exec_settle", |_| index.exec_settle());
        let setup_s = start.elapsed().as_secs_f64();
        log.extend(spans);
        let heap_bytes_per_key = (crate::heap::live_bytes() - heap0) as f64 / preload_keys as f64;
        IndexRun {
            slug,
            index,
            gens,
            setup_s,
            tally,
            heap_bytes_per_key,
            plain: Windows::default(),
            pm: PmDelta::default(),
            traced: Windows::default(),
        }
    }

    /// One measure window of `secs`. A traced run splits it into an
    /// untraced half, which gives the counters and CPU time (the traced
    /// half's clock reads cannot inflate them), and a traced half.
    pub fn window(&mut self, secs: f64, log: &mut SpanLog) {
        let (index, slug) = (&*self.index, self.slug);
        let trace = log.on();
        let plain_secs = if trace { secs / 2.0 } else { secs };
        let before = Counters::now();
        let w = log.phase(slug, "measure", |id| {
            measure(index, &mut self.gens, Budget::Secs(plain_secs), false, id, slug)
        });
        self.pm.add(&before, &Counters::now());
        self.plain.push(w);
        if trace {
            let mut w = log.phase(slug, "measure", |id| {
                measure(index, &mut self.gens, Budget::Secs(secs / 2.0), true, id, slug)
            });
            log.extend(std::mem::take(&mut w.spans));
            self.traced.push(w);
        }
    }

    /// Check the whole contents and report the metrics of the run's mode.
    pub fn finish(mut self, log: &SpanLog, m: &mut Metrics) -> Tally {
        let slug = self.slug;
        if log.on() {
            let ops = self.plain.all.tally.attempted.max(1) as f64;
            let pm = self.pm;
            m.put(format!("{slug}.node_visits_per_op"), pm.node_visits as f64 / ops, "count");
            m.put(format!("{slug}.clwb_per_op"), pm.clwb as f64 / ops, "count");
            m.put(format!("{slug}.fence_per_op"), pm.fence as f64 / ops, "count");
            m.put(format!("{slug}.charged_ns_per_op"), pm.charged_ns as f64 / ops, "ns");
            m.put(
                format!("{slug}.cpu_ns_per_op"),
                (self.plain.all.client_secs * 1e9 - pm.charged_ns as f64) / ops,
                "ns",
            );
            for mapping in pm::stats::Mapping::ALL {
                if probe_owner(mapping.label()) == Some(slug) {
                    m.put(
                        format!("probes_per_op.{}", mapping.label()),
                        pm.probes[mapping as usize] as f64 / ops,
                        "count",
                    );
                }
            }
            m.put(format!("{slug}.heap_bytes_per_key"), self.heap_bytes_per_key, "B/key");
            let t = &mut self.traced.all;
            t.get_ns.sort();
            t.write_ns.sort();
            m.put(format!("{slug}.get_ns.p50"), t.get_ns.quantile(0.50), "ns");
            m.put(format!("{slug}.get_ns.p99"), t.get_ns.quantile(0.99), "ns");
            m.put(format!("{slug}.write_ns.p50"), t.write_ns.quantile(0.50), "ns");
            m.put(format!("{slug}.write_ns.p99"), t.write_ns.quantile(0.99), "ns");
            if let Some(c) = self.index.reclaimer().filter(|_| slug == "p-bwtree") {
                m.put(
                    "p-bwtree.epoch_peak_retired_kb",
                    c.peak_retired_bytes() as f64 / 1024.0,
                    "KiB",
                );
            }
        } else {
            m.put(format!("mops.{slug}"), self.plain.rate() / 1e6, "Mops/s");
        }
        let mut tally = self.tally;
        tally.add(self.plain.all.tally);
        tally.add(self.traced.all.tally);
        tally.add(verify(&*self.index, &self.gens, slug));
        tally
    }
}

/// Exact PM-layer counts of a one-client pass over a fresh index. `clwb` is
/// not among them: it counts the cache lines each flushed object spans,
/// which depends on where the allocator placed the object, and differs
/// between runs by up to 7% (P-HOT under `point-write`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCounts {
    pub ops: u64,
    pub fence: u64,
    pub node_visits: u64,
    pub probes: u64,
}

/// One client preloads `preload_keys` keys into `index`, settles it, and
/// runs `ops` ops of the workload. With one client, a fixed op count and no
/// clock in the loop, the counts repeat exactly from run to run, so they can
/// be cited as evidence where wall-clock figures cannot. The counters are
/// process-wide: nothing else may run PM operations meanwhile.
pub fn counter_pass(
    index: &dyn Index,
    workload: Workload,
    seed: u64,
    preload_keys: u64,
    ops: u64,
) -> (ExactCounts, Tally) {
    let mut gens = vec![OpGen::new(workload, seed, 0, preload_keys * CLIENTS as u64)];
    let (mut tally, _) = preload(index, &gens, false, 0, "counter-pass");
    index.exec_settle();
    let before = Counters::now();
    let run = measure(index, &mut gens, Budget::Ops(ops), false, 0, "counter-pass");
    let after = Counters::now();
    tally.add(run.tally);
    let d = after.stats.since(&before.stats);
    let counts = ExactCounts {
        ops: run.tally.attempted,
        fence: d.fence,
        node_visits: d.node_visits,
        probes: after.probes.since(&before.probes).total(),
    };
    (counts, tally)
}
