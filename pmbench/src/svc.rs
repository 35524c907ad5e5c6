//! The service path: a two-shard P-CLHT `Service`, preloaded by `cast` and
//! then driven by closed-loop clients through `Service::call`.

use crate::drive::{closed_loop, Budget, LoopOut, Tally, Windows};
use crate::embedded::{build, Counters, PmDelta};
use crate::gen::{Kind, Op, OpGen, Outcome, Workload, CLIENTS};
use crate::report::Metrics;
use crate::trace::{SpanLog, Tracer};
use recipe::key::u64_key;
use recipe::session::{Handle, Index, OpError, OpResult};
use service::{ReplyBody, Service, ServiceConfig, ShardStats, ShedReason};
use std::sync::Arc;
use std::time::Instant;

const TARGET: &str = "svc";

/// The service as the benchmark runs it, spelled out so a change to the
/// crate's defaults or environment overrides cannot change the workload.
pub const CONFIG: ServiceConfig =
    ServiceConfig { shards: 2, queue_cap: 1024, max_batch: 32, default_deadline_ns: 0 };

fn request(op: &Op) -> service::Op {
    let key = u64_key(op.key).to_vec();
    match op.kind {
        Kind::Get => service::Op::Get(key),
        Kind::Insert => service::Op::Insert(key, op.value),
        Kind::Remove => service::Op::Remove(key),
    }
}

fn outcome(body: ReplyBody) -> Outcome {
    match body {
        ReplyBody::Value(v) => Outcome::Value(v),
        ReplyBody::Done(OpResult::Inserted) => Outcome::Inserted,
        ReplyBody::Done(OpResult::Updated) => Outcome::Updated,
        ReplyBody::Done(OpResult::Removed) => Outcome::Removed,
        ReplyBody::Error(OpError::NotFound) => Outcome::NotFound,
        _ => Outcome::Other,
    }
}

fn total(stats: &[ShardStats]) -> ShardStats {
    stats.iter().fold(ShardStats::default(), |mut a, s| {
        a.merge(s);
        a
    })
}

/// `cast` `op`, retrying while the shard queue is full; counts the retries.
fn cast_retrying(svc: &Service, op: &Op, retries: &mut u64) -> Result<(), ShedReason> {
    loop {
        match svc.cast(request(op)) {
            Err(ShedReason::QueueFull) => {
                *retries += 1;
                std::thread::yield_now();
            }
            r => return r,
        }
    }
}

/// The measured closed loop: every call is timed (its latency is an
/// end-to-end metric); when tracing, `route` and `call` get spans sharing
/// the request's id.
fn measure(svc: &Service, gens: &mut [OpGen], budget: Budget, trace: bool, parent: u64) -> LoopOut {
    closed_loop(gens, budget, trace, parent, TARGET, || {
        move |op: &Op, tracer: &mut Tracer, out: &mut LoopOut| {
            let req = tracer.request();
            if tracer.on() {
                let key = u64_key(op.key);
                let (_, route_ns) = tracer.span(req, "Service::route", || svc.route(&key));
                out.route_ns.push(route_ns);
            }
            let start = Instant::now();
            let (reply, _) = tracer.span(req, "Service::call", || svc.call(request(op)));
            let ns = start.elapsed().as_nanos() as u64;
            if op.kind == Kind::Get { &mut out.get_ns } else { &mut out.write_ns }.push(ns);
            outcome(reply.body)
        }
    })
}

/// The service under one workload, from start-up to the final checks.
pub struct SvcRun {
    svc: Service,
    shards: Vec<Arc<dyn Index>>,
    gens: Vec<OpGen>,
    pub setup_s: f64,
    pub tally: Tally,
    /// Preload casts refused with `QueueFull` and retried.
    retries: u64,
    ingest: ShardStats,
    /// Keys per second the preload ingested, from its first `cast` to the
    /// end of its `drain`.
    pub ingest_rate: f64,
    /// Untraced windows: throughput, latency, counters.
    pub plain: Windows,
    pm: PmDelta,
    completed: u64,
    batches: u64,
    /// Traced windows.
    pub traced: Windows,
}

impl SvcRun {
    /// Set up: start the service, preload every client's share by `cast`
    /// from one thread, and `drain`; the time this takes is the service's
    /// set-up time, and the preload's rate its saturated throughput.
    pub fn setup(
        workload: Workload,
        preload_keys: u64,
        seed: u64,
        log: &mut SpanLog,
    ) -> Result<SvcRun, String> {
        let trace = log.on();
        let gens: Vec<OpGen> =
            (0..CLIENTS).map(|c| OpGen::new(workload, seed, c, preload_keys)).collect();
        let shards: Vec<Arc<dyn Index>> =
            (0..CONFIG.shards).map(|_| build("P-CLHT")).collect::<Result<_, _>>()?;
        let start = Instant::now();
        let factory = shards.clone();
        let svc = Service::start(CONFIG, move |i| Arc::clone(&factory[i]));
        let mut retries = 0u64;
        let ingest_start = Instant::now();
        let (tally, spans) = log.phase(TARGET, "preload", |id| {
            let mut tracer = Tracer::new(trace, TARGET, 0, id);
            let mut t = Tally::default();
            for (key, value) in gens.iter().flat_map(OpGen::preload) {
                let op = Op { kind: Kind::Insert, key, value, expect: Outcome::Inserted };
                let req = tracer.request();
                let (sent, _) =
                    tracer.span(req, "Service::cast", || cast_retrying(&svc, &op, &mut retries));
                t.attempted += 1;
                t.failed += u64::from(sent.is_err());
            }
            (t, tracer.spans)
        });
        log.phase(TARGET, "Service::drain", |_| svc.drain());
        let ingest_rate = tally.attempted as f64 / ingest_start.elapsed().as_secs_f64();
        log.extend(spans);
        let setup_s = start.elapsed().as_secs_f64();
        let ingest = total(&svc.stats());
        Ok(SvcRun {
            svc,
            shards,
            gens,
            setup_s,
            tally,
            retries,
            ingest,
            ingest_rate,
            plain: Windows::default(),
            pm: PmDelta::default(),
            completed: 0,
            batches: 0,
            traced: Windows::default(),
        })
    }

    /// One measure window of `secs`; a traced run splits it into an
    /// untraced and a traced half. Latency percentiles are taken per window
    /// and reported as the median window's, so a burst of host contention
    /// in one window cannot set the run's figure.
    pub fn window(&mut self, secs: f64, log: &mut SpanLog) {
        let trace = log.on();
        let plain_secs = if trace { secs / 2.0 } else { secs };
        let (before, stats0) = (Counters::now(), total(&self.svc.stats()));
        let w = log.phase(TARGET, "measure", |id| {
            measure(&self.svc, &mut self.gens, Budget::Secs(plain_secs), false, id)
        });
        let stats1 = total(&self.svc.stats());
        self.pm.add(&before, &Counters::now());
        self.completed += stats1.completed - stats0.completed;
        self.batches += stats1.batches - stats0.batches;
        self.plain.push(w);
        if trace {
            let mut w = log.phase(TARGET, "measure", |id| {
                measure(&self.svc, &mut self.gens, Budget::Secs(secs / 2.0), true, id)
            });
            log.extend(std::mem::take(&mut w.spans));
            self.traced.push(w);
        }
    }

    /// Check the accounting and every shard's contents, stop the service,
    /// and report the metrics of the run's mode.
    pub fn finish(mut self, log: &mut SpanLog, m: &mut Metrics) -> Tally {
        let p50 = self.plain.median(|w| w.p50_ns);
        if log.on() {
            let ops = self.plain.all.tally.attempted.max(1) as f64;
            m.put("svc.kops", self.plain.rate() / 1e3, "kops/s");
            m.put("svc.p50_us", p50 / 1e3, "us");
            m.put("svc.p90_us", self.plain.median(|w| w.p90_ns) / 1e3, "us");
            println!(
                "pmbench: svc latency from {} calls in {} windows",
                self.plain.all.get_ns.len() + self.plain.all.write_ns.len(),
                self.plain.windows.len()
            );
            m.put("svc.ingest_mean_batch", self.ingest.mean_batch(), "count");
            m.put(
                "svc.ingest_retry_per_op",
                self.retries as f64 / self.ingest.completed.max(1) as f64,
                "count",
            );
            m.put("svc.mean_batch", self.completed as f64 / self.batches.max(1) as f64, "count");
            m.put("svc.fence_per_op", self.pm.fence as f64 / ops, "count");
            m.put("svc.elided_fence_per_op", self.pm.elided_fences as f64 / ops, "count");
            m.put("svc.charged_ns_per_op", self.pm.charged_ns as f64 / ops, "ns");
            let plain = &mut self.plain.all;
            plain.get_ns.sort();
            plain.write_ns.sort();
            m.put("svc.call_us.get.p50", plain.get_ns.quantile(0.50) / 1e3, "us");
            m.put("svc.call_us.write.p50", plain.write_ns.quantile(0.50) / 1e3, "us");
            let calls = plain.call_ns();
            m.put("svc.p99_us", calls.quantile(0.99) / 1e3, "us");
            m.put("svc.p999_us", calls.quantile(0.999) / 1e3, "us");
            let traced = &mut self.traced.all;
            traced.route_ns.sort();
            m.put("svc.route_ns.p50", traced.route_ns.quantile(0.50), "ns");
            m.put(
                "trace_overhead.svc_p50_pct",
                (self.traced.median(|w| w.p50_ns) / p50 - 1.0) * 100.0,
                "%",
            );
            m.put(
                "trace_overhead.svc_tput_pct",
                (self.plain.rate() / self.traced.rate() - 1.0) * 100.0,
                "%",
            );
        } else {
            m.put("svc.ingest_kops", self.ingest_rate / 1e3, "kops/s");
        }

        // Accounting: every offered request completed, and nothing was shed
        // but the preload's retried casts.
        let mut tally = self.tally;
        tally.add(self.plain.all.tally);
        tally.add(self.traced.all.tally);
        log.phase(TARGET, "Service::drain", |_| self.svc.drain());
        let fin = total(&self.svc.stats());
        let sheds = fin.shed_queue_full.saturating_sub(self.retries)
            + fin.shed_index_capacity
            + fin.shed_deadline;
        if fin.completed != tally.attempted || sheds != 0 {
            eprintln!(
                "pmbench: svc accounting: completed {} of {} offered, {sheds} shed",
                fin.completed, tally.attempted
            );
            tally.failed += fin.completed.abs_diff(tally.attempted).max(sheds);
        }
        tally.add(verify(&self.svc, &self.shards, &self.gens));
        drop(self.svc.shutdown());
        tally
    }
}

/// Every key each client touched must sit, with its model value, in the
/// shard `route` names.
fn verify(svc: &Service, shards: &[Arc<dyn Index>], gens: &[OpGen]) -> Tally {
    let mut handles: Vec<Handle<'_>> = shards.iter().map(|s| Handle::new(&**s)).collect();
    let mut t = Tally::default();
    for (c, g) in gens.iter().enumerate() {
        for (key, value) in g.expected() {
            let op = Op { kind: Kind::Get, key, value: 0, expect: Outcome::Value(value) };
            let got = Outcome::Value(handles[svc.route(&u64_key(key))].get(&u64_key(key)));
            t.check(TARGET, c, &op, got);
        }
    }
    t
}
