//! The benchmark's self-tests, at a tiny size.

use crate::embedded::{self, counter_pass, IndexRun, INDEXES};
use crate::gen::Workload;
use crate::report::Metrics;
use crate::run_workload;
use crate::trace::SpanLog;
use recipe::epoch::Collector;
use recipe::session::{Capabilities, Index, OpError, OpResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The PM counters are process-wide: tests that run PM operations hold this
/// so one test's work cannot show up in another's counts.
static PM_LOCK: Mutex<()> = Mutex::new(());

fn pm_lock() -> MutexGuard<'static, ()> {
    PM_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`
/// (the file keeps one metric per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.contains(&format!("\"{key}\":")) {
                current = key;
            }
        }
        if current == section && line.contains("\"name\"") {
            let fields: Vec<&str> = line.split('"').collect();
            let field = |k: &str| {
                fields
                    .iter()
                    .position(|f| *f == k)
                    .map_or(String::new(), |i| fields[i + 2].to_string())
            };
            out.push((field("name"), field(if section == "workloads" { "why" } else { "unit" })));
        }
    }
    out.sort();
    out
}

#[test]
fn benchmark_json_names_the_workloads() {
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    ours.sort();
    assert_eq!(names, ours);
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let _pm = pm_lock();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "{section} is empty");
        for workload in Workload::ALL {
            let mut log = SpanLog::new(trace);
            let (m, tally) = run_workload(workload, 3, 0.3, 2_000, 2_000, &mut log)
                .expect("the tiny run completes");
            assert_eq!(tally.failed, 0, "{workload:?}");
            assert_eq!(m.units(), want, "{workload:?} trace={trace}");
        }
    }
}

/// Passes everything to the wrapped index, but answers its `wrong_at`-th get
/// with a wrong value.
struct OneWrongGet {
    inner: Arc<dyn Index>,
    gets: AtomicU64,
    wrong_at: u64,
}

impl Index for OneWrongGet {
    fn exec_insert(&self, key: &[u8], value: u64) -> Result<OpResult, OpError> {
        self.inner.exec_insert(key, value)
    }

    fn exec_get(&self, key: &[u8]) -> Option<u64> {
        let v = self.inner.exec_get(key);
        if self.gets.fetch_add(1, Ordering::Relaxed) == self.wrong_at {
            Some(v.map_or(1, |v| v ^ 2))
        } else {
            v
        }
    }

    fn exec_remove(&self, key: &[u8]) -> Result<OpResult, OpError> {
        self.inner.exec_remove(key)
    }

    fn exec_settle(&self) {
        self.inner.exec_settle();
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn index_name(&self) -> String {
        self.inner.index_name()
    }

    fn reclaimer(&self) -> Option<&Collector> {
        self.inner.reclaimer()
    }
}

#[test]
fn one_wrong_reply_is_one_failed_op() {
    let _pm = pm_lock();
    for wrong_at in [10, 1_000] {
        let index = Arc::new(OneWrongGet {
            inner: embedded::build("P-CLHT").unwrap(),
            gets: AtomicU64::new(0),
            wrong_at,
        });
        let mut log = SpanLog::new(false);
        let mut run = IndexRun::setup(index, "p-clht", Workload::PointRead, 2_000, 5, &mut log);
        run.window(0.05, &mut log);
        let tally = run.finish(&log, &mut Metrics::default());
        assert_eq!(tally.failed, 1, "wrong get #{wrong_at}");
        assert!(tally.attempted > 2_000);
    }
}

#[test]
fn one_client_counts_repeat_exactly() {
    let _pm = pm_lock();
    for workload in Workload::ALL {
        for (name, slug) in INDEXES {
            let pass = || counter_pass(&*embedded::build(name).unwrap(), workload, 9, 3_000, 3_000);
            let (a, ta) = pass();
            let (b, tb) = pass();
            assert_eq!((ta.failed, tb.failed), (0, 0), "{slug} {workload:?}");
            assert_eq!(a, b, "{slug} {workload:?}");
            assert_eq!(a.ops, 3_000);
            assert!(a.node_visits > 0, "{slug} {workload:?}");
        }
    }
}
