//! `pmbench`: the end-to-end and per-layer benchmark of the PM indexes and
//! the sharded service.
//!
//! ```text
//! cargo run --release --offline --manifest-path pmbench/Cargo.toml -- \
//!     --workload <point-read|point-write|zipf-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a traffic mix. Under it the benchmark sets up the nine PM
//! indexes and a two-shard P-CLHT `Service` (whose preload rate is its
//! saturated throughput), then measures in rounds: two closed-loop clients
//! drive each index through session `Handle`s and, in the traced run, the
//! service through `Service::call`. Every reply and the final contents are
//! checked against the clients' key models. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is a separate traced run that prints the
//! per-layer metrics and writes its spans to `pmbench/out/`. `METRICS.md`
//! says which end-to-end metric each per-layer metric should move.
//!
//! The last line of standard output is the result object; the exit code is 0
//! only if every reply was right.

mod drive;
mod embedded;
mod gen;
mod heap;
mod report;
#[cfg(test)]
mod selftest;
mod svc;
mod trace;

use drive::{Budget, Tally};
use embedded::IndexRun;
use gen::{OpGen, Workload, CLIENTS};
use report::Metrics;
use std::process::ExitCode;
use svc::SvcRun;
use trace::SpanLog;

#[global_allocator]
static GLOBAL: heap::Counting = heap::Counting;

/// The PM cost model, as constants: a recalibration of the crate's defaults
/// must not read as a speedup. clwb 120 ns, fence 180 ns, node-visit read
/// 40 ns, eADR off.
const MODEL: pm::latency::Model =
    pm::latency::Model { clwb_ns: 120, fence_ns: 180, read_ns: 40, eadr: false };

/// Keys preloaded into the service on every workload; the preload's rate is
/// the service's saturated throughput, measured over about 1.5 s.
const SVC_PRELOAD: u64 = 1_000_000;

/// Shares of `--seconds` the nine indexes' windows and the service's
/// closed-loop windows get in the traced run. The untraced run gives all of
/// it to the indexes.
const TRACED_SHARES: (f64, f64) = (2.0 / 3.0, 1.0 / 3.0);
/// Measure rounds. Every target gets one window per round and reports its
/// median window, so a burst of host contention costs each target one window
/// instead of costing some targets their whole measurement.
const ROUNDS: usize = 10;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value:?} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `RECIPE_*` variables switch code paths (SIMD search, the event ring,
/// service sizing, the cost model), so a run under any of them would not
/// measure the program the benchmark describes.
fn refuse_recipe_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RECIPE_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Load and exercise a throwaway index before anything is timed: the first
/// index of a process otherwise loads markedly slower (fresh heap pages).
fn warm_up(seed: u64) -> Result<Tally, String> {
    let index = embedded::build("P-ART")?;
    let mut gens: Vec<OpGen> =
        (0..CLIENTS).map(|c| OpGen::new(Workload::PointWrite, !seed, c, 200_000)).collect();
    let mut t = embedded::preload(&*index, &gens, false, 0, "warm-up").0;
    t.add(embedded::measure(&*index, &mut gens, Budget::Ops(100_000), false, 0, "warm-up").tally);
    t.add(embedded::verify(&*index, &gens, "warm-up"));
    Ok(t)
}

/// Every target under `workload`: set up the nine indexes and the service,
/// measure them in rounds, then check them. Returns the metrics of the run's
/// mode (end-to-end, or per-layer when `log` traces).
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    preload: u64,
    svc_preload: u64,
    log: &mut SpanLog,
) -> Result<(Metrics, Tally), String> {
    let steal0 = drive::steal_ticks();
    let mut setup_s = 0.0;
    let mut indexes = Vec::new();
    for (name, slug) in embedded::INDEXES {
        let run = IndexRun::setup(embedded::build(name)?, slug, workload, preload, seed, log);
        setup_s += run.setup_s;
        indexes.push(run);
    }
    let mut svc = SvcRun::setup(workload, svc_preload, seed, log)?;
    setup_s += svc.setup_s;

    // The service's closed loop only gives per-layer figures, so only the
    // traced run spends time on it.
    let (index_share, svc_share) = if log.on() { TRACED_SHARES } else { (1.0, 0.0) };
    let index_secs = seconds * index_share / (indexes.len() * ROUNDS) as f64;
    for _ in 0..ROUNDS {
        for run in &mut indexes {
            run.window(index_secs, log);
        }
        if svc_share > 0.0 {
            svc.window(seconds * svc_share / ROUNDS as f64, log);
        }
    }

    println!(
        "pmbench: the host stole {} ticks of CPU time during set-up and measurement",
        drive::steal_ticks().saturating_sub(steal0)
    );
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut slowdowns = Vec::new();
    let show = |w: &drive::Windows, scale: f64| {
        w.windows.iter().map(|x| format!("{:.3}", x.rate / scale)).collect::<Vec<_>>().join(" ")
    };
    for run in indexes {
        println!(
            "pmbench: {:>13} setup {:.3}s windows [{}] Mops/s",
            run.slug,
            run.setup_s,
            show(&run.plain, 1e6)
        );
        if log.on() {
            slowdowns.push(run.plain.rate() / run.traced.rate());
        }
        tally.add(run.finish(log, &mut m));
    }
    println!(
        "pmbench: {:>13} setup {:.3}s ingest {:.1} kops/s, closed-loop windows [{}] kops/s",
        "svc",
        svc.setup_s,
        svc.ingest_rate / 1e3,
        show(&svc.plain, 1e3)
    );
    tally.add(svc.finish(log, &mut m));
    if log.on() {
        let geo = slowdowns.iter().map(|s| s.ln()).sum::<f64>() / slowdowns.len() as f64;
        m.put("trace_overhead.index_tput_pct", (geo.exp() - 1.0) * 100.0, "%");
    } else {
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    Ok((m, tally))
}

/// Print each index's exact one-client counts (see
/// [`embedded::counter_pass`]); runs while nothing else touches PM.
fn print_exact_counts(workload: Workload, seed: u64) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for (name, slug) in embedded::INDEXES {
        let index = embedded::build(name)?;
        let (c, t) = embedded::counter_pass(&*index, workload, seed, 20_000, 20_000);
        println!(
            "pmbench: exact {slug:>13} ops {} fence {} node_visits {} probes {}",
            c.ops, c.fence, c.node_visits, c.probes
        );
        tally.add(t);
    }
    Ok(tally)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    refuse_recipe_env()?;
    if args.trace {
        heap::enable();
    }
    MODEL.install();
    let stamp = report::stamp();
    let workload = args.workload;
    let preload = workload.preload();
    println!(
        "pmbench: {stamp} inputs={:#018x}",
        gen::op_digest(workload, args.seed, preload, 1_000)
    );
    let mut tally = warm_up(args.seed)?;
    let mut log = SpanLog::new(args.trace);
    let (m, t) = run_workload(workload, args.seed, args.seconds, preload, SVC_PRELOAD, &mut log)?;
    tally.add(t);
    if args.trace {
        tally.add(print_exact_counts(workload, args.seed)?);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/trace-{}.jsonl", workload.name()));
        log.write(&path, &stamp).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("pmbench: {} spans written to {}", log.len(), path.display());
    }
    println!("{}", m.result_line(tally.attempted, tally.failed));
    Ok(if tally.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    result.unwrap_or_else(|e| {
        eprintln!("pmbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(args("--workload zipf-mixed --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::ZipfMixed, seed: 7, seconds: 12.0, trace: true });
        assert!(parse_args(args("--workload nope --seed 7 --seconds 12 --trace 0")).is_err());
        assert!(parse_args(args("--workload point-read --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(args("--workload point-read --seconds 3")).is_err());
        assert!(parse_args(args("--workload point-read --seed 1 --seconds 3 --trace 2")).is_err());
    }
}
