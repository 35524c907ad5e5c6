//! The result line, the host stamp, and memory readings.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Named metrics with their units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let prev = self.0.insert(name.clone(), (value, unit));
        assert!(prev.is_none(), "metric {name} reported twice");
    }

    /// `(name, unit)` of every metric, in name order.
    #[cfg(test)]
    pub fn units(&self) -> Vec<(String, String)> {
        self.0.iter().map(|(k, &(_, u))| (k.clone(), u.to_string())).collect()
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failed == 0,
            attempted.max(1),
            failed
        );
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host, toolchain and code identity, printed with every result so figures
/// from different hosts or commits are never compared unawares.
#[must_use]
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit =
        command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into());
    format!(
        "nproc={nproc} cpu={} simd={} rustc={} commit={commit}",
        json_str(&cpu),
        recipe::simd::kind_label(),
        json_str(&rustc)
    )
}

/// First line of a command's standard output, if it ran and succeeded. The
/// child is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 when empty).
#[must_use]
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.25, "s");
        m.put("mops.p-art", 2.0, "Mops/s");
        let line = m.result_line(10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"mops.p-art\": \
             {\"value\": 2.0, \"unit\": \"Mops/s\"}, \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(m.result_line(10, 1).starts_with("{\"correct\": false"));
    }

    #[test]
    fn medians() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
