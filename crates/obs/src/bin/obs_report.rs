//! Offline analyzer for qec-obs traces and qec-bench artifacts.
//!
//! Two modes, both read-only:
//!
//! ```text
//! obs_report --trace <trace.jsonl> [--collapse]
//! obs_report --bench <BENCH_A.json> [<BENCH_B.json> ...]
//! ```
//!
//! `--trace` rolls a JSON-lines trace up per span name (count, total
//! time, *self* time with direct children subtracted, mean) and prints
//! the critical path — the chain from the longest root span down
//! through each longest child. With `--collapse` it instead emits
//! flamegraph collapsed-stack lines (`root;child;leaf self_ns`), one
//! per unique stack, ready for `flamegraph.pl` or any compatible
//! renderer.
//!
//! `--bench` reads one or more qec-bench artifacts and prints each
//! component's `per_iter_ns` and ratio (`speedup`, `overhead_ratio`,
//! `latency_ratio`) trajectory, artifacts ordered by `pr` (artifacts
//! without one last, labelled by their path). A ratio is flagged only when
//! its latest median lies outside the `[q1, q3]` band of the best record
//! that carries one (schema 3); records without a band are listed but
//! never serve as the reference. Flags are informational: historical regressions must not
//! fail CI smoke runs, so the exit code only reflects unreadable or
//! malformed inputs.

use qec_obs::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: obs_report --trace <trace.jsonl> [--collapse]\n       obs_report --bench <BENCH.json>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--trace") => {
            let Some(path) = args.get(1) else {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            };
            let collapse = args.iter().any(|a| a == "--collapse");
            report_trace(path, collapse)
        }
        Some("--bench") if args.len() > 1 => report_bench(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// --trace
// ---------------------------------------------------------------------------

struct Span {
    id: u64,
    name: String,
    parent: Option<u64>,
    dur_ns: u64,
}

fn report_trace(path: &str, collapse: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("obs_report: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut spans: Vec<Span> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = match JsonValue::parse(line) {
            Ok(event) => event,
            Err(err) => {
                eprintln!("obs_report: {path}:{}: {err}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        if event.get("type").and_then(JsonValue::as_str) != Some("span_close") {
            continue;
        }
        let (Some(id), Some(name), Some(dur_ns)) = (
            event.get("id").and_then(JsonValue::as_u64),
            event.get("name").and_then(JsonValue::as_str),
            event.get("dur_ns").and_then(JsonValue::as_u64),
        ) else {
            eprintln!(
                "obs_report: {path}:{}: span_close missing id/name/dur_ns",
                lineno + 1
            );
            return ExitCode::FAILURE;
        };
        spans.push(Span {
            id,
            name: name.to_string(),
            parent: event.get("parent").and_then(JsonValue::as_u64),
            dur_ns,
        });
    }
    if spans.is_empty() {
        eprintln!("obs_report: {path}: no span_close events");
        return ExitCode::FAILURE;
    }

    // Direct-children total per span id, for self-time attribution.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_default() += span.dur_ns;
        }
    }
    let self_ns = |span: &Span| {
        span.dur_ns
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0))
    };

    if collapse {
        print_collapsed(&spans, self_ns);
        return ExitCode::SUCCESS;
    }

    // Per-name rollup.
    struct Rollup {
        count: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let mut rollup: BTreeMap<&str, Rollup> = BTreeMap::new();
    for span in &spans {
        let entry = rollup.entry(&span.name).or_insert(Rollup {
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += span.dur_ns;
        entry.self_ns += self_ns(span);
    }
    let mut rows: Vec<(&str, Rollup)> = rollup.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    let name_width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    println!(
        "{} spans, {} distinct names ({path})",
        spans.len(),
        rows.len()
    );
    println!(
        "{:<name_width$}  {:>8}  {:>14}  {:>14}  {:>12}",
        "name", "count", "total_ns", "self_ns", "mean_ns"
    );
    for (name, r) in &rows {
        println!(
            "{:<name_width$}  {:>8}  {:>14}  {:>14}  {:>12}",
            name,
            r.count,
            r.total_ns,
            r.self_ns,
            r.total_ns / r.count
        );
    }

    // Critical path: from the longest root, follow the longest child.
    let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in &spans {
        if let Some(parent) = span.parent.filter(|p| known.contains(p)) {
            children.entry(parent).or_default().push(span);
        }
    }
    let root = spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !known.contains(&p)))
        .max_by_key(|s| s.dur_ns)
        .expect("non-empty span set has a root");
    println!("\ncritical path:");
    let mut node = root;
    loop {
        let pct = 100.0 * node.dur_ns as f64 / root.dur_ns.max(1) as f64;
        println!("  {} {} ns ({pct:.1}% of root)", node.name, node.dur_ns);
        match children
            .get(&node.id)
            .and_then(|c| c.iter().max_by_key(|s| s.dur_ns))
        {
            Some(next) => node = next,
            None => break,
        }
    }
    ExitCode::SUCCESS
}

/// Flamegraph collapsed-stack output: `a;b;c self_ns`, aggregated over
/// identical stacks. Spans whose parent never closed root their own
/// stack.
fn print_collapsed(spans: &[Span], self_ns: impl Fn(&Span) -> u64) {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in spans {
        let mut frames = vec![span.name.as_str()];
        let mut cursor = span.parent;
        while let Some(parent) = cursor.and_then(|p| by_id.get(&p)) {
            frames.push(parent.name.as_str());
            cursor = parent.parent;
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_default() += self_ns(span);
    }
    for (stack, ns) in &stacks {
        println!("{stack} {ns}");
    }
}

// ---------------------------------------------------------------------------
// --bench
// ---------------------------------------------------------------------------

/// Ratio fields a gate record can carry, and whether higher is better.
const RATIOS: [(&str, bool); 3] = [
    ("speedup", true),
    ("overhead_ratio", false),
    ("latency_ratio", false),
];

/// One artifact's reading of a field: its label, value and, for schema-3
/// ratio fields, the recorded `[q1, q3]` band.
struct Reading {
    label: String,
    value: f64,
    band: Option<(f64, f64)>,
}

fn report_bench(paths: &[String]) -> ExitCode {
    let mut artifacts = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("obs_report: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        match JsonValue::parse(&text) {
            Ok(doc) => artifacts.push((path.clone(), doc)),
            Err(err) => {
                eprintln!("obs_report: {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    match bench_report(artifacts) {
        Ok((lines, _)) => {
            lines.iter().for_each(|line| println!("{line}"));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("obs_report: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The `--bench` report lines and the number of regression flags.
/// Artifacts are ordered by `pr`; those without one sort last, in input
/// order, labelled by their path. Each component's `per_iter_ns` and ratio
/// trajectories are listed, and a ratio is flagged only when the latest
/// median lies outside the `[q1, q3]` band of the best record that has
/// one; records without a band (schema ≤ 2) are listed, never compared.
fn bench_report(mut artifacts: Vec<(String, JsonValue)>) -> Result<(Vec<String>, usize), String> {
    artifacts.sort_by_key(|(_, doc)| {
        doc.get("pr")
            .and_then(JsonValue::as_u64)
            .unwrap_or(u64::MAX)
    });
    let mut trajectories: BTreeMap<(String, &str), Vec<Reading>> = BTreeMap::new();
    for (path, doc) in &artifacts {
        let records = doc
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{path}: not a BENCH artifact (need records)"))?;
        let label = match doc.get("pr").and_then(JsonValue::as_u64) {
            Some(pr) => format!("pr{pr}"),
            None => path.clone(),
        };
        for record in records {
            let Some(component) = record.get("component").and_then(JsonValue::as_str) else {
                continue;
            };
            let fields = std::iter::once("per_iter_ns").chain(RATIOS.iter().map(|&(f, _)| f));
            for field in fields {
                let num = |key: &str| record.get(key).and_then(JsonValue::as_f64);
                let Some(value) = num(field) else { continue };
                let band = num(&format!("{field}_q1")).zip(num(&format!("{field}_q3")));
                let reading = Reading {
                    label: label.clone(),
                    value,
                    band,
                };
                trajectories
                    .entry((component.to_string(), field))
                    .or_default()
                    .push(reading);
            }
        }
    }
    let mut lines = vec![format!(
        "{} artifacts ({}), {} trajectories",
        artifacts.len(),
        artifacts
            .iter()
            .map(|(path, _)| path.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        trajectories.len()
    )];
    let mut flags = 0;
    for ((component, field), readings) in &trajectories {
        let path: Vec<String> = readings
            .iter()
            .map(|r| format!("{} {}", r.label, r.value))
            .collect();
        lines.push(format!("{component} {field}: {}", path.join(" -> ")));
        let Some(&(_, higher_better)) = RATIOS.iter().find(|(f, _)| f == field) else {
            continue;
        };
        let better = |x: &&Reading, y: &&Reading| {
            let order = x.value.total_cmp(&y.value);
            if higher_better {
                order
            } else {
                order.reverse()
            }
        };
        let banded = readings.iter().filter(|r| r.band.is_some());
        let (Some(latest), Some(best)) = (readings.last(), banded.max_by(better)) else {
            continue;
        };
        let (q1, q3) = best.band.expect("filtered to banded readings");
        if latest.value < q1 || latest.value > q3 {
            flags += 1;
            lines.push(format!(
                "  !! {} at {} lies outside [{q1}, {q3}] of the best, {} at {}",
                latest.value, latest.label, best.value, best.label
            ));
        }
    }
    lines.push(format!(
        "{flags} regression flag(s) (informational; latest median outside the best banded record's IQR)"
    ));
    Ok((lines, flags))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(path: &str, head: &str, record: &str) -> (String, JsonValue) {
        let text = format!(r#"{{{head}"records":[{{"component":"gate",{record}}}]}}"#);
        (
            path.to_string(),
            JsonValue::parse(&text).expect("test artifact parses"),
        )
    }

    fn flags(latest: &str) -> (Vec<String>, usize) {
        let best = artifact(
            "best.json",
            r#""pr":12,"bench_schema":3,"#,
            r#""speedup":3.0,"speedup_q1":2.8,"speedup_q3":3.2"#,
        );
        // Listed first but sorted last: it has no `pr`.
        let current = artifact("target/bench.json", r#""bench_schema":3,"#, latest);
        bench_report(vec![current, best]).expect("report builds")
    }

    #[test]
    fn bench_flags_only_outside_the_best_records_band() {
        let (lines, n) = flags(r#""speedup":2.9,"speedup_q1":2.7,"speedup_q3":3.1"#);
        assert_eq!(n, 0, "{lines:?}");
        assert!(lines.contains(&"gate speedup: pr12 3 -> target/bench.json 2.9".to_string()));

        let (lines, n) = flags(r#""speedup":2.5,"speedup_q1":2.4,"speedup_q3":2.6"#);
        assert_eq!(n, 1, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.contains("2.5 at target/bench.json lies outside [2.8, 3.2]")));

        // Lower is better for overhead ratios.
        let best = artifact(
            "a.json",
            r#""pr":3,"#,
            r#""overhead_ratio":1.0,"overhead_ratio_q1":0.98,"overhead_ratio_q3":1.02"#,
        );
        let latest = artifact("b.json", "", r#""overhead_ratio":1.05"#);
        assert_eq!(
            bench_report(vec![best, latest]).expect("report builds").1,
            1
        );
    }

    #[test]
    fn bench_lists_schema_2_records_without_a_flag() {
        let old = artifact(
            "BENCH_9.json",
            r#""pr":9,"bench_schema":2,"#,
            r#""speedup":4.0,"per_iter_ns":100"#,
        );
        let new = artifact(
            "target/bench.json",
            r#""bench_schema":3,"#,
            r#""speedup":2.0,"speedup_q1":1.9,"speedup_q3":2.1"#,
        );
        let (lines, n) = bench_report(vec![new.clone(), old.clone()]).expect("report builds");
        assert_eq!(n, 0, "no banded record beats the latest: {lines:?}");
        assert!(lines.contains(&"gate speedup: pr9 4 -> target/bench.json 2".to_string()));
        assert!(lines.contains(&"gate per_iter_ns: pr9 100".to_string()));

        // A faster schema-2 record does not hide a banded baseline.
        let baseline = artifact(
            "BENCH_11.json",
            r#""pr":11,"bench_schema":3,"#,
            r#""speedup":3.0,"speedup_q1":2.9,"speedup_q3":3.1"#,
        );
        let (lines, n) = bench_report(vec![new, old, baseline]).expect("report builds");
        assert_eq!(n, 1, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.contains("outside [2.9, 3.1] of the best, 3 at pr11")));
    }
}
