//! Prometheus-style text exposition for registry and window snapshots.
//!
//! Renders any [`RegistrySnapshot`] (plus ad-hoc labelled samples, e.g.
//! rolling-window quantiles) to the Prometheus text format (version
//! 0.0.4) using only `std::fmt` — the workspace stays zero-dep, and any
//! standard scraper can consume `GET /metrics` from the serve telemetry
//! endpoint.
//!
//! Mapping rules:
//!
//! * Metric names are sanitised to `[a-zA-Z_:][a-zA-Z0-9_:]*` — the
//!   registry's dotted names (`serve.e2e_ns`) become underscored
//!   (`serve_e2e_ns`); any other invalid character also maps to `_`, and
//!   a leading digit gains a `_` prefix.
//! * Label values escape `\`, `"` and newline per the exposition spec.
//! * Counters render as `# TYPE <name> counter`, gauges as `gauge`.
//! * Log₂ histograms render as cumulative `<name>_bucket{le="..."}`
//!   series (one bucket per non-empty log₂ bin, `le` the bin's inclusive
//!   upper bound, strictly increasing) terminated by `le="+Inf"`, plus
//!   `<name>_sum` and `<name>_count` — the standard Prometheus histogram
//!   contract, so `histogram_quantile()` works on the scrape unchanged.

use std::fmt::Write as _;

use crate::metrics::{
    bin_lower_bound, HistogramSnapshot, MetricSnapshot, RegistrySnapshot, HISTOGRAM_BINS,
};

/// Sanitises a registry metric name into a valid Prometheus metric name.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if valid {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// An in-progress text exposition. Append families, then [`finish`].
///
/// [`finish`]: Exposition::finish
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn labels(labels: &[(&str, String)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let body = labels
            .iter()
            .map(|(k, v)| format!("{}=\"{}\"", sanitize_metric_name(k), escape_label_value(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }

    /// Appends one counter family.
    pub fn counter(&mut self, name: &str, value: u64) {
        let name = sanitize_metric_name(name);
        self.type_line(&name, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends one gauge family.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let name = sanitize_metric_name(name);
        self.type_line(&name, "gauge");
        let _ = writeln!(self.out, "{name} {}", fmt_f64(value));
    }

    /// Appends one gauge sample with labels under an existing or new
    /// family (the `TYPE` line is emitted on the first sample of the
    /// family; callers group samples of one family together).
    pub fn labeled_gauge(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        let sane = sanitize_metric_name(name);
        let type_line = format!("# TYPE {sane} gauge\n");
        if !self.out.contains(&type_line) {
            self.out.push_str(&type_line);
        }
        let _ = writeln!(
            self.out,
            "{sane}{} {}",
            Self::labels(labels),
            fmt_f64(value)
        );
    }

    /// Appends one histogram family as cumulative `_bucket` series plus
    /// `_sum`/`_count`, with optional extra labels on every sample.
    pub fn histogram(&mut self, name: &str, snap: &HistogramSnapshot, labels: &[(&str, String)]) {
        let name = sanitize_metric_name(name);
        self.type_line(&name, "histogram");
        let extra = Self::labels(labels);
        // Strip the braces so `le` can join the caller's labels.
        let extra_inner = extra
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .map(|s| format!("{s},"))
            .unwrap_or_default();
        let mut cumulative = 0u64;
        for (b, &n) in snap.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            // The bin's inclusive upper bound; the top bin saturates at
            // u64::MAX and still gets a finite le before +Inf.
            let le = if b + 1 < HISTOGRAM_BINS {
                bin_lower_bound(b + 1) - 1
            } else {
                u64::MAX
            };
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{extra_inner}le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{extra_inner}le=\"+Inf\"}} {}",
            snap.count
        );
        let _ = writeln!(self.out, "{name}_sum{extra} {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count{extra} {}", snap.count);
    }

    /// Appends every metric of a registry snapshot, in name order.
    pub fn registry(&mut self, snapshot: &RegistrySnapshot) {
        for (name, metric) in &snapshot.metrics {
            match metric {
                MetricSnapshot::Counter(v) => self.counter(name, *v),
                MetricSnapshot::Gauge(v) => self.gauge(name, *v as f64),
                MetricSnapshot::Histogram(h) => self.histogram(name, h, &[]),
            }
        }
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Prometheus sample values are floats; render integers without a
/// fractional part and keep everything else shortest-roundtrip.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders a whole registry snapshot to exposition text — the one-call
/// form of [`Exposition`] used by `GET /metrics`.
pub fn render_registry(snapshot: &RegistrySnapshot) -> String {
    let mut expo = Exposition::new();
    expo.registry(snapshot);
    expo.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn names_sanitise_and_labels_escape() {
        assert_eq!(sanitize_metric_name("serve.e2e_ns"), "serve_e2e_ns");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c\"d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn golden_exposition_for_a_fixed_registry() {
        let reg = Registry::new();
        reg.counter("serve.requests").add(7);
        reg.gauge("build.sparse.bytes").set(4096);
        // Escaping-hostile name: dots, a dash and a quote all sanitise.
        let h = reg.histogram("weird-name.\"q\".ns");
        for v in [0u64, 1, 1, 100, 5000] {
            h.record(v);
        }
        let text = render_registry(&reg.snapshot());
        let expected = "\
# TYPE build_sparse_bytes gauge
build_sparse_bytes 4096
# TYPE serve_requests counter
serve_requests 7
# TYPE weird_name__q__ns histogram
weird_name__q__ns_bucket{le=\"0\"} 1
weird_name__q__ns_bucket{le=\"1\"} 3
weird_name__q__ns_bucket{le=\"127\"} 4
weird_name__q__ns_bucket{le=\"8191\"} 5
weird_name__q__ns_bucket{le=\"+Inf\"} 5
weird_name__q__ns_sum 5102
weird_name__q__ns_count 5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_parses_back() {
        let reg = Registry::new();
        reg.counter("a.count").add(3);
        reg.gauge("b.gauge").set(9);
        let h = reg.histogram("c.hist");
        h.record(3);
        h.record(900);
        let text = render_registry(&reg.snapshot());

        // Parse-it-back sanity: every line is either a comment or
        // `name[{labels}] value`, names are valid, `le` bounds strictly
        // increase and the cumulative counts are monotone, ending in a
        // +Inf bucket equal to _count.
        let mut samples = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                let kind = parts.next().unwrap();
                assert!(matches!(kind, "counter" | "gauge" | "histogram"));
                assert_eq!(sanitize_metric_name(name), name, "TYPE name already sane");
                continue;
            }
            let (key, value) = line.rsplit_once(' ').expect("sample line");
            let value: f64 = value.parse().expect("sample value parses");
            samples.push((key.to_string(), value));
        }
        let get = |k: &str| {
            samples
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing sample {k}"))
        };
        assert_eq!(get("a_count"), 3.0);
        assert_eq!(get("b_gauge"), 9.0);
        assert_eq!(get("c_hist_count"), 2.0);
        assert_eq!(get("c_hist_sum"), 903.0);
        let buckets: Vec<(u64, f64)> = samples
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix("c_hist_bucket{le=\"")?.strip_suffix("\"}")?;
                Some((le.parse().unwrap_or(u64::MAX), *v))
            })
            .collect();
        assert!(buckets.len() >= 3, "two bins plus +Inf");
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0 || w[1].0 == u64::MAX, "le increases");
            assert!(w[0].1 <= w[1].1, "cumulative counts are monotone");
        }
        assert_eq!(buckets.last().unwrap().1, get("c_hist_count"));
    }

    #[test]
    fn windowed_samples_join_one_family() {
        let mut expo = Exposition::new();
        expo.labeled_gauge("serve.e2e_p99_ns", &[("window", "1s".into())], 100.0);
        expo.labeled_gauge("serve.e2e_p99_ns", &[("window", "10s".into())], 250.0);
        let text = expo.finish();
        assert_eq!(
            text.matches("# TYPE serve_e2e_p99_ns gauge").count(),
            1,
            "one TYPE line per family"
        );
        assert!(text.contains("serve_e2e_p99_ns{window=\"1s\"} 100"));
        assert!(text.contains("serve_e2e_p99_ns{window=\"10s\"} 250"));
    }
}
