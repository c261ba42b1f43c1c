//! The one-line JSON result the benchmark prints last.

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Escapes `s` as a JSON string body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
/// JSON has no NaN or infinity, so a non-finite value is written as 0;
/// the caller reports such a run as incorrect.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                json_escape(m.name),
                json_escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_matches_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn values_keep_all_their_digits_and_stay_numbers() {
        let line = result_line(true, 1, 0, &[Metric::new("x", 1.0 / 3.0, "s")]);
        assert!(line.contains("\"value\": 0.3333333333333333,"), "{line}");
        // Whole values still read as JSON numbers with a fraction.
        let line = result_line(true, 1, 0, &[Metric::new("n", 42.0, "count")]);
        assert!(line.contains("\"value\": 42.0,"), "{line}");
    }

    #[test]
    fn non_finite_value_is_still_valid_json() {
        let line = result_line(false, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
        assert!(line.contains("\"value\": 0.0,"), "{line}");
    }

    #[test]
    fn escapes_quotes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
