//! Exporters: Prometheus text exposition and stable JSON.

use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format
/// (version 0.0.4). Metric families appear in name order; histograms
/// emit cumulative `_bucket{le=...}` series plus `_sum` and `_count`,
/// with a final `le="+Inf"` bucket. Output is deterministic: same
/// snapshot → same bytes.
pub fn to_prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (upper, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// Minimal structural validation of Prometheus text: every non-comment
/// line must be `name[{labels}] value` with a legal metric name and a
/// numeric value, every series must be preceded by a `# TYPE`
/// declaration for its family, no family may be declared twice, and a
/// histogram's bucket counts must be cumulative. Returns the number of
/// samples on success. This is the one check of the exported file
/// (`quick_metered_run_yields_report` runs it on the quick preset's
/// exposition).
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    // Family and count of the previous `_bucket` line.
    let mut last_bucket: Option<(&str, f64)> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without name", lineno + 1))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without kind", lineno + 1))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {}: unknown metric kind {kind}", lineno + 1));
            }
            if declared.iter().any(|d| d == name) {
                return Err(format!("line {}: family {name} declared twice", lineno + 1));
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line}", lineno + 1))?;
        let value = value
            .parse::<f64>()
            .map_err(|_| format!("line {}: non-numeric value {value}", lineno + 1))?;
        let base = series.split('{').next().unwrap_or(series);
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if !base.chars().all(legal) || base.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(format!("line {}: bad metric name {base}", lineno + 1));
        }
        let family = base
            .strip_suffix("_bucket")
            .or_else(|| base.strip_suffix("_sum"))
            .or_else(|| base.strip_suffix("_count"))
            .filter(|f| declared.iter().any(|d| d == f))
            .unwrap_or(base);
        if !declared.iter().any(|d| d == family) {
            return Err(format!(
                "line {}: series {series} has no # TYPE declaration",
                lineno + 1
            ));
        }
        if base.ends_with("_bucket") && family != base {
            if matches!(last_bucket, Some((f, prev)) if f == family && value < prev) {
                return Err(format!(
                    "line {}: {family} buckets not cumulative",
                    lineno + 1
                ));
            }
            last_bucket = Some((family, value));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut r = MetricsRegistry::new();
        r.counter_add(names::CHKPT_FAULTS_TOTAL, 3);
        r.gauge_max(names::LINK_PEAK_BYTES_PER_S, 1024);
        r.observe(names::CHKPT_FAULT_NS, 100);
        r.observe(names::CHKPT_FAULT_NS, 5000);
        r.snapshot()
    }

    #[test]
    fn prometheus_text_round_trips_validation() {
        let text = to_prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE chkpt_faults_total counter"));
        assert!(text.contains("chkpt_faults_total 3"));
        assert!(text.contains("# TYPE link_peak_bytes_per_s gauge"));
        assert!(text.contains("# TYPE chkpt_fault_ns histogram"));
        assert!(text.contains("chkpt_fault_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("chkpt_fault_ns_sum 5100"));
        assert!(text.contains("chkpt_fault_ns_count 2"));
        let samples = validate_prometheus_text(&text).expect("renderer output must validate");
        // 1 counter + 1 gauge + (2 buckets + Inf + sum + count).
        assert_eq!(samples, 7);
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = to_prometheus_text(&sample_snapshot());
        assert!(text.contains("chkpt_fault_ns_bucket{le=\"127\"} 1"));
        assert!(text.contains("chkpt_fault_ns_bucket{le=\"8191\"} 2"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus_text("").is_err());
        assert!(validate_prometheus_text("no_type_decl 1\n").is_err());
        assert!(validate_prometheus_text("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_prometheus_text("# TYPE x widget\nx 1\n").is_err());
        assert!(validate_prometheus_text("# TYPE x-y counter\nx-y 1\n").is_err());
        let shrinking = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\n";
        assert!(validate_prometheus_text(shrinking).is_err());
        let redeclared = "# TYPE x counter\nx 1\n# TYPE x gauge\nx 2\n";
        assert!(validate_prometheus_text(redeclared).is_err());
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = to_prometheus_text(&sample_snapshot());
        let b = to_prometheus_text(&sample_snapshot());
        assert_eq!(a, b);
    }
}
