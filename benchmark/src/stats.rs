//! Estimators and the METRICS/STATS parsers.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unordered sample (mean of the two middle values when the
/// count is even). Empty input reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One timed window: some stream items sent and answered with nothing
/// else on the clock, bracketed by two probes of the box's speed.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub items: usize,
    pub span_ns: u64,
    /// [`crate::refkernel::slowness`] of the box around this window.
    pub slowness: f64,
}

/// What a run reports. Time is corrected window by window for the
/// slowness of the box around it (see [`crate::refkernel`]): the clock
/// behind `req_per_s` advances by `span / slowness`, and every latency
/// is divided by its window's slowness before the percentiles are taken
/// over the whole run. The uncorrected figures ride along for the reader.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSummary {
    pub req_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub raw_req_per_s: f64,
    pub raw_p50_us: f64,
    /// Time-weighted slowness of the box over the run.
    pub slowness: f64,
    pub windows: usize,
    pub items: usize,
}

/// `lat_us` holds one `(raw, corrected)` latency per item (a BATCH
/// frame's latency counts for each item it carried).
pub fn summarise(windows: &[Window], lat_us: &[(f64, f64)]) -> RunSummary {
    let items: usize = windows.iter().map(|w| w.items).sum();
    if items == 0 || lat_us.is_empty() {
        return RunSummary::default();
    }
    let raw_s: f64 = windows.iter().map(|w| w.span_ns as f64 / 1e9).sum();
    let corrected_s: f64 = windows
        .iter()
        .map(|w| w.span_ns as f64 / 1e9 / w.slowness)
        .sum();
    let mut raw: Vec<f64> = lat_us.iter().map(|l| l.0).collect();
    let mut corrected: Vec<f64> = lat_us.iter().map(|l| l.1).collect();
    raw.sort_by(f64::total_cmp);
    corrected.sort_by(f64::total_cmp);
    RunSummary {
        req_per_s: items as f64 / corrected_s,
        p50_us: percentile(&corrected, 0.50),
        p99_us: percentile(&corrected, 0.99),
        raw_req_per_s: items as f64 / raw_s,
        raw_p50_us: percentile(&raw, 0.50),
        slowness: raw_s / corrected_s,
        windows: windows.len(),
        items,
    }
}

/// A METRICS exposition as `series → value` (`# TYPE` lines and anything
/// unparseable are skipped: a row the server stops reporting is simply
/// absent, never an error).
pub fn parse_exposition(lines: &[String]) -> BTreeMap<String, f64> {
    lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// `after[key] − before[key]`; `None` when the row is missing on either
/// side.
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    key: &str,
) -> Option<f64> {
    Some(after.get(key)? - before.get(key)?)
}

/// Sum of a STATS field that is either a number or a comma-separated
/// per-stripe list; `None` when the field is absent or malformed.
pub fn stats_sum(fields: &[(String, String)], key: &str) -> Option<f64> {
    let (_, value) = fields.iter().find(|(k, _)| k == key)?;
    value.split(',').map(|t| t.parse::<f64>().ok()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median_on_known_data() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slow_phases_cancel_out_of_the_summary() {
        // Windows of 100 requests at 100 µs each on a quiet box (one
        // request in each takes 400 µs); the box runs 1x, 3x, 1x, 10x
        // and 2x slower around them and the probes see exactly that.
        let mut windows = Vec::new();
        let mut lat = Vec::new();
        for slow in [1.0, 3.0, 1.0, 10.0, 2.0] {
            windows.push(Window {
                items: 100,
                span_ns: (100.0 * 100_000.0 * slow) as u64,
                slowness: slow,
            });
            for i in 0..100 {
                let quiet = if i == 99 { 400.0 } else { 100.0 };
                lat.push((quiet * slow, quiet));
            }
        }
        let s = summarise(&windows, &lat);
        assert!((s.req_per_s - 10_000.0).abs() < 1e-6, "{}", s.req_per_s);
        assert_eq!(s.p50_us, 100.0);
        // 500 samples, 5 of them slow: the 99th percentile sits just
        // below them.
        assert_eq!(s.p99_us, 100.0);
        // Uncorrected, the same run reads 3.4x slower.
        assert!((s.raw_req_per_s - 10_000.0 / 3.4).abs() < 1e-6);
        assert!((s.slowness - 3.4).abs() < 1e-9);
        assert_eq!((s.windows, s.items), (5, 500));
        assert_eq!(summarise(&[], &[]).req_per_s, 0.0);
    }

    #[test]
    fn exposition_deltas_tolerate_missing_rows() {
        let lines = |solve: Option<u64>| -> Vec<String> {
            let mut l = vec![
                "# TYPE softhw_stage_duration_us histogram".to_string(),
                "softhw_stage_duration_us_sum{stage=\"queue_wait\"} 78".to_string(),
                "garbage-without-value".to_string(),
            ];
            if let Some(v) = solve {
                l.push(format!(
                    "softhw_stage_duration_us_sum{{stage=\"solve\"}} {v}"
                ));
            }
            l
        };
        let before = parse_exposition(&lines(Some(100)));
        let after = parse_exposition(&lines(Some(350)));
        let key = "softhw_stage_duration_us_sum{stage=\"solve\"}";
        assert_eq!(delta(&before, &after, key), Some(250.0));
        // The server stopped reporting the stage: absent, not an error.
        assert_eq!(delta(&before, &parse_exposition(&lines(None)), key), None);
        assert_eq!(delta(&before, &after, "softhw_never_existed"), None);
    }

    #[test]
    fn stats_lists_are_summed() {
        let fields = vec![
            ("result_cache_hits".to_string(), "1,0,5,0".to_string()),
            ("busy_shed".to_string(), "3".to_string()),
            ("broken".to_string(), "1,x".to_string()),
        ];
        assert_eq!(stats_sum(&fields, "result_cache_hits"), Some(6.0));
        assert_eq!(stats_sum(&fields, "busy_shed"), Some(3.0));
        assert_eq!(stats_sum(&fields, "broken"), None);
        assert_eq!(stats_sum(&fields, "absent"), None);
    }
}
