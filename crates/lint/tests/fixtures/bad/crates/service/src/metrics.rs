//! Fixture: the STATS/METRICS surface, drifted from README, tests and
//! CI — and a slice index, because this file is on the request path.

pub fn stats_response(rows: &[String]) -> String {
    let mut s = rows[0].clone();
    s.push_str("requests_total");
    s.push_str("uptime_ms");
    s
}

pub fn metric_registry() -> Vec<(&'static str, &'static str)> {
    // The metric name is absent from README.md: sub-check 5 must fire.
    vec![("softhw_phantom_metric_total", "requests_total")]
}
