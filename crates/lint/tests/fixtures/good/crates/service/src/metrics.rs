//! Fixture: rows emitted for everything the tests and CI read, every
//! metric documented in the README.

pub fn stats_response() -> String {
    let mut s = String::new();
    s.push_str("requests_total");
    s.push_str("uptime_ms");
    s
}

pub fn metric_registry() -> Vec<(&'static str, &'static str)> {
    vec![("softhw_requests_total", "requests_total")]
}

pub fn metrics_response() -> String {
    let mut s = String::new();
    s.push_str("# TYPE softhw_requests_total counter\n");
    s.push_str("softhw_uptime_ms 0\n");
    s
}
