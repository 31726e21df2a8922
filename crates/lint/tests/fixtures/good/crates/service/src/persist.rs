//! Fixture: the persistence half of the request path degrades instead
//! of panicking.

pub fn warm_start(stored: Option<u32>) -> u32 {
    stored.unwrap_or(0)
}
