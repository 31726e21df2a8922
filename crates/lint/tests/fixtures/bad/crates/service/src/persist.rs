//! Fixture: a panic path in the persistence half of the request path.

pub fn warm_start(stored: Option<u32>) -> u32 {
    stored.expect("fixture")
}
