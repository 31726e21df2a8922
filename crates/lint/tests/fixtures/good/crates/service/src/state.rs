//! Fixture: every class dispatched, no panic paths.

use super::wire::RequestClass;

pub fn dispatch(c: RequestClass) -> u32 {
    match c {
        RequestClass::Ping => 1,
        RequestClass::Stats => 2,
    }
}

pub fn safe(v: &[u32]) -> u32 {
    let first = v.first().copied().unwrap_or(0);
    let second = v.get(1).copied().unwrap_or(0);
    first + second
}
