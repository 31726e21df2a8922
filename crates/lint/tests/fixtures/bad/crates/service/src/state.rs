//! Fixture: panic paths on the service files, plus a dispatch that
//! skips RequestClass::Orphan.

use super::wire::RequestClass;

pub fn dispatch(c: RequestClass) -> u32 {
    match c {
        RequestClass::Ping => 1,
        RequestClass::Stats => 2,
    }
}

pub fn broken(v: &[u32]) -> u32 {
    let first = v[0];
    let second = v.get(1).unwrap();
    let third = v.get(2).expect("fixture");
    if first > second {
        panic!("fixture");
    }
    first + second + third
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_in_tests_are_legal() {
        let v = vec![1u32];
        assert_eq!(v[0], 1);
        v.get(0).unwrap();
    }
}
