//! Offline shim for the subset of the `proptest` API used by this
//! workspace: the [`Strategy`] trait with `prop_map`, integer range and
//! tuple strategies, `collection::vec`, a minimal `[class]{lo,hi}` string
//! strategy, `ProptestConfig::with_cases`, and the `proptest!`,
//! `prop_assert*!`, `prop_assume!` macros.
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! generated from a fixed deterministic seed (reproducible, no
//! persistence files), and there is no shrinking — a failing case panics
//! with the generated inputs left to the assertion message.

#![warn(missing_docs)]

/// Deterministic generator state used by strategies (SplitMix64).
pub struct TestRng {
    x: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { x: seed }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Marker returned by `prop_assume!` rejections.
pub struct TestCaseRejected;

/// A value generator (the shim's analogue of `proptest::strategy::
/// Strategy`; no shrinking, so `Value` is produced directly).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128).wrapping_sub(lo as u128) as u64 + 1;
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// Minimal regex-ish string strategy: supports exactly the pattern form
/// `[<class>]{lo,hi}` where `<class>` is a list of literal characters and
/// `a-z` ranges. Anything else panics at test time.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, lo, hi) = parse_char_class_pattern(self)
            .unwrap_or_else(|| panic!("proptest shim: unsupported string pattern {self:?}"));
        let n = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..n)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_char_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class_src: Vec<char> = rest[..close].chars().collect();
    let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = counts.split_once(',')?;
    let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    let mut class = Vec::new();
    let mut i = 0;
    while i < class_src.len() {
        if i + 2 < class_src.len() && class_src[i + 1] == '-' {
            let (a, b) = (class_src[i] as u32, class_src[i + 2] as u32);
            for c in a..=b {
                class.push(char::from_u32(c)?);
            }
            i += 3;
        } else {
            class.push(class_src[i]);
            i += 1;
        }
    }
    if class.is_empty() || hi < lo {
        return None;
    }
    Some((class, lo, hi))
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A `Vec` strategy with element strategy `element` and a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration (`cases` only).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Everything tests import.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `cases` deterministic cases (rejections
/// via `prop_assume!` do not count towards the case budget but are capped
/// at 20× `cases`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with $cfg; $($rest)*);
    };
    (@with $cfg:expr; $($(#[$meta:meta])+ fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                // Seed differs per property (name hash) but is stable
                // across runs.
                let mut seed: u64 = 0xcbf29ce484222325;
                for b in stringify!($name).bytes() {
                    seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
                }
                let mut rng = $crate::TestRng::new(seed);
                let mut ran: u32 = 0;
                let mut attempts: u32 = 0;
                while ran < cfg.cases {
                    attempts += 1;
                    assert!(
                        attempts <= cfg.cases.saturating_mul(20),
                        "proptest shim: too many prop_assume! rejections in {}",
                        stringify!($name)
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    #[allow(clippy::redundant_closure_call)]
                    let outcome = (|| -> ::core::result::Result<(), $crate::TestCaseRejected> {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                    if outcome.is_ok() {
                        ran += 1;
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// `assert!` that reports the property name on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// `assert_ne!` inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Rejects the current case without failing the test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseRejected);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseRejected);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn char_class_parsing() {
        let (class, lo, hi) = super::parse_char_class_pattern("[ -~]{0,60}").unwrap();
        assert_eq!(lo, 0);
        assert_eq!(hi, 60);
        assert_eq!(class.len(), 95); // printable ASCII
        assert!(class.contains(&'A') && class.contains(&' ') && class.contains(&'~'));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples((a, b) in (0u64..10, 2usize..4), v in crate::collection::vec(0u8..3, 1..5)) {
            prop_assert!(a < 10);
            prop_assert!((2..4).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 3));
        }

        #[test]
        fn assume_rejects_cleanly(x in 0u32..8) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn string_pattern(s in "[a-c]{1,4}") {
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }
}
