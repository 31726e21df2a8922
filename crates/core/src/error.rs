//! The non-panicking error type of the decomposition entry points.
//!
//! A long-lived decomposition service cannot tolerate the library
//! `panic!`ing on internal disagreement: one malformed or adversarial
//! request must degrade to an error response (or a cold recompute), not
//! kill the process and every in-flight request with it. [`DecompError`]
//! is the single `Result` error threaded through the `cache`, `shw`,
//! and `ctd` entry points:
//!
//! - [`DecompError::Limit`] — candidate-bag generation tripped a
//!   [`SoftLimits`](crate::soft::SoftLimits) guard (combinatorial
//!   blow-up; the request is too wide for the configured budget);
//! - [`DecompError::Internal`] — an internal invariant (a satisfied
//!   block without a basis, a sweep no width accepts) failed to
//!   hold. In debug builds these still `debug_assert!`; in release the
//!   request fails with this error instead of taking the process down;
//! - [`DecompError::DeadlineExceeded`] / [`DecompError::Canceled`] — a
//!   [`Budget`](crate::budget::Budget) tripped. These are *not*
//!   internal: nothing is inconsistent, the caller ran out of time (or
//!   asked to stop), so caches must not evict or memoise — they leave
//!   state untouched and propagate.

use crate::soft::LimitExceeded;
use std::fmt;

/// Why a decomposition entry point could not produce an answer. See the
/// module docs for the recovery contract per variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// Candidate-bag generation exceeded its [`crate::soft::SoftLimits`].
    Limit(LimitExceeded),
    /// An internal invariant did not hold; the computation was abandoned
    /// rather than continued on inconsistent state.
    Internal {
        /// Which invariant failed.
        what: &'static str,
    },
    /// A [`Budget`](crate::budget::Budget) deadline or work cap expired
    /// before the computation finished.
    DeadlineExceeded,
    /// The computation was cooperatively cancelled through its
    /// [`Budget`](crate::budget::Budget)'s cancel flag.
    Canceled,
}

impl DecompError {
    /// Shorthand constructor for invariant failures.
    pub fn internal(what: &'static str) -> Self {
        DecompError::Internal { what }
    }

    /// True iff this error came from a tripped
    /// [`Budget`](crate::budget::Budget) (deadline, work cap, or
    /// cancellation). Budget errors are transient: nothing is wrong with
    /// the input or the cached state, so callers reset to a
    /// cold-rebuildable state and propagate rather than evict or
    /// memoise.
    pub fn is_budget(&self) -> bool {
        matches!(self, DecompError::DeadlineExceeded | DecompError::Canceled)
    }
}

impl fmt::Display for DecompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompError::Limit(e) => write!(f, "{e}"),
            DecompError::Internal { what } => {
                write!(f, "internal decomposition invariant failed: {what}")
            }
            DecompError::DeadlineExceeded => {
                write!(f, "deadline or work budget exceeded before completion")
            }
            DecompError::Canceled => write!(f, "computation canceled"),
        }
    }
}

impl std::error::Error for DecompError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecompError::Limit(e) => Some(e),
            DecompError::Internal { .. }
            | DecompError::DeadlineExceeded
            | DecompError::Canceled => None,
        }
    }
}

impl From<LimitExceeded> for DecompError {
    fn from(e: LimitExceeded) -> Self {
        DecompError::Limit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let l: DecompError = LimitExceeded { what: "max_bags" }.into();
        assert!(l.to_string().contains("max_bags"));
        let i = DecompError::internal("basis missing");
        assert!(matches!(i, DecompError::Internal { .. }));
        assert!(i.to_string().contains("basis missing"));
        for budget_err in [DecompError::DeadlineExceeded, DecompError::Canceled] {
            assert!(budget_err.is_budget());
        }
        assert!(!i.is_budget());
        assert!(!l.is_budget());
    }
}
