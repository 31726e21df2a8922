//! Cooperative cancellation and deadline budgets for the solver stack.
//!
//! Width computation is worst-case exponential, so every long-running
//! path — candidate enumeration, instance build, the satisfaction
//! pass, the width sweep, reduce-before-solve — accepts a [`Budget`]
//! and checks it at *coarse* granularity (per enumeration node, per
//! candidate bag, per DP block, per reduced piece). A tripped
//! budget surfaces as [`DecompError::DeadlineExceeded`] or
//! [`DecompError::Canceled`], which are **not** internal errors: callers
//! must leave their state untouched, so a cancel-then-retry is
//! bit-identical to a never-cancelled cold run (property-tested in
//! `tests/budget_props.rs`).
//!
//! A `Budget` is an `Option<Arc>` under the hood: the unlimited budget
//! allocates nothing and its checks compile to a branch on `None`, so
//! threading budgets through hot paths costs nothing when no deadline is
//! set. Deadline checks amortise the `Instant::now()` syscall-ish cost:
//! the cancel flag and work cap are checked on every [`Budget::tick`]
//! (two relaxed atomic ops), the clock only every
//! [`DEADLINE_CHECK_INTERVAL`] ticks and at every [`Budget::check`]
//! boundary — which bounds cancellation latency to one check interval of
//! solver work past the deadline.
//!
//! The optional *work cap* bounds total ticks across all clones (one
//! shared counter, like [`crate::soft::SoftLimits`] budgets). Exceeding
//! it reports [`DecompError::DeadlineExceeded`] too: a work cap is a
//! deterministic deadline, which is exactly what the cancel-then-retry
//! property tests use to abort at reproducible points without wall-clock
//! flakiness.

use crate::error::DecompError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The wall clock is consulted every this many [`Budget::tick`]s (checks
/// of the cancel flag and work cap happen on every tick). Must be a
/// power of two.
pub const DEADLINE_CHECK_INTERVAL: u64 = 256;

#[derive(Debug)]
struct BudgetInner {
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    /// Maximum total ticks across all clones, if any.
    work_cap: Option<u64>,
    /// Set by [`Budget::cancel`]; observed by every tick/check.
    cancel: AtomicBool,
    /// Ticks consumed so far, shared across clones — atomic because the
    /// service's event loop and the requests of one `BATCH` hold clones
    /// on other threads than the solver's.
    ticks: AtomicU64,
}

/// A cheap, clonable cancellation budget: an optional deadline instant,
/// an optional work cap, and a shared cancel flag. Clones share all
/// state — cancelling any clone cancels them all, and work ticks count
/// against one shared cap. See the module docs for the checking
/// contract.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

impl Budget {
    /// The no-op budget: never expires, never cancels, allocates
    /// nothing. Checks against it are a single branch.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// A budget with no deadline or cap, but a live cancel flag — for
    /// callers that only need cooperative cancellation (e.g. a server
    /// draining in-flight requests at shutdown).
    pub fn cancellable() -> Budget {
        Budget::build(None, None)
    }

    /// A budget expiring `after` from now.
    pub fn with_deadline(after: Duration) -> Budget {
        Budget::build(Some(Instant::now() + after), None)
    }

    /// A budget expiring at an absolute instant (for sharing one
    /// deadline across pipeline stages).
    pub fn with_deadline_at(at: Instant) -> Budget {
        Budget::build(Some(at), None)
    }

    /// A budget bounded by total work ticks instead of wall clock —
    /// deterministic, so tests can abort at reproducible points.
    pub fn with_work_cap(cap: u64) -> Budget {
        Budget::build(None, Some(cap))
    }

    fn build(deadline: Option<Instant>, work_cap: Option<u64>) -> Budget {
        Budget {
            inner: Some(Arc::new(BudgetInner {
                deadline,
                work_cap,
                cancel: AtomicBool::new(false),
                ticks: AtomicU64::new(0),
            })),
        }
    }

    /// True iff this is the no-op budget (no deadline, no cap, no cancel
    /// flag).
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Requests cancellation: every clone's next tick or check fails
    /// with [`DecompError::Canceled`]. No-op on the unlimited budget.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// True iff [`Budget::cancel`] was called on any clone.
    pub fn is_canceled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancel.load(Ordering::Relaxed))
    }

    /// Consumes one work unit: always checks the cancel flag and work
    /// cap, consults the wall clock every [`DEADLINE_CHECK_INTERVAL`]
    /// ticks. Call this from per-item loops (enumeration nodes, DP
    /// blocks); use [`Budget::check`] at stage boundaries.
    #[inline]
    pub fn tick(&self) -> Result<(), DecompError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(DecompError::Canceled);
        }
        let t = inner.ticks.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = inner.work_cap {
            if t >= cap {
                return Err(DecompError::DeadlineExceeded);
            }
        }
        if t % DEADLINE_CHECK_INTERVAL == 0 {
            if let Some(deadline) = inner.deadline {
                if Instant::now() >= deadline {
                    return Err(DecompError::DeadlineExceeded);
                }
            }
        }
        Ok(())
    }

    /// Full check including the wall clock, without consuming a tick.
    /// Call at stage boundaries (before a piece, a scan) so a
    /// deadline that passed inside one stage is observed before the next
    /// one starts.
    pub fn check(&self) -> Result<(), DecompError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(DecompError::Canceled);
        }
        if let Some(cap) = inner.work_cap {
            if inner.ticks.load(Ordering::Relaxed) > cap {
                return Err(DecompError::DeadlineExceeded);
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(DecompError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Time left until the deadline (`None` when no deadline is set;
    /// zero when already past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.tick().unwrap();
        }
        b.check().unwrap();
        assert!(b.is_unlimited());
        assert!(b.deadline().is_none());
        b.cancel(); // no-op
        b.check().unwrap();
    }

    #[test]
    fn cancel_is_seen_by_all_clones() {
        let a = Budget::cancellable();
        let b = a.clone();
        a.tick().unwrap();
        b.cancel();
        assert!(a.is_canceled());
        assert_eq!(a.tick(), Err(DecompError::Canceled));
        assert_eq!(a.check(), Err(DecompError::Canceled));
    }

    #[test]
    fn work_cap_is_shared_and_deterministic() {
        let a = Budget::with_work_cap(10);
        let b = a.clone();
        for _ in 0..5 {
            a.tick().unwrap();
            b.tick().unwrap();
        }
        assert_eq!(a.tick(), Err(DecompError::DeadlineExceeded));
        assert_eq!(b.check(), Err(DecompError::DeadlineExceeded));
    }

    #[test]
    fn past_deadline_trips_check_immediately() {
        let b = Budget::with_deadline_at(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check(), Err(DecompError::DeadlineExceeded));
        // tick 0 consults the clock, so the very first tick trips too.
        assert_eq!(b.tick(), Err(DecompError::DeadlineExceeded));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        for _ in 0..1000 {
            b.tick().unwrap();
        }
        b.check().unwrap();
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }
}
