//! Cooperative cancellation for engine runs.
//!
//! The engines' worker loops are long-running and, once launched, hold
//! the caller's thread and any [`crate::gang`] helpers running their
//! warps until the traversal drains. A service layer that enforces
//! per-request deadlines needs a way to stop a traversal mid-flight
//! without killing threads: every worker polls a shared [`CancelToken`]
//! at the top of its loop (one poll per vertex-expansion step — the
//! "poll point"), and the first worker that observes a cancelled token
//! raises the engine's global `done` flag so every participant exits
//! within one step.
//!
//! Cancellation is *cooperative and partial*: a cancelled run returns a
//! [`crate::native::NativeResult`] with `completed == false` whose
//! `visited`/`parent` arrays describe the prefix of the traversal that
//! finished before the stop. The prefix is still internally consistent
//! (every visited vertex has a valid tree parent chain to the root).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Deadline polls are amortized: the wall clock is read once every
/// `DEADLINE_STRIDE` polls, so a poll point costs one atomic load on
/// the fast path.
const DEADLINE_STRIDE: u32 = 64;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle shared between a controller (the
/// service layer) and the engine workers polling it.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-cancels once `deadline` passes (and can still
    /// be cancelled earlier by hand).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation; idempotent, visible to all pollers.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token is cancelled, checking the deadline eagerly.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// The deadline this token auto-cancels at, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Creates a per-worker poller (each worker owns its stride counter).
    pub fn poller(&self) -> CancelPoller {
        CancelPoller {
            token: self.clone(),
            countdown: 0,
        }
    }
}

/// Per-worker amortized poll state for a [`CancelToken`].
#[derive(Debug)]
pub struct CancelPoller {
    token: CancelToken,
    countdown: u32,
}

impl CancelPoller {
    /// One poll point. Cheap path: a single atomic load; the deadline
    /// clock is consulted every `DEADLINE_STRIDE` calls.
    #[inline]
    pub fn poll(&mut self) -> bool {
        if self.token.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if self.token.inner.deadline.is_none() {
            return false;
        }
        if self.countdown == 0 {
            self.countdown = DEADLINE_STRIDE;
            return self.token.is_cancelled();
        }
        self.countdown -= 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn manual_cancel_is_seen() {
        let t = CancelToken::new();
        let mut p = t.poller();
        assert!(!p.poll());
        t.cancel();
        assert!(p.poll());
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now());
        // The deadline is already past; within one stride the poller
        // must observe it.
        let mut p = t.poller();
        let mut seen = false;
        for _ in 0..=super::DEADLINE_STRIDE {
            if p.poll() {
                seen = true;
                break;
            }
        }
        assert!(seen);
    }

    #[test]
    fn future_deadline_not_yet_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(!t.poller().poll());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }
}
