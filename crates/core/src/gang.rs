//! Persistent helper threads for intra-request parallelism.
//!
//! The parallel engines describe their work as a fixed number of
//! logical *slots* — warps for [`crate::native`] and
//! [`crate::native_lockfree`], partitions for the partitioned engine —
//! and hand them to [`run`]. The caller's own thread runs slot 0; while
//! the job is open, idle helper threads claim slots 1.. in order. When
//! slot 0 returns, the caller closes the job to new claims and waits
//! for every claimed slot, so the slots can borrow from the caller's
//! stack exactly as scoped threads would.
//!
//! The helpers belong to the process: `available_parallelism() − 1` of
//! them (none on a one-core host), started on first use and parked on
//! a condvar between jobs. A request therefore never spawns a thread,
//! and the number of participants in a traversal is bounded by the
//! number of cores rather than by the engine's logical geometry.
//!
//! Because a slot may never be claimed — every helper busy with another
//! request, or none at all — an engine built on [`run`] must be able to
//! finish with slot 0 alone: unclaimed slots own no work up front, and
//! work reaches a slot only through the slot itself.
//!
//! A panic in a helper's slot is caught on the helper and resumed on the
//! caller once the job has drained, so a panicking traversal unwinds
//! the request that ran it and the helper goes on serving other jobs.
//!
//! Synchronization: a helper marks its slot finished under the gang's
//! mutex, and the caller observes the last finish under the same mutex
//! before [`run`] returns. That unlock/lock pair is the happens-before
//! edge that makes every write a slot made visible to the caller after
//! [`run`] — the role a thread join plays for scoped threads.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A job's slot body, with the borrow's lifetime.
type SlotFn<'a> = dyn Fn(usize) + Sync + 'a;

/// A slot body whose borrow lifetime has been erased so it can sit in
/// the shared job list.
#[derive(Clone, Copy)]
struct SlotPtr(*const SlotFn<'static>);

// SAFETY: the pointee is `Sync`, so calling it from a helper thread is
// sound; `Gang::run` keeps the borrow alive until every slot a helper
// claimed has returned, and no helper can claim a slot after that.
unsafe impl Send for SlotPtr {}

struct Job {
    id: u64,
    body: SlotPtr,
    slots: usize,
    /// Next slot a helper may claim; `slots` once the job is closed.
    next: usize,
    /// Slots claimed by helpers that have not returned yet.
    running: usize,
    /// The first panic payload from a helper's slot.
    panic: Option<Box<dyn Any + Send>>,
}

#[derive(Default)]
struct State {
    /// Jobs whose callers are inside [`Gang::run`].
    jobs: Vec<Job>,
    next_id: u64,
    shutdown: bool,
}

#[derive(Default)]
struct Inner {
    state: Mutex<State>,
    /// Parked helpers wait here for a job with an unclaimed slot.
    work: Condvar,
    /// Callers wait here for their job's claimed slots to finish.
    drained: Condvar,
}

impl Inner {
    /// Poison-transparent: no slot body runs under the lock, so a
    /// poisoned mutex can only mean a panic between two bookkeeping
    /// statements, which leaves the state consistent.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A set of helper threads that execute the slots of [`Gang::run`]
/// jobs. The process-wide instance behind [`run`] is the only one the
/// engines use; tests build their own to fix the helper count.
struct Gang {
    inner: Arc<Inner>,
    helpers: Vec<JoinHandle<()>>,
}

impl Gang {
    /// Starts up to `helpers` parked helper threads. A helper that fails
    /// to spawn is simply absent: jobs then run on fewer participants,
    /// down to the caller alone.
    fn new(helpers: usize) -> Self {
        let inner = Arc::new(Inner::default());
        let helpers = (0..helpers)
            .map_while(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("db-gang-{i}"))
                    .spawn(move || helper_loop(&inner))
                    .ok()
            })
            .collect();
        Gang { inner, helpers }
    }

    /// Runs `body(0)` on the calling thread and lets idle helpers run
    /// `body(1)`, `body(2)`, … while `body(0)` is still running. Returns
    /// once `body(0)` and every slot a helper claimed have returned;
    /// slots nobody claimed in that window never run. A panic in any
    /// slot is resumed here after the job has drained.
    fn run(&self, slots: usize, body: &SlotFn<'_>) {
        if slots == 0 {
            return;
        }
        if slots == 1 || self.helpers.is_empty() || CALLER_ONLY.get() {
            body(0);
            return;
        }
        // SAFETY: only the lifetime is erased. The job is closed and
        // drained below before this function returns (also when slot 0
        // panics), so no helper dereferences the pointer after the
        // borrow ends.
        let erased = unsafe { std::mem::transmute::<&SlotFn<'_>, &SlotFn<'static>>(body) };
        let id = {
            let mut st = self.inner.lock();
            let id = st.next_id;
            st.next_id += 1;
            st.jobs.push(Job {
                id,
                body: SlotPtr(erased),
                slots,
                next: 1,
                running: 0,
                panic: None,
            });
            id
        };
        self.inner.work.notify_all();

        // guard: nothing shared is held across slot 0; the close-and-drain
        // below runs on both arms before any payload is resumed
        let own = panic::catch_unwind(AssertUnwindSafe(|| body(0)));

        let helper_panic = {
            let mut st = self.inner.lock();
            if let Some(job) = st.jobs.iter_mut().find(|j| j.id == id) {
                job.next = job.slots;
            }
            while st.jobs.iter().any(|j| j.id == id && j.running > 0) {
                st = self
                    .inner
                    .drained
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let pos = st.jobs.iter().position(|j| j.id == id);
            pos.and_then(|i| st.jobs.swap_remove(i).panic)
        };
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Gang {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.work.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper catches every slot's panic, so it only ever returns.
            let _ = helper.join();
        }
    }
}

fn helper_loop(inner: &Inner) {
    let mut st = inner.lock();
    loop {
        if st.shutdown {
            return;
        }
        let claim = st.jobs.iter_mut().find(|j| j.next < j.slots).map(|j| {
            let slot = j.next;
            j.next += 1;
            j.running += 1;
            (j.id, j.body, slot)
        });
        let Some((id, body, slot)) = claim else {
            st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(st);
        // guard: the claimed slot is released below on both arms, so the
        // caller's drain never waits on an unwound helper
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the job is still in the list with `running > 0`,
            // so its caller is blocked in `Gang::run` and the borrow
            // behind `body` is alive.
            let f = unsafe { &*body.0 };
            f(slot)
        }));
        st = inner.lock();
        if let Some(job) = st.jobs.iter_mut().find(|j| j.id == id) {
            job.running -= 1;
            if let Err(payload) = outcome {
                job.panic.get_or_insert(payload);
            }
            if job.running == 0 {
                inner.drained.notify_all();
            }
        }
    }
}

thread_local! {
    static CALLER_ONLY: Cell<bool> = const { Cell::new(false) };
}

fn global() -> &'static Gang {
    static GANG: OnceLock<Gang> = OnceLock::new();
    GANG.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Gang::new(cores - 1)
    })
}

/// Runs a job of `slots` slots on the process-wide gang: `body(0)` on
/// the calling thread, `body(1..slots)` on whichever helpers are idle
/// while slot 0 runs. See the [module docs](self) for the contract.
pub fn run(slots: usize, body: &(dyn Fn(usize) + Sync)) {
    global().run(slots, body);
}

/// Number of helper threads in the process-wide gang, starting the
/// gang if it is not running yet.
pub fn helpers() -> usize {
    global().helpers.len()
}

/// Runs `f` with every [`run`] it makes on this thread restricted to
/// slot 0 — the schedule where no helper is free. Tests use it to prove
/// an engine finishes on the caller alone.
pub fn caller_only<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            CALLER_ONLY.set(self.0);
        }
    }
    let _restore = Restore(CALLER_ONLY.replace(true));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::thread::ThreadId;

    fn spin_until(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn caller_runs_slot_zero_and_helpers_take_the_rest() {
        let gang = Gang::new(2);
        let caller = std::thread::current().id();
        let ran: Vec<Mutex<Option<ThreadId>>> = (0..3).map(|_| Mutex::new(None)).collect();
        let claimed = AtomicUsize::new(0);
        gang.run(3, &|slot| {
            *ran[slot].lock().unwrap() = Some(std::thread::current().id());
            if slot > 0 {
                claimed.fetch_add(1, Ordering::AcqRel);
            }
            // Every slot holds on until both helper slots are running, so
            // neither helper can finish one slot and claim the other.
            while claimed.load(Ordering::Acquire) < 2 {
                std::hint::spin_loop();
            }
        });
        let ran: Vec<_> = ran.into_iter().map(|m| m.into_inner().unwrap()).collect();
        assert_eq!(ran[0], Some(caller));
        for helper in &ran[1..] {
            assert!(helper.is_some_and(|t| t != caller), "{ran:?}");
        }
        assert_ne!(ran[1], ran[2], "two helpers ran the two helper slots");
    }

    #[test]
    fn without_helpers_only_slot_zero_runs() {
        for gang in [Gang::new(0), Gang::new(1)] {
            let hits = AtomicU64::new(0);
            caller_only(|| {
                gang.run(4, &|slot| {
                    hits.fetch_add(1 << (8 * slot), Ordering::Relaxed);
                })
            });
            assert_eq!(hits.into_inner(), 1, "{} helper(s)", gang.helpers.len());
        }
        // The override is scoped: outside it the helper participates.
        let gang = Gang::new(1);
        let helped = AtomicBool::new(false);
        gang.run(2, &|slot| {
            if slot == 0 {
                spin_until(&helped);
            } else {
                helped.store(true, Ordering::Release);
            }
        });
    }

    #[test]
    fn helper_panic_resumes_on_the_caller_and_the_helper_keeps_serving() {
        let gang = Gang::new(1);
        let caller = std::thread::current().id();
        let claimed = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            gang.run(2, &|slot| {
                if slot == 0 {
                    spin_until(&claimed);
                } else {
                    claimed.store(true, Ordering::Release);
                    panic!("slot {slot} failed");
                }
            })
        }));
        let payload = outcome.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "slot 1 failed");

        for _ in 0..3 {
            let helper = Mutex::new(None);
            let claimed = AtomicBool::new(false);
            gang.run(2, &|slot| {
                if slot == 0 {
                    spin_until(&claimed);
                } else {
                    *helper.lock().unwrap() = Some(std::thread::current().id());
                    claimed.store(true, Ordering::Release);
                }
            });
            let helper = helper.into_inner().unwrap();
            assert!(helper.is_some_and(|t| t != caller), "{helper:?}");
        }
    }

    #[test]
    fn caller_panic_still_drains_claimed_slots() {
        let gang = Gang::new(1);
        let claimed = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            gang.run(2, &|slot| {
                if slot == 0 {
                    spin_until(&claimed);
                    panic!("caller slot failed");
                }
                claimed.store(true, Ordering::Release);
                for _ in 0..10_000 {
                    std::hint::spin_loop();
                }
                finished.store(true, Ordering::Release);
            })
        }));
        assert!(outcome.is_err());
        assert!(
            finished.load(Ordering::Acquire),
            "run unwound before its helper slot finished"
        );
    }

    /// Concurrent jobs whose slots write into buffers on each caller's
    /// stack: every slot that ran wrote its own cell exactly once, and
    /// no slot of a job is still running — or starts — after `run`
    /// returned.
    #[test]
    fn concurrent_jobs_never_outlive_run() {
        const SLOTS: usize = 6;
        let gang = Gang::new(3);
        // Slots of jobs that already returned — must stay zero.
        let late = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                let (gang, late) = (&gang, &late);
                scope.spawn(move || {
                    for round in 0..300u64 {
                        let returned = AtomicBool::new(false);
                        let cells: [AtomicU64; SLOTS] = Default::default();
                        let stamp = (caller << 32) | round;
                        let body = |slot: usize| {
                            if returned.load(Ordering::Acquire) {
                                late.fetch_add(1, Ordering::AcqRel);
                                return;
                            }
                            let cell = &cells[slot];
                            assert_eq!(cell.swap(stamp + 1, Ordering::AcqRel), 0);
                            for _ in 0..(slot * 50) {
                                std::hint::spin_loop();
                            }
                            if returned.load(Ordering::Acquire) {
                                late.fetch_add(1, Ordering::AcqRel);
                            }
                        };
                        gang.run(SLOTS, &body);
                        returned.store(true, Ordering::Release);
                        assert_eq!(cells[0].load(Ordering::Acquire), stamp + 1);
                        for cell in &cells[1..] {
                            let v = cell.load(Ordering::Acquire);
                            assert!(v == 0 || v == stamp + 1, "foreign write {v:#x}");
                        }
                    }
                });
            }
        });
        assert_eq!(
            late.load(Ordering::Acquire),
            0,
            "a slot ran after run returned"
        );
    }

    #[test]
    fn dropped_gang_joins_its_helpers() {
        let gang = Gang::new(2);
        let inner = Arc::clone(&gang.inner);
        drop(gang);
        // Each helper held one clone until it exited.
        assert_eq!(Arc::strong_count(&inner), 1);
    }
}
