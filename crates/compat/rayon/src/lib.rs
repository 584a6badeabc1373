//! Offline stand-in for `rayon` (API subset).
//!
//! The build environment is hermetic, so this crate supplies the
//! parallel-iterator surface `qdb-core` uses: `into_par_iter()` /
//! `par_iter()` over ranges and slices, `map`, `for_each`, and
//! `collect` into `Vec<T>` or `Result<Vec<T>, E>`, plus [`join`].
//!
//! Every entry point runs through one work-claiming loop: the caller
//! and up to [`current_num_threads`] `- 1` helper threads (spawned on a
//! `std::thread::scope` per call; there is no persistent pool) each
//! take the next unclaimed index from a shared atomic counter until
//! none are left. Uneven item costs therefore balance themselves —
//! whoever finishes early claims more — instead of one worker owning
//! a fixed half. `RAYON_NUM_THREADS` is honored (re-read on every
//! call, so tests can toggle it at runtime). Each result lands in the
//! slot of its index, so any `collect` is in input order and
//! deterministic regardless of thread count or claim order.

#![warn(missing_docs)]

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of worker threads: `RAYON_NUM_THREADS` if set and positive,
/// else the number of available CPUs.
#[must_use]
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A random-access description of a parallel computation: `len` items,
/// item `i` computed independently by `item(i)`.
pub trait IndexedTask: Sync {
    /// The per-item output type.
    type Output: Send;

    /// Total number of items.
    fn len(&self) -> usize;

    /// `true` when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compute item `i`. May be called concurrently from many threads.
    fn item(&self, i: usize) -> Self::Output;
}

/// How many claims each worker's share of a loop is cut into: a claim
/// takes `max(1, n / (CLAIMS_PER_WORKER · workers))` consecutive
/// indices. Loops of up to 64 items per worker (every trajectory wave,
/// per-shot presampling of small ensembles, every chunk dispatch) claim
/// one index at a time; thousands of cheap items (per-shot CDF
/// inversion) claim in grains, so the shared counter is not contended
/// once per nanosecond-scale item.
const CLAIMS_PER_WORKER: usize = 64;

/// Run `work(i)` exactly once for every `i` in `0..n` and return the
/// results in index order — the one scheduling loop behind every entry
/// point of this crate.
///
/// The caller plus `min(workers, n) - 1` scoped helpers each claim the
/// next unclaimed indices (one grain, see [`CLAIMS_PER_WORKER`]) from
/// one atomic counter until the counter passes `n`; a result is kept
/// with its index and placed in slot `i`, so claim order never shows in
/// the output. With one worker everything runs on the caller, in index
/// order.
///
/// The caller always claims from its own job, so the job finishes even
/// if no helper ever gets to run: a nested call made from inside an
/// item cannot wait on a busy worker, and nesting cannot deadlock.
///
/// A panicking item stops further claims; items already claimed run to
/// completion, every helper is joined, and only then does the first
/// panic's payload resume on the caller.
fn claim<R: Send>(n: usize, workers: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let grain = (n / (CLAIMS_PER_WORKER * workers)).max(1);
    // `Relaxed` suffices: the counter publishes no data. Results reach
    // the caller through the scoped joins, which synchronize.
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let claim_until_done = || {
        let mut done = Vec::new();
        loop {
            let start = next.fetch_add(grain, Ordering::Relaxed);
            if start >= n {
                return done;
            }
            for i in start..(start + grain).min(n) {
                match catch_unwind(AssertUnwindSafe(|| work(i))) {
                    Ok(result) => done.push((i, result)),
                    Err(payload) => {
                        next.fetch_max(n, Ordering::Relaxed);
                        panicked
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                        return done;
                    }
                }
            }
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(claim_until_done))
            .collect();
        let mut place = |done: Vec<(usize, R)>| {
            for (i, result) in done {
                slots[i] = Some(result);
            }
        };
        place(claim_until_done());
        for helper in helpers {
            place(
                helper
                    .join()
                    .expect("item panics are caught inside the claim loop"),
            );
        }
    });
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// Evaluate every item of `task`, in parallel, preserving input order.
fn drive<T: IndexedTask>(task: &T) -> Vec<T::Output> {
    claim(task.len(), current_num_threads(), |i| task.item(i))
}

/// One side of a [`join`], tagged so both fit one result slot type.
enum Side<RA, RB> {
    A(RA),
    B(RB),
}

/// Run two closures, potentially on two threads, and return both
/// results — rayon's `join`, as a two-item claim loop.
///
/// With one worker (or `RAYON_NUM_THREADS=1`) both closures run on the
/// calling thread, `a` first. Otherwise the caller claims `a` and a
/// helper claims `b`; if the helper has not started by the time `a`
/// is done, the caller runs `b` as well. Results are returned in
/// argument order either way. A panic in either closure reaches the
/// caller once the other side has finished, or was never started.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let a = Mutex::new(Some(a));
    let b = Mutex::new(Some(b));
    let mut sides = claim(2, current_num_threads(), |i| {
        if i == 0 {
            Side::A(take_once(&a)())
        } else {
            Side::B(take_once(&b)())
        }
    })
    .into_iter();
    match (sides.next(), sides.next()) {
        (Some(Side::A(ra)), Some(Side::B(rb))) => (ra, rb),
        _ => unreachable!("claim returns one result per index, in index order"),
    }
}

/// Take the closure out of a [`join`] side; each side is claimed once.
fn take_once<F>(side: &Mutex<Option<F>>) -> F {
    side.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("each join side is claimed once")
}

/// The subset of rayon's `ParallelIterator` used by this workspace.
pub trait ParallelIterator: IndexedTask + Sized {
    /// Apply `f` to every item in parallel.
    fn map<U: Send, F: Fn(Self::Output) -> U + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Run `f` on every item in parallel (for side effects).
    fn for_each<F: Fn(Self::Output) + Sync>(self, f: F) {
        drive(&self.map(f));
    }

    /// Evaluate everything and collect, preserving input order.
    fn collect<C: FromParallelIterator<Self::Output>>(self) -> C {
        C::from_ordered(drive(&self))
    }

    /// Sum the items.
    fn sum<S: std::iter::Sum<Self::Output>>(self) -> S {
        drive(&self).into_iter().sum()
    }
}

impl<T: IndexedTask + Sized> ParallelIterator for T {}

/// `map` adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B: IndexedTask, U: Send, F: Fn(B::Output) -> U + Sync> IndexedTask for Map<B, F> {
    type Output = U;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn item(&self, i: usize) -> U {
        (self.f)(self.base.item(i))
    }
}

/// Parallel iterator over a `usize` range.
pub struct RangeIter {
    range: Range<usize>,
}

impl IndexedTask for RangeIter {
    type Output = usize;

    fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    fn item(&self, i: usize) -> usize {
        self.range.start + i
    }
}

/// Parallel iterator over shared slice elements.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedTask for SliceIter<'a, T> {
    type Output = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn item(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Conversion into a parallel iterator (rayon's entry point).
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Output = Self::Item>;
    /// The element type.
    type Item: Send;

    /// Convert `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    type Item = usize;

    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

/// `par_iter()` on references, mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Output = Self::Item>;
    /// The element type.
    type Item: Send;

    /// Parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: ?Sized + 'a> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    type Item = <&'a C as IntoParallelIterator>::Item;

    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T> {
    /// Build the collection from items already in input order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Commonly imported items, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Serializes every test that sets `RAYON_NUM_THREADS`: the variable
    /// is process-wide, so a test asserting on the worker count must not
    /// see another test's value mid-run.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Worker counts the claim-loop tests sweep.
    const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

    /// Run `f` with `RAYON_NUM_THREADS` pinned to `threads`, holding
    /// [`ENV_LOCK`] for the duration.
    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::env::remove_var("RAYON_NUM_THREADS");
        out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
    }

    #[test]
    fn slice_par_iter_reads_all_elements() {
        let data: Vec<u64> = (0..257).collect();
        let doubled: Vec<u64> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_value() {
        let ok: Result<Vec<usize>, String> = (0..10).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
        let err: Result<Vec<usize>, String> = (0..10)
            .into_par_iter()
            .map(|i| {
                if i == 7 {
                    Err("boom".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn empty_range_is_fine() {
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i + 1).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let xs: Vec<u32> = (0..64).collect();
        let (evens, odds) = super::join(
            || xs.iter().filter(|x| *x % 2 == 0).sum::<u32>(),
            || xs.iter().filter(|x| *x % 2 == 1).sum::<u32>(),
        );
        assert_eq!(evens + odds, xs.iter().sum::<u32>());
        assert_eq!(evens, (0..64).step_by(2).sum::<u32>());
        // Serial path (threads == 1) must agree with the threaded path.
        let serial = with_threads(1, || super::join(|| 2 + 2, || "b"));
        assert_eq!(serial, (4, "b"));
    }

    #[test]
    fn thread_count_env_var_is_honored() {
        // Serial fallback path (threads == 1) must agree with parallel.
        let serial: Vec<usize> = with_threads(1, || {
            assert_eq!(super::current_num_threads(), 1);
            (0..100).into_par_iter().map(|i| i + 1).collect()
        });
        let parallel: Vec<usize> = with_threads(3, || {
            assert_eq!(super::current_num_threads(), 3);
            (0..100).into_par_iter().map(|i| i + 1).collect()
        });
        assert_eq!(serial, parallel);
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn skewed_items_run_once_each_and_return_in_order() {
        // The first items cost 50x the rest: the shape of a trajectory
        // wave sorted by fork position.
        for threads in WORKER_COUNTS {
            let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            let out: Vec<usize> = with_threads(threads, || {
                (0..64)
                    .into_par_iter()
                    .map(|i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        let micros = if i < 4 { 2_500 } else { 50 };
                        std::thread::sleep(Duration::from_micros(micros));
                        i * 3
                    })
                    .collect()
            });
            assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn nested_calls_complete() {
        for threads in WORKER_COUNTS {
            let sums: Vec<usize> = with_threads(threads, || {
                (0..6)
                    .into_par_iter()
                    .map(|i| {
                        let inner: Vec<usize> = (0..10).into_par_iter().map(|j| i * j).collect();
                        inner.into_iter().sum()
                    })
                    .collect()
            });
            assert_eq!(sums, (0..6).map(|i| i * 45).collect::<Vec<_>>());

            let joined: Vec<(usize, usize)> = with_threads(threads, || {
                (0..12)
                    .into_par_iter()
                    .map(|i| super::join(|| i, || i + 1))
                    .collect()
            });
            assert_eq!(
                joined,
                (0..12).map(|i| (i, i + 1)).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn panic_reaches_caller_after_claimed_items_finish() {
        for threads in WORKER_COUNTS {
            let started = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let caught = with_threads(threads, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (0..32)
                        .into_par_iter()
                        .map(|i| {
                            if i == 2 {
                                panic!("item 2 failed");
                            }
                            started.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(2));
                            finished.fetch_add(1, Ordering::SeqCst);
                            i
                        })
                        .collect::<Vec<_>>()
                }))
            });
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 2 failed"));
            assert_eq!(
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst),
                "threads={threads}: an item was still running when the panic surfaced"
            );
            let again: Vec<usize> = with_threads(threads, || (0..32).into_par_iter().collect());
            assert_eq!(again, (0..32).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn concurrent_callers_get_their_own_ordered_results() {
        for threads in WORKER_COUNTS {
            with_threads(threads, || {
                std::thread::scope(|scope| {
                    let callers: Vec<_> = (0..8usize)
                        .map(|t| {
                            scope.spawn(move || {
                                let out: Vec<usize> =
                                    (0..200).into_par_iter().map(|i| i * 8 + t).collect();
                                (t, out)
                            })
                        })
                        .collect();
                    for caller in callers {
                        let (t, out) = caller.join().unwrap();
                        let expected: Vec<usize> = (0..200).map(|i| i * 8 + t).collect();
                        assert_eq!(out, expected, "threads={threads} caller={t}");
                    }
                });
            });
        }
    }
}
