//! Execution control for long-running synthesis flows.
//!
//! The dissertation's solvers are unbounded searches: Gomory cutting
//! planes and the branching connection search can both blow up on
//! adversarial partitionings. This crate provides the pipeline-wide
//! control layer that keeps a pathological design from hanging or
//! crashing a run:
//!
//! * [`Budget`] — a cloneable, thread-safe handle carrying an optional
//!   wall-clock deadline plus pivot / node / probe count ceilings and a
//!   cooperative [`CancelToken`]. Solvers charge work units against it
//!   and poll it at safe points (pivot boundaries, epoch barriers, wave
//!   barriers, placement steps).
//! * [`Termination`] — the verdict every flow reports: why it stopped,
//!   whether by finishing, by a tripped budget, or by a quarantined
//!   worker panic. Flows interrupted mid-search return an *anytime
//!   result*: the best feasible artifact found so far, tagged with the
//!   verdict.
//! * [`fault`] — a debug-only fault-injection registry behind the
//!   [`faultpoint!`] macro, used by the test suite to force panics and
//!   stalls at named sites and prove graceful degradation. In release
//!   builds the macro expands to nothing.
//! * [`json`] — the workspace's one strict JSON reader and escape
//!   helper. It lives here because every crate that reads JSON back
//!   (serve requests, saved results, metrics snapshots, BENCH lines)
//!   already depends on this one. Nesting is capped, so untrusted input
//!   gets an error instead of a stack overflow.
//!
//! Time never comes from `Instant::now()` directly: budgets read an
//! injected [`Clock`], so tests use a [`ManualClock`] and advance it
//! deterministically.
//!
//! ```
//! use mcs_ctl::{Budget, BudgetSpec, Termination};
//!
//! let budget = Budget::new(BudgetSpec::default().max_pivots(2));
//! assert_eq!(budget.check(), None);
//! budget.charge_pivots(2);
//! assert_eq!(budget.check(), Some(Termination::BudgetExhausted));
//! // The verdict is sticky: later polls agree with the first trip.
//! assert_eq!(budget.check(), Some(Termination::BudgetExhausted));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fault;
pub mod json;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a flow stopped.
///
/// Every budget-aware entry point reports one of these alongside its
/// (possibly partial) result. `Complete` is the only verdict that
/// promises the search ran to its natural end; all others tag an
/// *anytime* result — the best artifact found before the interruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Termination {
    /// The flow ran to its natural end; the result is final.
    Complete,
    /// The wall-clock deadline passed before the flow finished.
    DeadlineExceeded,
    /// A work-count ceiling (pivots, nodes, or probes) was reached.
    BudgetExhausted,
    /// A [`CancelToken`] was triggered by the caller.
    Cancelled,
    /// A worker thread panicked; its contribution was quarantined and
    /// the remaining workers' result is reported.
    WorkerPanicked,
}

impl Termination {
    /// Stable lower-case name used in reports and machine-readable
    /// output (`complete`, `deadline-exceeded`, …).
    pub fn name(self) -> &'static str {
        match self {
            Termination::Complete => "complete",
            Termination::DeadlineExceeded => "deadline-exceeded",
            Termination::BudgetExhausted => "budget-exhausted",
            Termination::Cancelled => "cancelled",
            Termination::WorkerPanicked => "worker-panicked",
        }
    }

    /// True when the flow was interrupted before its natural end
    /// (everything except [`Termination::Complete`] and
    /// [`Termination::WorkerPanicked`], which degrades the result but
    /// does not truncate the search).
    pub fn interrupted(self) -> bool {
        !matches!(self, Termination::Complete | Termination::WorkerPanicked)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for Termination {
    /// [`Termination::Complete`] — the verdict of an uninterrupted run,
    /// so stats structs can derive `Default`.
    fn default() -> Self {
        Termination::Complete
    }
}

/// Monotonic time source injected into budgets.
///
/// Production code uses [`MonotonicClock`]; tests use [`ManualClock`]
/// so deadline behaviour is reproducible without sleeping.
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed since an arbitrary fixed origin. Must be
    /// monotonically non-decreasing.
    fn now_ms(&self) -> u64;

    /// Microseconds elapsed since the same origin. The default derives
    /// it from [`Clock::now_ms`] (millisecond granularity); clocks with
    /// a finer source override it. Used by `mcs-metrics` latency
    /// histograms and span timings.
    fn now_us(&self) -> u64 {
        self.now_ms().saturating_mul(1000)
    }
}

/// [`Clock`] over [`std::time::Instant`]; the origin is the moment the
/// clock was created.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Hand-cranked [`Clock`] for deterministic deadline tests.
///
/// ```
/// use mcs_ctl::{Budget, BudgetSpec, Clock, ManualClock, Termination};
/// use std::sync::Arc;
///
/// let clock = Arc::new(ManualClock::new());
/// let budget = Budget::with_clock(BudgetSpec::default().deadline_ms(10), clock.clone());
/// assert_eq!(budget.check(), None);
/// clock.advance_ms(10);
/// assert_eq!(budget.check(), Some(Termination::DeadlineExceeded));
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    us: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.us.fetch_add(ms.saturating_mul(1000), Ordering::SeqCst);
    }

    /// Advance the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.us.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.us.load(Ordering::SeqCst) / 1000
    }

    fn now_us(&self) -> u64 {
        self.us.load(Ordering::SeqCst)
    }
}

/// Cooperative cancellation flag shared between a caller and the flows
/// it launched. Cloning shares the flag; `cancel()` is sticky.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Flows observe it at their next safe point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Declarative limits for a [`Budget`]. All fields optional; the
/// default spec is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock deadline in milliseconds from budget creation.
    pub deadline_ms: Option<u64>,
    /// Ceiling on Gomory pivots charged across the whole flow.
    pub max_pivots: Option<u64>,
    /// Ceiling on search nodes expanded across the whole flow.
    pub max_nodes: Option<u64>,
    /// Ceiling on pin-feasibility probes across the whole flow.
    pub max_probes: Option<u64>,
}

impl BudgetSpec {
    /// Set the wall-clock deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Set the pivot ceiling.
    pub fn max_pivots(mut self, n: u64) -> Self {
        self.max_pivots = Some(n);
        self
    }

    /// Set the search-node ceiling.
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Set the probe ceiling.
    pub fn max_probes(mut self, n: u64) -> Self {
        self.max_probes = Some(n);
        self
    }

    /// True when no limit at all is set.
    pub fn is_unlimited(&self) -> bool {
        *self == BudgetSpec::default()
    }

    /// The componentwise-tightest combination of two specs: each ceiling
    /// is the minimum of the ceilings present on either side. This is
    /// how a server clamps a per-request spec under its own caps — the
    /// request can only tighten the server's limits, never loosen them.
    pub fn intersect(&self, other: &BudgetSpec) -> BudgetSpec {
        fn tightest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }
        BudgetSpec {
            deadline_ms: tightest(self.deadline_ms, other.deadline_ms),
            max_pivots: tightest(self.max_pivots, other.max_pivots),
            max_nodes: tightest(self.max_nodes, other.max_nodes),
            max_probes: tightest(self.max_probes, other.max_probes),
        }
    }
}

#[derive(Debug)]
struct BudgetInner {
    clock: Arc<dyn Clock>,
    start_ms: u64,
    spec: BudgetSpec,
    pivots: AtomicU64,
    nodes: AtomicU64,
    probes: AtomicU64,
    cancel: CancelToken,
    /// Sticky verdict: 0 = not tripped, otherwise `Termination` code+1.
    tripped: AtomicU8,
}

impl fmt::Debug for dyn Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Clock(now_ms={})", self.now_ms())
    }
}

/// Shared, thread-safe execution budget.
///
/// Flows *charge* work units ([`charge_pivots`](Budget::charge_pivots),
/// [`charge_nodes`](Budget::charge_nodes),
/// [`charge_probes`](Budget::charge_probes)) and *poll* the budget at
/// safe points ([`check`](Budget::check)). The contract is
/// check-before-the-next-unit-of-work: a flow that finishes exactly as
/// it spends its last allowed unit never observes a trip and reports
/// [`Termination::Complete`].
///
/// The first trip is sticky — once any clone observes a verdict, all
/// later polls on any clone return the same verdict, so a multi-phase
/// flow reports one coherent reason even when the deadline keeps
/// receding into the past.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// Budget with the given limits, timed by a fresh [`MonotonicClock`].
    pub fn new(spec: BudgetSpec) -> Self {
        Self::with_clock(spec, Arc::new(MonotonicClock::new()))
    }

    /// Budget with the given limits and an injected clock (tests pass a
    /// [`ManualClock`]).
    pub fn with_clock(spec: BudgetSpec, clock: Arc<dyn Clock>) -> Self {
        let start_ms = clock.now_ms();
        Budget {
            inner: Arc::new(BudgetInner {
                clock,
                start_ms,
                spec,
                pivots: AtomicU64::new(0),
                nodes: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                cancel: CancelToken::new(),
                tripped: AtomicU8::new(0),
            }),
        }
    }

    /// A budget that never trips (no deadline, no ceilings).
    pub fn unlimited() -> Self {
        Self::new(BudgetSpec::default())
    }

    /// The limits this budget was created with.
    pub fn spec(&self) -> BudgetSpec {
        self.inner.spec
    }

    /// The cancellation token wired into this budget. Cancelling it
    /// trips the budget at the next poll.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Charge `n` Gomory pivots against the budget.
    pub fn charge_pivots(&self, n: u64) {
        self.inner.pivots.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` search-node expansions against the budget.
    pub fn charge_nodes(&self, n: u64) {
        self.inner.nodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` pin-feasibility probes against the budget.
    pub fn charge_probes(&self, n: u64) {
        self.inner.probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Pivots charged so far.
    pub fn pivots_spent(&self) -> u64 {
        self.inner.pivots.load(Ordering::Relaxed)
    }

    /// Search nodes charged so far.
    pub fn nodes_spent(&self) -> u64 {
        self.inner.nodes.load(Ordering::Relaxed)
    }

    /// Probes charged so far.
    pub fn probes_spent(&self) -> u64 {
        self.inner.probes.load(Ordering::Relaxed)
    }

    /// Milliseconds elapsed since the budget was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.inner
            .clock
            .now_ms()
            .saturating_sub(self.inner.start_ms)
    }

    /// Poll the budget at a safe point.
    ///
    /// Returns `None` while work may continue, or the sticky
    /// interruption verdict once the budget has tripped. Never returns
    /// [`Termination::Complete`] or [`Termination::WorkerPanicked`] —
    /// those are verdicts a *flow* reports, not conditions a budget
    /// detects.
    pub fn check(&self) -> Option<Termination> {
        if let Some(t) = self.verdict() {
            return Some(t);
        }
        let spec = &self.inner.spec;
        let trip = if self.inner.cancel.is_cancelled() {
            Some(Termination::Cancelled)
        } else if spec
            .deadline_ms
            .is_some_and(|limit| self.elapsed_ms() >= limit)
        {
            Some(Termination::DeadlineExceeded)
        } else if spec
            .max_pivots
            .is_some_and(|limit| self.pivots_spent() >= limit)
            || spec
                .max_nodes
                .is_some_and(|limit| self.nodes_spent() >= limit)
            || spec
                .max_probes
                .is_some_and(|limit| self.probes_spent() >= limit)
        {
            Some(Termination::BudgetExhausted)
        } else {
            None
        };
        if let Some(t) = trip {
            // First writer wins; later trips observe the sticky verdict.
            let _ = self.inner.tripped.compare_exchange(
                0,
                encode(t),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            return self.verdict();
        }
        None
    }

    /// The sticky verdict, if a previous [`check`](Budget::check)
    /// tripped. Does not re-evaluate limits.
    pub fn verdict(&self) -> Option<Termination> {
        decode(self.inner.tripped.load(Ordering::SeqCst))
    }

    /// Convenience: `true` once the budget has tripped (polls first).
    pub fn is_tripped(&self) -> bool {
        self.check().is_some()
    }

    /// The flow's final verdict: the sticky trip if any, otherwise
    /// [`Termination::Complete`].
    pub fn termination(&self) -> Termination {
        self.verdict().unwrap_or(Termination::Complete)
    }
}

fn encode(t: Termination) -> u8 {
    match t {
        Termination::Complete => 1,
        Termination::DeadlineExceeded => 2,
        Termination::BudgetExhausted => 3,
        Termination::Cancelled => 4,
        Termination::WorkerPanicked => 5,
    }
}

fn decode(v: u8) -> Option<Termination> {
    match v {
        1 => Some(Termination::Complete),
        2 => Some(Termination::DeadlineExceeded),
        3 => Some(Termination::BudgetExhausted),
        4 => Some(Termination::Cancelled),
        5 => Some(Termination::WorkerPanicked),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        b.charge_pivots(1 << 20);
        b.charge_nodes(1 << 20);
        b.charge_probes(1 << 20);
        assert_eq!(b.check(), None);
        assert_eq!(b.termination(), Termination::Complete);
    }

    #[test]
    fn pivot_ceiling_trips_and_sticks() {
        let b = Budget::new(BudgetSpec::default().max_pivots(10));
        b.charge_pivots(9);
        assert_eq!(b.check(), None);
        b.charge_pivots(1);
        assert_eq!(b.check(), Some(Termination::BudgetExhausted));
        // Sticky even if a later, different condition would also hold.
        b.cancel_token().cancel();
        assert_eq!(b.check(), Some(Termination::BudgetExhausted));
    }

    #[test]
    fn deadline_with_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let b = Budget::with_clock(BudgetSpec::default().deadline_ms(100), clock.clone());
        assert_eq!(b.check(), None);
        clock.advance_ms(99);
        assert_eq!(b.check(), None);
        clock.advance_ms(1);
        assert_eq!(b.check(), Some(Termination::DeadlineExceeded));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let clock = Arc::new(ManualClock::new());
        let b = Budget::with_clock(BudgetSpec::default().deadline_ms(0), clock);
        assert_eq!(b.check(), Some(Termination::DeadlineExceeded));
    }

    #[test]
    fn cancellation_is_cooperative_and_shared() {
        let b = Budget::unlimited();
        let token = b.cancel_token();
        let b2 = b.clone();
        assert_eq!(b2.check(), None);
        token.cancel();
        assert_eq!(b2.check(), Some(Termination::Cancelled));
        assert_eq!(b.verdict(), Some(Termination::Cancelled));
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let b = Budget::new(BudgetSpec::default().max_nodes(4));
        let b2 = b.clone();
        b.charge_nodes(2);
        b2.charge_nodes(2);
        assert_eq!(b.nodes_spent(), 4);
        assert_eq!(b.check(), Some(Termination::BudgetExhausted));
    }

    #[test]
    fn manual_clock_counts_microseconds() {
        let c = ManualClock::new();
        c.advance_us(1500);
        assert_eq!(c.now_us(), 1500);
        assert_eq!(c.now_ms(), 1);
        c.advance_ms(2);
        assert_eq!(c.now_us(), 3500);
        assert_eq!(c.now_ms(), 3);
    }

    #[test]
    fn default_now_us_derives_from_now_ms() {
        struct MsOnly;
        impl Clock for MsOnly {
            fn now_ms(&self) -> u64 {
                7
            }
        }
        assert_eq!(MsOnly.now_us(), 7000);
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(Termination::Complete.name(), "complete");
        assert_eq!(Termination::DeadlineExceeded.name(), "deadline-exceeded");
        assert_eq!(Termination::BudgetExhausted.name(), "budget-exhausted");
        assert_eq!(Termination::Cancelled.name(), "cancelled");
        assert_eq!(Termination::WorkerPanicked.name(), "worker-panicked");
    }

    #[test]
    fn intersect_takes_the_tightest_ceiling_per_axis() {
        let server = BudgetSpec::default().deadline_ms(500).max_nodes(1000);
        let request = BudgetSpec::default().deadline_ms(2000).max_probes(64);
        let clamped = server.intersect(&request);
        // The request's looser deadline is clamped; limits only ever
        // tighten regardless of which side carries them.
        assert_eq!(clamped.deadline_ms, Some(500));
        assert_eq!(clamped.max_nodes, Some(1000));
        assert_eq!(clamped.max_probes, Some(64));
        assert_eq!(clamped.max_pivots, None);
        assert_eq!(server.intersect(&request), request.intersect(&server));
        assert_eq!(
            BudgetSpec::default().intersect(&BudgetSpec::default()),
            BudgetSpec::default()
        );
    }
}
