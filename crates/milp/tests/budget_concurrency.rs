//! Concurrent budget-tree semantics under real threads.
//!
//! The scheduling daemon (`swpd`) hands every in-flight request an
//! isolated child budget (`fork_isolated`) rebound to a per-request
//! cancel token (`cancelled_by`), all derived from one admission pool.
//! Two properties make that safe:
//!
//! * **isolation** — cancelling one request's token never stops a
//!   sibling request or the pool itself, and an isolated child's ticks
//!   never drain the pool;
//! * **propagation** — exhaustion of the *parent* (its deadline, or its
//!   cancel token for children that still share it) always reaches
//!   every child.
//!
//! These run 8 OS threads per case so the atomics are exercised under
//! genuine contention, not just sequential interleavings.

use proptest::prelude::*;
use std::sync::Barrier;
use std::time::Duration;
use swp_milp::budget::CHECK_INTERVAL;
use swp_milp::{Budget, CancelToken, Exhaustion};

const THREADS: usize = 8;

/// Ticks `b` until it trips and returns the exhaustion. `armed` says
/// whether the trip condition is already visible to this thread; once
/// it is, the budget must trip within one check interval. Until then
/// the spin is unbounded: on a loaded host the thread that fires the
/// token can stay descheduled for longer than any fixed tick count.
fn tick_until_trip(b: &Budget, armed: impl Fn() -> bool) -> Exhaustion {
    let mut since_armed = 0u64;
    loop {
        let was_armed = armed();
        match b.tick() {
            Ok(()) if was_armed => {
                since_armed += 1;
                assert!(
                    since_armed <= CHECK_INTERVAL,
                    "budget kept running after its trip condition became visible"
                );
            }
            Ok(()) => {}
            Err(e) => return e,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancelling any subset of per-request tokens stops exactly those
    /// children: siblings run their full workload untouched and the
    /// parent pool stays healthy.
    #[test]
    fn child_cancellation_never_leaks_into_siblings(cancel_mask in 1u8..=254) {
        let parent = Budget::unlimited();
        let tokens: Vec<CancelToken> = (0..THREADS).map(|_| CancelToken::new()).collect();
        let children: Vec<Budget> = tokens
            .iter()
            .map(|t| parent.fork_isolated().cancelled_by(t))
            .collect();

        let barrier = Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (k, (child, token)) in children.iter().zip(&tokens).enumerate() {
                let barrier = &barrier;
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    if cancel_mask & (1 << k) != 0 {
                        // Doomed child: spin until the token lands.
                        tick_until_trip(child, || token.is_cancelled()) == Exhaustion::Cancelled
                    } else {
                        // Survivor: a fixed workload must complete clean.
                        (0..10_000).all(|_| child.tick().is_ok()) && child.check().is_ok()
                    }
                }));
            }
            barrier.wait();
            // Fire the masked tokens while all 8 children are ticking.
            for (k, t) in tokens.iter().enumerate() {
                if cancel_mask & (1 << k) != 0 {
                    t.cancel();
                }
            }
            for h in handles {
                prop_assert!(h.join().expect("child thread panicked"));
            }
        });

        // The parent pool heard nothing and spent nothing.
        prop_assert_eq!(parent.check(), Ok(()));
        prop_assert_eq!(parent.ticks_used(), 0);
        // Sticky and exact: a token is fired iff it was masked.
        for (k, t) in tokens.iter().enumerate() {
            prop_assert_eq!(t.is_cancelled(), cancel_mask & (1 << k) != 0);
        }
    }

    /// Firing the parent's token stops every isolated child that still
    /// shares it, no matter when each child started working.
    #[test]
    fn parent_cancellation_reaches_all_isolated_children(head_start in 0u64..2_000) {
        let parent = Budget::unlimited();
        let children: Vec<Budget> = (0..THREADS).map(|_| parent.fork_isolated()).collect();
        let token = parent.cancel_token();

        let barrier = Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for child in &children {
                let (barrier, token) = (&barrier, &token);
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    tick_until_trip(child, || token.is_cancelled())
                }));
            }
            barrier.wait();
            // Let the children race ahead a varying amount, then pull
            // the plug on the whole tree.
            for _ in 0..head_start {
                std::hint::spin_loop();
            }
            token.cancel();
            for h in handles {
                let why = h.join().expect("child thread panicked");
                prop_assert_eq!(why, Exhaustion::Cancelled);
            }
        });
    }
}

/// The parent's deadline is copied into isolated children even after a
/// `cancelled_by` rebind, so deadline exhaustion propagates to every
/// child — including ones that no longer share the parent's token.
#[test]
fn parent_deadline_propagates_to_rebound_children() {
    let parent = Budget::with_deadline(Duration::ZERO);
    let tokens: Vec<CancelToken> = (0..THREADS).map(|_| CancelToken::new()).collect();
    std::thread::scope(|scope| {
        for t in &tokens {
            let child = parent.fork_isolated().cancelled_by(t);
            scope.spawn(move || {
                assert_eq!(child.check(), Err(Exhaustion::Deadline));
                // The rebind cut the cancel link, not the deadline link.
                assert_eq!(tick_until_trip(&child, || true), Exhaustion::Deadline);
            });
        }
    });
    // No child token fired; the trip came from the deadline alone.
    assert!(tokens.iter().all(|t| !t.is_cancelled()));
}

/// Isolated children ticking concurrently never drain the parent pool:
/// its cap stays fully available for admission decisions.
#[test]
fn isolated_children_never_drain_the_admission_pool() {
    let pool = Budget::with_tick_limit(8);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let child = pool.fork_isolated();
            scope.spawn(move || {
                for _ in 0..50_000 {
                    child.tick().expect("isolated child is uncapped");
                }
            });
        }
    });
    assert_eq!(pool.remaining_ticks(), Some(8));
    assert!(pool.try_slice(8).is_ok());
}
