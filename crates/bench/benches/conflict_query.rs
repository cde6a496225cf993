//! Structural-conflict queries head to head: the naive reservation-table
//! cell scan (what the IMS, branch-and-bound and checker pay) against the
//! pairwise modulo collision matrix (what the CP propagators read), at
//! `T ∈ {2, 4, 8, 16}`.
//!
//! Both answer the same question — "do two ops of this class on the
//! same unit collide at issue distance `delta` (mod `T`)?" — so each
//! bench sums the same verdict stream and the totals must agree.

use criterion::{criterion_group, criterion_main, Criterion};
use swp_automata::HazardAutomaton;
use swp_ddg::OpClass;
use swp_machine::{Machine, ReservationTable};

const PERIODS: [u32; 4] = [2, 4, 8, 16];
const QUERIES: u32 = 4096;

/// The checker's exact scan, inlined: overlap of any stage's offset
/// multiset with itself at distance `delta` (mod `period`).
fn naive_collides(rt: &ReservationTable, period: u32, delta: u32) -> bool {
    for s in 0..rt.stages() {
        for l1 in rt.stage_offsets(s) {
            for l2 in rt.stage_offsets(s) {
                let d = (l1 as i64 - l2 as i64).rem_euclid(i64::from(period)) as u32;
                if d == delta {
                    return true;
                }
            }
        }
    }
    false
}

fn bench_conflict_query(c: &mut Criterion) {
    let machine = Machine::example_pldi95();
    let fp = OpClass::new(1);
    let rt = machine.fu_type(fp).expect("FP class").reservation.clone();

    for period in PERIODS {
        let automaton = HazardAutomaton::for_machine(&machine, period);

        // Equivalence sanity before timing anything.
        for delta in 0..period {
            let naive = naive_collides(&rt, period, delta);
            assert_eq!(
                automaton.matrix().collides(fp, fp, delta),
                Some(naive),
                "matrix disagrees with naive at T={period}, delta={delta}"
            );
        }

        c.bench_function(format!("naive_scan_t{period}"), |b| {
            b.iter(|| {
                let mut hits = 0u32;
                for q in 0..QUERIES {
                    let delta = std::hint::black_box(q % period);
                    hits += u32::from(naive_collides(&rt, period, delta));
                }
                hits
            });
        });
        c.bench_function(format!("collision_matrix_t{period}"), |b| {
            b.iter(|| {
                let mut hits = 0u32;
                for q in 0..QUERIES {
                    let delta = std::hint::black_box(q % period);
                    hits += u32::from(automaton.matrix().collides(fp, fp, delta) == Some(true));
                }
                hits
            });
        });
    }
}

criterion_group!(benches, bench_conflict_query);
criterion_main!(benches);
