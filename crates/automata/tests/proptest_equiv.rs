//! The property the CP engine relies on: collision-matrix bits are
//! exactly the naive reservation-table scan verdicts, on random machines
//! and random periods.

use proptest::prelude::*;
use swp_automata::CollisionMatrix;
use swp_ddg::OpClass;
use swp_machine::{FuType, Machine, ReservationTable};

/// Arbitrary well-formed reservation table (1–4 stages, 1–6 columns,
/// with some mark at issue time).
fn arb_table() -> impl Strategy<Value = ReservationTable> {
    (1usize..=4, 1usize..=6).prop_flat_map(|(stages, cols)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), cols), stages).prop_map(
            move |mut rows| {
                rows[0][0] = true;
                let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
                ReservationTable::from_rows(&refs).expect("shape is valid")
            },
        )
    })
}

/// Arbitrary machine: 1–3 classes, 1–2 units each, random tables.
fn arb_machine() -> impl Strategy<Value = Machine> {
    proptest::collection::vec((arb_table(), 1u32..=2), 1..=3).prop_map(|types| {
        Machine::new(
            types
                .into_iter()
                .enumerate()
                .map(|(i, (reservation, count))| FuType {
                    name: format!("C{i}"),
                    count,
                    latency: 1,
                    reservation,
                })
                .collect(),
        )
        .expect("valid machine")
    })
}

/// The exact pairwise verdict the checker scans for: same-stage marks of
/// one table overlapping at issue distance `delta` (mod `period`).
fn naive_collides(rt: &ReservationTable, period: u32, delta: u32) -> bool {
    (0..rt.stages()).any(|s| {
        let offs = rt.stage_offsets(s);
        offs.iter().any(|&l1| {
            offs.iter()
                .any(|&l2| (l1 as i64 - l2 as i64).rem_euclid(i64::from(period)) as u32 == delta)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Collision-matrix bits are exactly the naive pair-scan verdicts,
    /// for every class and every issue distance.
    #[test]
    fn matrix_matches_naive_scan(machine in arb_machine(), t in 1u32..=10) {
        let matrix = CollisionMatrix::build(&machine, t);
        for (i, fu) in machine.types().iter().enumerate() {
            let class = OpClass::new(i);
            for delta in 0..t {
                prop_assert_eq!(
                    matrix.collides(class, class, delta),
                    Some(naive_collides(&fu.reservation, t, delta)),
                    "class {} delta {} at T={}", i, delta, t
                );
            }
            prop_assert_eq!(
                matrix.self_collides(class),
                Some(!fu.reservation.modulo_feasible(t))
            );
        }
    }
}
