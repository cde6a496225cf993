//! Reference property tests for the conflict checker: the flat
//! word-parallel occupancy probe must be byte-identical to the naive
//! per-cell scan — same verdict and the same *first* error — on random
//! machines and random (frequently invalid) placements.
//!
//! Replay a failing stream with `SWP_PROPTEST_SEED=<seed>`.

use proptest::prelude::*;
use swp_ddg::OpClass;
use swp_machine::{
    check_fixed_assignment, check_fixed_assignment_flat, FuType, Machine, PlacedOp,
    ReservationTable,
};

/// Arbitrary well-formed reservation table (1–4 stages, 1–8 columns,
/// with some mark in column 0).
fn arb_table() -> impl Strategy<Value = ReservationTable> {
    (1usize..=4, 1usize..=8).prop_flat_map(|(stages, cols)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), cols), stages).prop_map(
            move |mut rows| {
                rows[0][0] = true;
                let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
                ReservationTable::from_rows(&refs).expect("shape is valid")
            },
        )
    })
}

/// Arbitrary machine: 1–3 classes, 1–3 units each.
fn arb_machine() -> impl Strategy<Value = Machine> {
    proptest::collection::vec((arb_table(), 1u32..=3), 1..=3).prop_map(|types| {
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
        .expect("well-formed machine")
    })
}

/// A machine, a period, and a batch of placements that deliberately
/// exercises every checker error path: unknown classes, missing and
/// out-of-range unit assignments, unreduced offsets, and (mostly)
/// ordinary collisions.
fn arb_case() -> impl Strategy<Value = (Machine, u32, Vec<PlacedOp>)> {
    (arb_machine(), 1u32..=9).prop_flat_map(|(machine, period)| {
        let nclasses = machine.types().len();
        // Class index may equal `nclasses` (unknown class); offsets run
        // past the period; fu indices run past every count.
        let ops = proptest::collection::vec(
            // The last slot decides assignment; skewed so most ops carry
            // a unit and genuine collisions dominate the sanity errors.
            (0usize..=nclasses, 0u32..12, 0u32..4, 0u8..20),
            0..14,
        );
        ops.prop_map(move |raw| {
            let placed = raw
                .into_iter()
                .map(|(class, offset, fu, w)| PlacedOp {
                    class: OpClass::new(class),
                    offset,
                    fu: (w < 17).then_some(fu),
                })
                .collect();
            (machine.clone(), period, placed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat checker agrees exactly with the naive one — `Ok` for
    /// `Ok`, and on failure the identical first `ConflictError`, field
    /// for field.
    #[test]
    fn flat_checker_matches_naive(case in arb_case()) {
        let (machine, period, ops) = case;
        prop_assert_eq!(
            check_fixed_assignment_flat(&machine, period, &ops),
            check_fixed_assignment(&machine, period, &ops)
        );
    }

    /// Restricting to in-range placements (the hot path — no sanity
    /// errors, only genuine stage collisions) the two still agree.
    #[test]
    fn flat_checker_matches_naive_on_collisions(case in arb_case()) {
        let (machine, period, ops) = case;
        let valid: Vec<PlacedOp> = ops
            .into_iter()
            .filter(|op| op.class.index() < machine.types().len())
            .map(|op| {
                let count = machine.types()[op.class.index()].count;
                PlacedOp {
                    class: op.class,
                    offset: op.offset % period,
                    fu: Some(op.fu.unwrap_or(0) % count),
                }
            })
            .collect();
        prop_assert_eq!(
            check_fixed_assignment_flat(&machine, period, &valid),
            check_fixed_assignment(&machine, period, &valid)
        );
    }
}
