//! Reference property test for the modulo reservation table: every
//! flat-MRT probe answer must match the naive fixed-assignment checker
//! run on the ops placed so far plus the candidate, along a random
//! place/remove/probe sequence.
//!
//! Replay a failing stream with `SWP_PROPTEST_SEED=<seed>`.

use proptest::prelude::*;
use swp_ddg::OpClass;
use swp_heuristics::ModuloReservationTable;
use swp_machine::{check_fixed_assignment, Machine, PlacedOp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `find_free_unit` returns the first unit on which the naive
    /// checker accepts the live ops plus the candidate, and
    /// `conflicting_ops` lists exactly the live ops the naive checker
    /// finds colliding with the candidate on that unit.
    #[test]
    fn mrt_probes_match_naive_checker(
        period in 1u32..=8,
        steps in proptest::collection::vec(
            (0usize..3, 0u32..16, any::<bool>()),
            1..24,
        ),
    ) {
        let machine = Machine::example_pldi95();
        let mut mrt = ModuloReservationTable::new(&machine, period);
        // (op id, live placement) pairs, for removals and the checker.
        let mut live: Vec<(usize, PlacedOp)> = Vec::new();
        for (op, &(c, time, remove)) in steps.iter().enumerate() {
            let class = OpClass::new(c);
            if remove && !live.is_empty() {
                let (id, p) = live.swap_remove(op % live.len());
                let fu = p.fu.expect("placed ops are mapped");
                // The MRT only needs the issue residue, not the time.
                mrt.remove(&machine, p.class, fu, p.offset, id);
                continue;
            }
            let fu_type = machine.fu_type(class).expect("known");
            // The cell probe ignores an op's self-collisions (the IMS
            // never places a class that is not modulo-feasible at the
            // period), so only feasible classes are checked and placed.
            if !fu_type.reservation.modulo_feasible(period) {
                continue;
            }
            let candidate = |fu| PlacedOp { class, offset: time % period, fu: Some(fu) };
            let fits = |fu| {
                let mut ops: Vec<PlacedOp> = live.iter().map(|&(_, p)| p).collect();
                ops.push(candidate(fu));
                check_fixed_assignment(&machine, period, &ops).is_ok()
            };
            let got = mrt.find_free_unit(&machine, class, time);
            prop_assert_eq!(got, (0..fu_type.count).find(|&fu| fits(fu)), "probe at step {}", op);
            for fu in 0..fu_type.count {
                let mut evict = mrt.conflicting_ops(&machine, class, fu, time);
                evict.sort_unstable();
                let mut expected: Vec<usize> = live
                    .iter()
                    .filter(|&&(_, p)| {
                        check_fixed_assignment(&machine, period, &[p, candidate(fu)]).is_err()
                    })
                    .map(|&(id, _)| id)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(evict, expected, "eviction set at step {} fu {}", op, fu);
            }
            if let Some(fu) = got {
                mrt.place(&machine, class, fu, time, op);
                live.push((op, candidate(fu)));
            }
        }
    }
}
