//! Property tests on reservation tables, collision analysis, and the
//! conflict checker.

use proptest::prelude::*;
use swp_machine::{
    check_fixed_assignment, CollisionInfo, FuType, Machine, PlacedOp, ReservationTable,
};

/// Arbitrary well-formed reservation table (1–4 stages, 1–8 columns,
/// with some mark in column 0).
fn arb_table() -> impl Strategy<Value = ReservationTable> {
    (1usize..=4, 1usize..=8).prop_flat_map(|(stages, cols)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), cols), stages).prop_map(
            move |mut rows| {
                // Guarantee a mark at issue time.
                rows[0][0] = true;
                let refs: Vec<&[bool]> = rows.iter().map(|r| r.as_slice()).collect();
                ReservationTable::from_rows(&refs).expect("shape is valid")
            },
        )
    })
}

/// The most operations one unit hosts per period `t`, by trying every
/// subset of issue residues: a subset packs iff no `(stage, cycle mod t)`
/// cell is claimed twice (an op claiming one cell twice packs nowhere).
fn brute_force_packing(rt: &ReservationTable, t: u32) -> u32 {
    let t = t as usize;
    let packs = |subset: u32| {
        let mut used = vec![false; rt.stages() * t];
        for o in (0..t).filter(|&o| subset & (1 << o) != 0) {
            for s in 0..rt.stages() {
                for l in rt.stage_offsets(s) {
                    let cell = &mut used[s * t + (o + l) % t];
                    if *cell {
                        return false;
                    }
                    *cell = true;
                }
            }
        }
        true
    };
    (0..1u32 << t)
        .filter(|&subset| packs(subset))
        .map(u32::count_ones)
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Forbidden latencies are exactly the self-collision distances:
    /// issuing two ops `f` apart on one unit collides iff `f` forbidden
    /// (checked against a direct two-op overlap simulation).
    #[test]
    fn forbidden_latencies_match_direct_check(rt in arb_table(), f in 1u32..8) {
        let info = CollisionInfo::analyze(&rt);
        let collides = (0..rt.stages()).any(|s| {
            let offs = rt.stage_offsets(s);
            offs.iter().any(|&a| offs.iter().any(|&b| b as u32 == a as u32 + f))
        });
        prop_assert_eq!(info.is_forbidden(f), collides);
    }

    /// The modulo constraint holds at period T iff no forbidden latency
    /// is a multiple of T... precisely: no two same-row marks are equal
    /// mod T.
    #[test]
    fn modulo_feasibility_iff_no_forbidden_multiple(rt in arb_table(), t in 1u32..10) {
        let info = CollisionInfo::analyze(&rt);
        let any_multiple = info
            .forbidden_latencies()
            .iter()
            .any(|&f| f % t == 0);
        prop_assert_eq!(rt.modulo_feasible(t), !any_multiple);
    }

    /// Packing capacity is monotone in nothing but always bounded:
    /// 0 <= cap <= T, and cap >= 1 exactly when the table is
    /// modulo-feasible at T. It is also exactly the largest set of
    /// issue residues whose stage cells are pairwise disjoint mod T,
    /// found here by enumerating every residue subset.
    #[test]
    fn packing_capacity_bounds(rt in arb_table(), t in 1u32..=10) {
        let cap = rt.max_ops_per_period(t);
        prop_assert_eq!(cap, brute_force_packing(&rt, t));
        prop_assert!(cap <= t);
        prop_assert_eq!(cap >= 1, rt.modulo_feasible(t));
        // Counting bound: cap * max_row_marks <= T when cap >= 1.
        if cap >= 1 {
            prop_assert!(cap * rt.max_row_marks() <= t);
        }
    }

    /// MAL (min self period) is consistent: modulo-feasible exactly from
    /// some period onward is NOT guaranteed (non-monotone), but the MAL
    /// itself must be feasible and no smaller feasible period may exist
    /// below max_row_marks.
    #[test]
    fn mal_is_feasible_and_lower_bounded(rt in arb_table()) {
        let mal = rt.min_self_period();
        prop_assert!(rt.modulo_feasible(mal));
        prop_assert!(mal >= rt.max_row_marks().max(1));
    }

    /// The checker accepts any placement produced by greedy packing of a
    /// random table (via a machine with that table).
    #[test]
    fn greedy_packing_passes_checker(rt in arb_table(), t in 1u32..10, n in 1usize..6) {
        let machine = Machine::new(vec![FuType {
            name: "X".into(),
            count: 2,
            latency: 1,
            reservation: rt.clone(),
        }]).expect("one unit type");
        // Greedily place n ops at increasing offsets on 2 units.
        let mut placed: Vec<PlacedOp> = Vec::new();
        let mut cells = std::collections::HashSet::new();
        'op: for _ in 0..n {
            for offset in 0..t {
                for fu in 0..2u32 {
                    let mut mine = Vec::new();
                    for s in 0..rt.stages() {
                        for l in rt.stage_offsets(s) {
                            mine.push((fu, s, (offset + l as u32) % t));
                        }
                    }
                    let distinct: std::collections::HashSet<_> = mine.iter().collect();
                    if distinct.len() == mine.len()
                        && mine.iter().all(|c| !cells.contains(c))
                    {
                        for c in mine {
                            cells.insert(c);
                        }
                        placed.push(PlacedOp {
                            class: swp_ddg::OpClass::new(0),
                            offset,
                            fu: Some(fu),
                        });
                        continue 'op;
                    }
                }
            }
            break; // no more room
        }
        prop_assert_eq!(check_fixed_assignment(&machine, t, &placed), Ok(()));
    }
}
