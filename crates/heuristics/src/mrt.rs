//! The modulo reservation table (MRT) with per-unit stage tracking.
//!
//! Classic modulo scheduling keeps one row per resource and time step
//! mod `II` [16, 20]. Because this workspace targets machines with
//! structural hazards, the MRT here tracks *every stage of every
//! physical unit*: placing an operation claims the `(stage, residue)`
//! cells of one concrete unit, which is exactly the fixed FU assignment
//! the paper's ILP computes via coloring — done greedily here.
//!
//! The cells live in one stride-indexed owner arena per class plus
//! per-unit u64 occupancy words: a slot probe is one AND per word
//! against the class's precomputed claimed-cell mask for the issue
//! residue, instead of a stage×offset scan. The proptests check every
//! probe answer against the naive fixed-assignment checker.

use swp_ddg::OpClass;
use swp_machine::{Machine, ReservationTable};

/// Occupancy of all units of all classes over one period.
#[derive(Debug, Clone)]
pub struct ModuloReservationTable {
    period: u32,
    /// Cell arenas, one per machine class.
    classes: Vec<ClassArena>,
    /// Issue-bundle counters, present when the machine declares bundle
    /// limits.
    bundle: Option<BundleState>,
}

/// Per-residue issue counters for a machine with VLIW bundle limits:
/// the steady state issues the ops of residue `r` together each cycle,
/// so per-cycle width/slot caps are per-residue counts here. The cells
/// cannot answer "who issued at `r`" (wrapping stages smear claims), so
/// an explicit ledger backs the eviction sets.
#[derive(Debug, Clone)]
struct BundleState {
    width: u32,
    /// Slot-group caps, indexed by group.
    caps: Vec<u32>,
    /// Groups each machine class belongs to.
    groups_of: Vec<Vec<usize>>,
    /// Issues per residue.
    total: Vec<u32>,
    /// Issues per `(group, residue)`, flattened `g * period + r`.
    group_counts: Vec<u32>,
    /// `(op, class index)` issued at each residue, in placement order —
    /// kept in order so eviction lists are deterministic.
    issued: Vec<Vec<(usize, usize)>>,
}

impl BundleState {
    fn new(machine: &Machine, period: u32) -> Option<Self> {
        let b = machine.bundle()?;
        let mut groups_of = vec![Vec::new(); machine.num_classes()];
        for (g, group) in b.groups.iter().enumerate() {
            for &c in &group.classes {
                groups_of[c].push(g);
            }
        }
        Some(BundleState {
            width: b.width,
            caps: b.groups.iter().map(|g| g.cap).collect(),
            groups_of,
            total: vec![0; period as usize],
            group_counts: vec![0; b.groups.len() * period as usize],
            issued: vec![Vec::new(); period as usize],
        })
    }

    /// Whether one more issue of `class` fits at residue `r`.
    fn has_headroom(&self, class: OpClass, r: usize, period: u32) -> bool {
        self.total[r] < self.width
            && self.groups_of[class.index()]
                .iter()
                .all(|&g| self.group_counts[g * period as usize + r] < self.caps[g])
    }
}

/// One class's cells: owners keyed `fu * cells_per_unit + cell` where
/// `cell = stage * period + residue`, with per-unit occupancy words for
/// word-parallel probes.
#[derive(Debug, Clone)]
struct ClassArena {
    /// Per issue residue: claimed-cell mask (`cell_mask_words` words).
    masks: Vec<Vec<u64>>,
    /// Per issue residue: claimed cells in the naive checker's scan
    /// order (stage-major, marked offsets ascending).
    lists: Vec<Vec<usize>>,
    /// u64 words per unit occupancy run.
    words: usize,
    /// `stages * period` cells per unit.
    cells_per_unit: usize,
    /// Occupancy words, `count * words` long.
    occ: Vec<u64>,
    /// Owning op per cell, `count * cells_per_unit` long.
    owner: Vec<usize>,
}

impl ClassArena {
    fn new(rt: &ReservationTable, count: u32, period: u32) -> Self {
        let words = rt.cell_mask_words(period);
        let cells_per_unit = rt.stages() * period as usize;
        ClassArena {
            masks: rt.modulo_cell_masks(period),
            lists: rt.modulo_cell_lists(period),
            words,
            cells_per_unit,
            occ: vec![0u64; count as usize * words],
            owner: vec![NONE; count as usize * cells_per_unit],
        }
    }

    fn unit_occ(&self, fu: u32) -> &[u64] {
        &self.occ[fu as usize * self.words..(fu as usize + 1) * self.words]
    }

    fn unit_owner(&self, fu: u32) -> &[usize] {
        let c = self.cells_per_unit;
        &self.owner[fu as usize * c..(fu as usize + 1) * c]
    }
}

const NONE: usize = usize::MAX;

impl ModuloReservationTable {
    /// An empty MRT for `machine` at the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(machine: &Machine, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        ModuloReservationTable {
            period,
            classes: machine
                .types()
                .iter()
                .map(|t| ClassArena::new(&t.reservation, t.count, period))
                .collect(),
            bundle: BundleState::new(machine, period),
        }
    }

    /// The period this table wraps at.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Finds a unit of `class` whose cells are all free for an operation
    /// issued at `time` (first fit). Returns the unit index.
    pub fn find_free_unit(&self, machine: &Machine, class: OpClass, time: u32) -> Option<u32> {
        let fu_type = machine.fu_type(class).ok()?;
        if let Some(b) = &self.bundle {
            // Bundle limits are unit-independent: a full residue rejects
            // every unit at once.
            if !b.has_headroom(class, (time % self.period) as usize, self.period) {
                return None;
            }
        }
        (0..fu_type.count).find(|&fu| self.cells_free(class, fu, time))
    }

    /// The cell probe: every cell the reservation table needs is free.
    /// One AND per occupancy word.
    fn cells_free(&self, class: OpClass, fu: u32, time: u32) -> bool {
        let arena = &self.classes[class.index()];
        let mask = &arena.masks[(time % self.period) as usize];
        mask.iter().zip(arena.unit_occ(fu)).all(|(m, o)| m & o == 0)
    }

    /// Claims the cells of `op` (an arbitrary caller-chosen tag) issued
    /// at `time` on `fu`.
    ///
    /// # Panics
    ///
    /// Panics if any needed cell is already occupied (callers must use
    /// [`ModuloReservationTable::find_free_unit`] first).
    pub fn place(&mut self, machine: &Machine, class: OpClass, fu: u32, time: u32, op: usize) {
        machine.fu_type(class).expect("known class");
        let period = self.period;
        let arena = &mut self.classes[class.index()];
        let residue = (time % period) as usize;
        let base = fu as usize * arena.cells_per_unit;
        for &cell in &arena.lists[residue] {
            let cell = &mut arena.owner[base + cell];
            assert_eq!(*cell, NONE, "cell already occupied");
            *cell = op;
        }
        let wbase = fu as usize * arena.words;
        for (w, m) in arena.masks[residue].iter().enumerate() {
            arena.occ[wbase + w] |= m;
        }
        if let Some(b) = &mut self.bundle {
            let r = (time % period) as usize;
            debug_assert!(
                b.has_headroom(class, r, period),
                "bundle overflow: callers must probe or evict first"
            );
            b.total[r] += 1;
            for &g in &b.groups_of[class.index()] {
                b.group_counts[g * period as usize + r] += 1;
            }
            b.issued[r].push((op, class.index()));
        }
    }

    /// Releases the cells of `op` issued at `time` on `fu`.
    pub fn remove(&mut self, machine: &Machine, class: OpClass, fu: u32, time: u32, op: usize) {
        machine.fu_type(class).expect("known class");
        let period = self.period;
        let arena = &mut self.classes[class.index()];
        let residue = (time % period) as usize;
        let base = fu as usize * arena.cells_per_unit;
        for &cell in &arena.lists[residue] {
            let cell = &mut arena.owner[base + cell];
            debug_assert_eq!(*cell, op, "removing someone else's reservation");
            *cell = NONE;
        }
        // Every bit of the mask was exclusively this op's (place asserts
        // cell exclusivity), so AND-NOT releases exactly its cells.
        let wbase = fu as usize * arena.words;
        for (w, m) in arena.masks[residue].iter().enumerate() {
            arena.occ[wbase + w] &= !m;
        }
        if let Some(b) = &mut self.bundle {
            let r = (time % period) as usize;
            b.total[r] -= 1;
            for &g in &b.groups_of[class.index()] {
                b.group_counts[g * period as usize + r] -= 1;
            }
            // Ordered removal keeps the ledger in placement order, so
            // later eviction lists stay deterministic.
            if let Some(pos) = b.issued[r].iter().position(|&(o, _)| o == op) {
                b.issued[r].remove(pos);
            }
        }
    }

    /// Ops occupying any cell that an operation of `class` issued at
    /// `time` on `fu` would need — the eviction set for a forced
    /// placement.
    pub fn conflicting_ops(
        &self,
        machine: &Machine,
        class: OpClass,
        fu: u32,
        time: u32,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.conflicting_ops_into(machine, class, fu, time, &mut out);
        out
    }

    /// [`ModuloReservationTable::conflicting_ops`] into a caller-owned
    /// scratch vector (cleared first), so hot eviction loops allocate
    /// nothing. Owners appear in first-claimed-cell scan order, each
    /// distinct op once; the IMS picks eviction victims by the
    /// *distinct-owner count* of this list.
    pub fn conflicting_ops_into(
        &self,
        machine: &Machine,
        class: OpClass,
        fu: u32,
        time: u32,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        machine.fu_type(class).expect("known class");
        let arena = &self.classes[class.index()];
        let owner = arena.unit_owner(fu);
        for &cell in &arena.lists[(time % self.period) as usize] {
            let op = owner[cell];
            if op != NONE && !out.contains(&op) {
                out.push(op);
            }
        }
        if let Some(b) = &self.bundle {
            // Bundle evictees, appended after the cell conflicts in
            // ledger (placement) order. A full residue frees the whole
            // cycle; a full slot group frees only its members.
            let r = (time % self.period) as usize;
            if b.total[r] >= b.width {
                for &(op, _) in &b.issued[r] {
                    if !out.contains(&op) {
                        out.push(op);
                    }
                }
            } else {
                for &g in &b.groups_of[class.index()] {
                    if b.group_counts[g * self.period as usize + r] >= b.caps[g] {
                        for &(op, c) in &b.issued[r] {
                            if b.groups_of[c].contains(&g) && !out.contains(&op) {
                                out.push(op);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_machine::Machine;

    const FP: OpClass = OpClass::new(1);

    #[test]
    fn place_find_remove_roundtrip() {
        let m = Machine::example_pldi95();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        let fu = mrt.find_free_unit(&m, FP, 0).expect("free");
        mrt.place(&m, FP, fu, 0, 7);
        // Offset 1 collides on stage 3 with offset 0 on the same unit...
        let fu2 = mrt.find_free_unit(&m, FP, 1).expect("second unit free");
        assert_ne!(fu, fu2);
        mrt.remove(&m, FP, fu, 0, 7);
        assert_eq!(mrt.find_free_unit(&m, FP, 1), Some(0));
    }

    #[test]
    fn exhausted_units_return_none() {
        let m = Machine::example_pldi95();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        mrt.place(&m, FP, 0, 0, 1);
        mrt.place(&m, FP, 1, 0, 2);
        // Offset 1 overlaps offset 0 on stage 3 for both units.
        assert_eq!(mrt.find_free_unit(&m, FP, 1), None);
        // Offset 2 does not overlap offset 0.
        assert!(mrt.find_free_unit(&m, FP, 2).is_some());
    }

    #[test]
    fn conflicting_ops_lists_evictees() {
        let m = Machine::example_pldi95();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        mrt.place(&m, FP, 0, 0, 1);
        assert_eq!(mrt.conflicting_ops(&m, FP, 0, 1), vec![1]);
        assert!(mrt.conflicting_ops(&m, FP, 0, 2).is_empty());
    }

    #[test]
    fn wrapping_claims_respected() {
        let m = Machine::example_non_pipelined();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        // lat-2 non-pipelined at offset 3 wraps into residues {3, 0}.
        mrt.place(&m, FP, 0, 3, 9);
        assert_eq!(mrt.conflicting_ops(&m, FP, 0, 0), vec![9]);
    }

    #[test]
    fn bundle_width_gates_probes_and_lists_evictees() {
        // example_vliw: width 2, "mem" slot (class 2) capped at 1.
        let m = Machine::example_vliw();
        let int = OpClass::new(0);
        let mem = OpClass::new(2);
        let mut mrt = ModuloReservationTable::new(&m, 4);
        mrt.place(&m, int, 0, 0, 1);
        mrt.place(&m, mem, 0, 0, 2);
        // Residue 0 is issue-full: every class is refused there...
        assert_eq!(mrt.find_free_unit(&m, int, 0), None);
        assert_eq!(
            mrt.find_free_unit(&m, int, 4),
            None,
            "t=4 wraps to residue 0"
        );
        // ...but residue 1 still has room.
        assert!(mrt.find_free_unit(&m, int, 1).is_some());
        // A forced placement at residue 0 must evict the whole cycle.
        let evict = mrt.conflicting_ops(&m, int, 0, 4);
        assert!(
            evict.contains(&1) && evict.contains(&2),
            "evictees: {evict:?}"
        );
    }

    #[test]
    fn slot_group_cap_gates_probes_per_class() {
        let m = Machine::example_vliw();
        let int = OpClass::new(0);
        let mem = OpClass::new(2);
        let mut mrt = ModuloReservationTable::new(&m, 4);
        mrt.place(&m, mem, 0, 1, 5);
        // The mem slot at residue 1 is taken: more mem is refused, but
        // the bundle still has width for an int op.
        assert_eq!(mrt.find_free_unit(&m, mem, 1), None);
        assert!(mrt.find_free_unit(&m, int, 1).is_some());
        assert!(mrt.conflicting_ops(&m, mem, 0, 1).contains(&5));
        mrt.remove(&m, mem, 0, 1, 5);
        assert!(mrt.find_free_unit(&m, mem, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "cell already occupied")]
    fn double_placement_panics() {
        let m = Machine::example_pldi95();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        mrt.place(&m, FP, 0, 0, 1);
        mrt.place(&m, FP, 0, 1, 2);
    }

    #[test]
    fn conflicting_ops_into_reuses_scratch() {
        let m = Machine::example_pldi95();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        mrt.place(&m, FP, 0, 0, 1);
        let mut scratch = vec![99, 98, 97];
        mrt.conflicting_ops_into(&m, FP, 0, 1, &mut scratch);
        assert_eq!(scratch, vec![1]);
        mrt.conflicting_ops_into(&m, FP, 0, 2, &mut scratch);
        assert!(scratch.is_empty());
    }
}
