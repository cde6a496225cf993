//! Iterative modulo scheduling (Rau, MICRO '94) and a non-backtracking
//! list-scheduling variant.

use crate::mrt::ModuloReservationTable;
use std::error::Error;
use std::fmt;
use swp_ddg::{Ddg, NodeId};
use swp_machine::{Machine, PipelinedSchedule};
use swp_milp::budget::{Budget, Exhaustion};

/// Why a heuristic gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeuristicError {
    /// Zero-distance dependence cycle: no period works.
    NoFinitePeriod,
    /// The DDG uses a class the machine does not define.
    UnknownClass(swp_ddg::OpClass),
    /// No schedule found for any `II` up to the cap.
    NotFound {
        /// The minimum II the search started from.
        mii: u32,
        /// The largest II attempted.
        ii_max: u32,
    },
    /// The solve budget's deadline or tick cap tripped mid-search.
    BudgetExhausted,
    /// The budget's cancel token fired mid-search.
    Cancelled,
}

impl fmt::Display for HeuristicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeuristicError::NoFinitePeriod => {
                write!(f, "zero-distance dependence cycle: no finite period")
            }
            HeuristicError::UnknownClass(c) => write!(f, "machine does not define {c}"),
            HeuristicError::NotFound { mii, ii_max } => {
                write!(f, "no schedule found for II in [{mii}, {ii_max}]")
            }
            HeuristicError::BudgetExhausted => write!(f, "solve budget exhausted"),
            HeuristicError::Cancelled => write!(f, "search cancelled"),
        }
    }
}

impl Error for HeuristicError {}

impl From<Exhaustion> for HeuristicError {
    fn from(e: Exhaustion) -> Self {
        match e {
            Exhaustion::Cancelled => HeuristicError::Cancelled,
            Exhaustion::Deadline | Exhaustion::Ticks => HeuristicError::BudgetExhausted,
        }
    }
}

/// A heuristic schedule plus how hard it was to find.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// The (mapped) schedule.
    pub schedule: PipelinedSchedule,
    /// The `MII = max(RecMII, ResMII)` lower bound.
    pub mii: u32,
    /// Initiation intervals attempted, in order (last one succeeded).
    pub tried: Vec<u32>,
    /// Number of evictions performed (0 for the list scheduler).
    pub evictions: u64,
}

impl HeuristicResult {
    /// `II − MII`: zero means the heuristic hit the lower bound.
    pub fn slack_above_mii(&self) -> u32 {
        self.schedule.initiation_interval() - self.mii
    }
}

/// Rau's iterative modulo scheduling with reservation tables and fixed
/// unit binding.
///
/// ```
/// use swp_ddg::{Ddg, OpClass};
/// use swp_heuristics::IterativeModuloScheduler;
/// use swp_machine::Machine;
///
/// # fn main() -> Result<(), swp_heuristics::HeuristicError> {
/// let mut g = Ddg::new();
/// let a = g.add_node("ld", OpClass::new(2), 3);
/// let b = g.add_node("fmul", OpClass::new(1), 2);
/// g.add_edge(a, b, 0).unwrap();
/// let machine = Machine::example_pldi95();
/// let res = IterativeModuloScheduler::new(machine.clone()).schedule(&g)?;
/// assert!(res.schedule.validate(&g, &machine).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IterativeModuloScheduler {
    machine: Machine,
    /// Eviction budget per candidate II, as a multiple of the op count.
    budget_ratio: u32,
    /// Give up after `MII + ii_span`.
    ii_span: u32,
    /// Register-pressure cap audited on every produced schedule.
    max_live: Option<u32>,
}

impl IterativeModuloScheduler {
    /// Creates a scheduler with Rau's customary budget (6× ops) and an
    /// II span of 32.
    pub fn new(machine: Machine) -> Self {
        IterativeModuloScheduler {
            machine,
            budget_ratio: 6,
            ii_span: 32,
            max_live: None,
        }
    }

    /// Overrides the eviction budget multiplier.
    pub fn with_budget_ratio(mut self, ratio: u32) -> Self {
        self.budget_ratio = ratio;
        self
    }

    /// Overrides the II search span.
    pub fn with_ii_span(mut self, span: u32) -> Self {
        self.ii_span = span;
        self
    }

    /// Caps register pressure: any candidate schedule whose per-residue
    /// live census ([`PipelinedSchedule::max_live`]) exceeds the limit
    /// is discarded, failing that II over to the next one (or to the
    /// exact engines). `None` (the default) disables the audit.
    pub fn with_max_live(mut self, limit: Option<u32>) -> Self {
        self.max_live = limit;
        self
    }

    /// Schedules `ddg`, trying `II = MII, MII+1, …`.
    ///
    /// # Errors
    ///
    /// See [`HeuristicError`].
    pub fn schedule(&self, ddg: &Ddg) -> Result<HeuristicResult, HeuristicError> {
        self.schedule_with(ddg, &Budget::unlimited())
    }

    /// Schedules `ddg` under a solve [`Budget`]. One budget tick is spent
    /// per placement (initial or after eviction), so a tick cap bounds
    /// the backtracking deterministically; a fired cancel token stops the
    /// search within one check interval.
    ///
    /// # Errors
    ///
    /// [`HeuristicError::BudgetExhausted`] / [`HeuristicError::Cancelled`]
    /// when the budget trips, plus everything [`HeuristicError`] lists.
    pub fn schedule_with(
        &self,
        ddg: &Ddg,
        budget: &Budget,
    ) -> Result<HeuristicResult, HeuristicError> {
        run(
            &self.machine,
            ddg,
            self.ii_span,
            Some(self.budget_ratio),
            budget,
            self.max_live,
        )
    }

    /// Attempts exactly one initiation interval; `None` means the
    /// heuristic failed there (which proves nothing — the ILP may still
    /// succeed). Used by `swp-core`'s driver as a fast feasibility
    /// certificate before falling back to the ILP.
    pub fn schedule_at(&self, ddg: &Ddg, ii: u32) -> Option<PipelinedSchedule> {
        self.schedule_at_with(ddg, ii, &Budget::unlimited())
            .unwrap_or(None)
    }

    /// Attempts exactly one initiation interval under a solve [`Budget`].
    ///
    /// `Ok(None)` means the heuristic failed at this `II` (which proves
    /// nothing); an error means the budget tripped before the attempt
    /// could finish.
    ///
    /// # Errors
    ///
    /// [`HeuristicError::BudgetExhausted`] or
    /// [`HeuristicError::Cancelled`].
    pub fn schedule_at_with(
        &self,
        ddg: &Ddg,
        ii: u32,
        budget: &Budget,
    ) -> Result<Option<PipelinedSchedule>, HeuristicError> {
        let mut evictions = 0;
        let mut scratch = ImsScratch::default();
        try_ii(
            &self.machine,
            ddg,
            ii,
            Some(self.budget_ratio),
            &mut evictions,
            budget,
            self.max_live,
            &mut scratch,
        )
        .map_err(HeuristicError::from)
    }

    /// [`Self::schedule_at_with`], seeded with a schedule from an earlier
    /// closely-related solve (the previous sweep period, or the pre-edit
    /// instance of an incremental session).
    ///
    /// If the hint already has initiation interval `ii` and validates on
    /// `(ddg, machine)` it is returned directly — a zero-search
    /// feasibility certificate (the caller's cycle-accurate verification
    /// still runs, as for any heuristic schedule). Otherwise the hint is
    /// discarded and the normal IMS search runs: a stale hint can cost
    /// one validation, never correctness.
    ///
    /// # Errors
    ///
    /// As [`Self::schedule_at_with`].
    pub fn schedule_at_with_hint(
        &self,
        ddg: &Ddg,
        ii: u32,
        budget: &Budget,
        hint: Option<&PipelinedSchedule>,
    ) -> Result<Option<PipelinedSchedule>, HeuristicError> {
        if let Some(h) = hint {
            if h.initiation_interval() == ii
                && h.num_ops() == ddg.num_nodes()
                && h.validate(ddg, &self.machine).is_ok()
                && self.max_live.map_or(true, |ml| h.max_live(ddg) <= ml)
            {
                return Ok(Some(h.clone()));
            }
        }
        self.schedule_at_with(ddg, ii, budget)
    }
}

/// Modulo list scheduling: identical priorities and placement windows,
/// but the first unplaceable operation aborts to the next `II`.
#[derive(Debug, Clone)]
pub struct ListModuloScheduler {
    machine: Machine,
    ii_span: u32,
}

impl ListModuloScheduler {
    /// Creates a list scheduler with an II span of 32.
    pub fn new(machine: Machine) -> Self {
        ListModuloScheduler {
            machine,
            ii_span: 32,
        }
    }

    /// Schedules `ddg` without backtracking.
    ///
    /// # Errors
    ///
    /// See [`HeuristicError`].
    pub fn schedule(&self, ddg: &Ddg) -> Result<HeuristicResult, HeuristicError> {
        self.schedule_with(ddg, &Budget::unlimited())
    }

    /// Schedules `ddg` without backtracking, under a solve [`Budget`].
    ///
    /// # Errors
    ///
    /// See [`HeuristicError`].
    pub fn schedule_with(
        &self,
        ddg: &Ddg,
        budget: &Budget,
    ) -> Result<HeuristicResult, HeuristicError> {
        run(&self.machine, ddg, self.ii_span, None, budget, None)
    }
}

/// Height priority: longest latency-weighted path to any sink, with
/// loop-carried edges discounted by `II·distance`. Computed by fixed
/// point (bounded passes, cycles contribute only via their discounted
/// edges, which cannot diverge when `II ≥ RecMII`).
fn heights_into(ddg: &Ddg, ii: u32, h: &mut Vec<i64>) {
    let n = ddg.num_nodes();
    h.clear();
    h.extend(ddg.nodes().map(|(_, nd)| nd.latency as i64));
    for _ in 0..n.max(1) {
        let mut changed = false;
        for e in ddg.edges() {
            let d = ddg.node(e.src).latency as i64;
            let v = h[e.dst.index()] + d - ii as i64 * e.distance as i64;
            if v > h[e.src.index()] {
                h[e.src.index()] = v;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
fn heights(ddg: &Ddg, ii: u32) -> Vec<i64> {
    let mut h = Vec::new();
    heights_into(ddg, ii, &mut h);
    h
}

/// Reusable buffers for [`try_ii`]: allocated once per search, so the
/// steady place/evict loop runs allocation-free across candidate IIs.
#[derive(Debug, Default)]
struct ImsScratch {
    heights: Vec<i64>,
    order: Vec<usize>,
    time: Vec<Option<u32>>,
    unit: Vec<u32>,
    prev_time: Vec<Option<u32>>,
    pending: Vec<usize>,
    evict_probe: Vec<usize>,
    evict_victims: Vec<usize>,
}

fn run(
    machine: &Machine,
    ddg: &Ddg,
    ii_span: u32,
    budget_ratio: Option<u32>,
    budget: &Budget,
    max_live: Option<u32>,
) -> Result<HeuristicResult, HeuristicError> {
    let t_dep = ddg.t_dep().ok_or(HeuristicError::NoFinitePeriod)?;
    let map_err = |e| match e {
        swp_machine::MachineError::UnknownClass(c) => HeuristicError::UnknownClass(c),
        // Construction-time errors (NoUnits, BadBundle) cannot reach a
        // built Machine; fold them into the generic no-period error.
        _ => HeuristicError::NoFinitePeriod,
    };
    let t_res = machine.t_res(ddg).map_err(map_err)?;
    let mii = t_dep.max(t_res);
    let mut tried = Vec::new();
    let mut evictions = 0u64;
    let mut scratch = ImsScratch::default();
    for ii in mii..=mii + ii_span {
        budget.check()?;
        tried.push(ii);
        if let Some(schedule) = try_ii(
            machine,
            ddg,
            ii,
            budget_ratio,
            &mut evictions,
            budget,
            max_live,
            &mut scratch,
        )? {
            return Ok(HeuristicResult {
                schedule,
                mii,
                tried,
                evictions,
            });
        }
    }
    Err(HeuristicError::NotFound {
        mii,
        ii_max: mii + ii_span,
    })
}

#[allow(clippy::too_many_arguments)]
fn try_ii(
    machine: &Machine,
    ddg: &Ddg,
    ii: u32,
    budget_ratio: Option<u32>,
    evictions: &mut u64,
    budget: &Budget,
    max_live: Option<u32>,
    scratch: &mut ImsScratch,
) -> Result<Option<PipelinedSchedule>, Exhaustion> {
    let n = ddg.num_nodes();
    if n == 0 {
        return Ok(Some(PipelinedSchedule::new(ii, Vec::new(), Vec::new())));
    }
    // The modulo constraint and class packing capacity must hold
    // regardless of placement.
    for class in ddg.classes() {
        let Ok(fu) = machine.fu_type(class) else {
            return Ok(None);
        };
        if !fu.reservation.modulo_feasible(ii) {
            return Ok(None);
        }
    }
    match machine.classes_pack(ddg, ii) {
        Ok(true) => {}
        Ok(false) | Err(_) => return Ok(None),
    }
    let ImsScratch {
        heights: h,
        order,
        time,
        unit,
        prev_time,
        pending,
        evict_probe,
        evict_victims,
    } = scratch;
    heights_into(ddg, ii, h);
    order.clear();
    order.extend(0..n);
    order.sort_by_key(|&i| std::cmp::Reverse(h[i]));

    let mut mrt = ModuloReservationTable::new(machine, ii);
    time.clear();
    time.resize(n, None);
    unit.clear();
    unit.resize(n, 0);
    prev_time.clear();
    prev_time.resize(n, None);
    let mut evict_budget: i64 = match budget_ratio {
        Some(r) => (r as i64) * n as i64,
        None => n as i64, // list mode: exactly one placement per op
    };
    // Worklist stack of ops to (re)place; `pop` must yield the highest
    // priority first, so push in ascending-priority order.
    pending.clear();
    pending.extend(order.iter().rev().copied());

    while let Some(i) = pending.pop() {
        // One solve-budget tick per placement bounds backtracking work
        // deterministically; the eviction counter below is the separate
        // per-II heuristic allowance.
        budget.tick()?;
        if evict_budget <= 0 {
            return Ok(None);
        }
        evict_budget -= 1;
        let id = NodeId::from_index(i);
        let node = ddg.node(id);

        // Earliest start from *scheduled* predecessors.
        let mut estart: i64 = 0;
        for e in ddg.edges().filter(|e| e.dst == id) {
            if let Some(tp) = time[e.src.index()] {
                let d = ddg.node(e.src).latency as i64;
                estart = estart.max(tp as i64 + d - ii as i64 * e.distance as i64);
            }
        }
        let estart = estart.max(0) as u32;

        // Scan the II-wide window for a slot with a free unit.
        let mut placed_at: Option<(u32, u32)> = None;
        for dt in 0..ii {
            let t = estart + dt;
            if let Some(fu) = mrt.find_free_unit(machine, node.class, t) {
                placed_at = Some((t, fu));
                break;
            }
        }

        let (t, fu) = match placed_at {
            Some(tf) => tf,
            None => {
                let Some(_) = budget_ratio else {
                    return Ok(None); // list mode: no backtracking
                };
                // Forced placement (Rau): at estart, or one past the last
                // try to guarantee progress; evict whatever is in the way.
                let t = match prev_time[i] {
                    Some(p) if p >= estart => p + 1,
                    _ => estart,
                };
                // Evict resource conflicts on the least-loaded unit
                // (first unit with fewest conflicts).
                let Ok(fu_type) = machine.fu_type(node.class) else {
                    return Ok(None);
                };
                let Some(fu) = (0..fu_type.count).min_by_key(|&fu| {
                    mrt.conflicting_ops_into(machine, node.class, fu, t, evict_probe);
                    evict_probe.len()
                }) else {
                    // A class with zero units can never be placed.
                    return Ok(None);
                };
                mrt.conflicting_ops_into(machine, node.class, fu, t, evict_victims);
                for k in 0..evict_victims.len() {
                    let victim = evict_victims[k];
                    let vid = NodeId::from_index(victim);
                    // Conflicting ops are scheduled by construction; if the
                    // MRT ever disagrees, skip the victim rather than panic.
                    let Some(vt) = time[victim] else { continue };
                    mrt.remove(machine, ddg.node(vid).class, unit[victim], vt, victim);
                    time[victim] = None;
                    pending.push(victim);
                    *evictions += 1;
                }
                (t, fu)
            }
        };

        mrt.place(machine, node.class, fu, t, i);
        time[i] = Some(t);
        unit[i] = fu;
        prev_time[i] = Some(t);

        // Evict scheduled successors whose dependence is now violated.
        for e in ddg.edges().filter(|e| e.src == id && e.dst != id) {
            if let Some(ts) = time[e.dst.index()] {
                let need = t as i64 + node.latency as i64 - ii as i64 * e.distance as i64;
                if (ts as i64) < need {
                    let j = e.dst.index();
                    let jd = NodeId::from_index(j);
                    mrt.remove(machine, ddg.node(jd).class, unit[j], ts, j);
                    time[j] = None;
                    pending.push(j);
                    *evictions += 1;
                }
            }
        }
    }

    // Every op must have been placed once the worklist drained; if the
    // invariant ever breaks, fail the II rather than panic.
    let mut starts: Vec<u32> = Vec::with_capacity(n);
    for t in time.iter() {
        match t {
            Some(t) => starts.push(*t),
            None => return Ok(None),
        }
    }
    let assignment: Vec<Option<u32>> = unit.iter().map(|&u| Some(u)).collect();
    let schedule = PipelinedSchedule::new(ii, starts, assignment);
    // The eviction loop guarantees dependences w.r.t. scheduled ops, but a
    // final audit keeps the heuristic honest (and catches budget races).
    if schedule.validate(ddg, machine).is_err() {
        return Ok(None);
    }
    // Pressure audit: IMS places by resources and dependences only, so
    // a capped run simply discards over-pressure schedules and lets the
    // II sweep (or the exact engines) find a compliant one.
    if let Some(ml) = max_live {
        if schedule.max_live(ddg) > ml {
            return Ok(None);
        }
    }
    Ok(Some(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ddg::OpClass;

    fn fp_loop() -> Ddg {
        let mut g = Ddg::new();
        let ld = g.add_node("load", OpClass::new(2), 3);
        let m1 = g.add_node("fmul", OpClass::new(1), 2);
        let a1 = g.add_node("fadd", OpClass::new(1), 2);
        let st = g.add_node("store", OpClass::new(2), 3);
        g.add_edge(ld, m1, 0).unwrap();
        g.add_edge(m1, a1, 0).unwrap();
        g.add_edge(a1, st, 0).unwrap();
        g.add_edge(a1, a1, 1).unwrap();
        g
    }

    #[test]
    fn ims_schedules_and_validates() {
        let machine = Machine::example_pldi95();
        let res = IterativeModuloScheduler::new(machine.clone())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert_eq!(res.mii, 2);
        assert!(res.schedule.validate(&fp_loop(), &machine).is_ok());
        assert!(res.schedule.is_mapped());
    }

    #[test]
    fn list_scheduler_never_beats_ims() {
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let ims = IterativeModuloScheduler::new(machine.clone())
            .schedule(&g)
            .expect("ims");
        let list = ListModuloScheduler::new(machine)
            .schedule(&g)
            .expect("list");
        assert!(ims.schedule.initiation_interval() <= list.schedule.initiation_interval());
    }

    #[test]
    fn vliw_bundle_machine_schedules_validate() {
        let machine = Machine::example_vliw();
        let g = fp_loop();
        let res = IterativeModuloScheduler::new(machine.clone())
            .schedule(&g)
            .expect("schedulable on bundle machine");
        assert!(res.schedule.validate(&g, &machine).is_ok());
    }

    #[test]
    fn max_live_cap_is_respected_or_refused() {
        let machine = Machine::example_clean();
        let g = fp_loop();
        let uncapped = IterativeModuloScheduler::new(machine.clone())
            .schedule(&g)
            .expect("uncapped");
        let pressure = uncapped.schedule.max_live(&g);
        assert!(pressure > 0);
        // Capping at the observed pressure must still succeed, and the
        // produced schedule must honor the cap.
        let capped = IterativeModuloScheduler::new(machine.clone())
            .with_max_live(Some(pressure))
            .schedule(&g)
            .expect("capped at observed pressure");
        assert!(capped.schedule.max_live(&g) <= pressure);
        assert!(capped.schedule.validate_pressure(&g, pressure).is_ok());
        // An impossible cap (0 with real cross-iteration flow) must make
        // every II fail rather than emit a violating schedule.
        let res = IterativeModuloScheduler::new(machine)
            .with_max_live(Some(0))
            .schedule(&g);
        match res {
            Ok(r) => panic!("cap 0 produced II {}", r.schedule.initiation_interval()),
            Err(e) => assert!(matches!(
                e,
                HeuristicError::NotFound { .. } | HeuristicError::BudgetExhausted
            )),
        }
    }

    #[test]
    fn heights_prefer_long_chains() {
        let g = fp_loop();
        let h = heights(&g, 2);
        // load heads the longest chain, store ends it.
        assert!(h[0] > h[3]);
    }

    #[test]
    fn non_pipelined_machine_handled() {
        let machine = Machine::example_non_pipelined();
        let g = fp_loop();
        let res = IterativeModuloScheduler::new(machine.clone())
            .schedule(&g)
            .expect("schedulable");
        assert!(res.schedule.validate(&g, &machine).is_ok());
    }

    #[test]
    fn zero_distance_cycle_rejected() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        let b = g.add_node("b", OpClass::new(1), 2);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        let err = IterativeModuloScheduler::new(Machine::example_pldi95())
            .schedule(&g)
            .unwrap_err();
        assert_eq!(err, HeuristicError::NoFinitePeriod);
    }

    #[test]
    fn empty_ddg_trivially_scheduled() {
        let g = Ddg::new();
        let res = IterativeModuloScheduler::new(Machine::example_pldi95())
            .schedule(&g)
            .expect("empty ok");
        assert_eq!(res.schedule.num_ops(), 0);
    }

    #[test]
    fn tight_budget_fails_gracefully_to_higher_ii() {
        let machine = Machine::example_non_pipelined();
        let g = fp_loop();
        // Budget 1 means almost no rescheduling; IMS should still find a
        // schedule at some (possibly larger) II.
        let res = IterativeModuloScheduler::new(machine.clone())
            .with_budget_ratio(1)
            .schedule(&g)
            .expect("eventually schedulable");
        assert!(res.schedule.validate(&g, &machine).is_ok());
    }
}
