//! The traced run: the scheduler's period sweep walked through the public
//! entry points of each layer, with a span around every call.
//!
//! [`walk`] reproduces `RateOptimalScheduler::schedule_with_warm` for the
//! configurations the workloads use: the same bounds, the same period
//! order, the IMS incumbent probe, the exact engine with the same warm
//! carry-over inside one sweep (CP no-goods, simplex bases), the same
//! re-check and fallbacks, and the same grace IMS after a budget runs
//! out. The run then checks that it reached the untraced run's decision
//! on every problem, so a walk that drifted from the scheduler shows.
//!
//! `Machine::classes_pack` runs inside `Machine::t_res`, the IMS, the
//! formulation and the CP search, where no span from outside can reach
//! it. After each such call returns, the walk re-executes the packing
//! tests that call made, times them, and books them as child spans of
//! the call. The re-execution is left out of the traced wall time.

use crate::alloc;
use crate::run::Solver;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use swp_automata::HazardAutomaton;
use swp_core::formulation::{self, FormulationOptions};
use swp_core::{
    ConflictOracleMode, DataLayout, Engine, MappingMode, Objective, Optimality, PipelinedSchedule,
    RateOptimalScheduler, ReuseStats, ScheduleError, ScheduleResult, SolvedBy, ValidationError,
};
use swp_cpsat::{CpError, CpOptions, CpOutcome, NoGoodStore};
use swp_ddg::Ddg;
use swp_heuristics::{HeuristicError, IterativeModuloScheduler};
use swp_incr::{EditOp, SolveSession};
use swp_machine::{Machine, MachineError};
use swp_milp::{Budget, Exhaustion, PivotLayout, SolveError, SolveLimits};

/// The grace allowance the scheduler gives its fallback IMS after a budget
/// runs out (`GRACE_TICKS` in `swp-core`).
const GRACE_TICKS: u64 = 200_000;

/// Raw spans kept in memory for the spans file; later spans still count
/// toward every metric.
const MAX_KEPT_SPANS: usize = 200_000;

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("ddg.t_dep_calls", "count"),
    ("ddg.t_dep_ns", "ns"),
    ("machine.t_res_ns", "ns"),
    ("machine.classes_pack_calls", "count"),
    ("machine.classes_pack_ns", "ns"),
    ("machine.classes_pack_max_ns", "ns"),
    ("machine.validate_calls", "count"),
    ("machine.validate_ns", "ns"),
    ("machine.validate_rejects", "count"),
    ("machine.pressure_ns", "ns"),
    ("automata.builds", "count"),
    ("automata.memo_hits", "count"),
    ("automata.build_ns", "ns"),
    ("heuristics.ims_calls", "count"),
    ("heuristics.ims_found", "count"),
    ("heuristics.ims_ns", "ns"),
    ("heuristics.ims_ticks", "ticks"),
    ("heuristics.grace_calls", "count"),
    ("heuristics.grace_ns", "ns"),
    ("core.formulation_calls", "count"),
    ("core.formulation_ns", "ns"),
    ("core.formulation_rejects", "count"),
    ("core.formulation_vars", "count"),
    ("core.formulation_constrs", "count"),
    ("core.formulation_alloc_bytes", "B"),
    ("milp.solve_calls", "count"),
    ("milp.solve_ns", "ns"),
    ("milp.ticks", "ticks"),
    ("milp.cap_hits", "count"),
    ("milp.allocs", "count"),
    ("milp.alloc_bytes", "B"),
    ("cpsat.solve_calls", "count"),
    ("cpsat.solve_ns", "ns"),
    ("cpsat.nodes", "ticks"),
    ("cpsat.conflicts", "count"),
    ("cpsat.refuted", "count"),
    ("cpsat.cap_hits", "count"),
    ("incr.apply_calls", "count"),
    ("incr.apply_ns", "ns"),
    ("incr.solve_calls", "count"),
    ("incr.solve_ns", "ns"),
    ("incr.replays", "count"),
    ("incr.nogood_replays", "count"),
    ("incr.ims_hint_hits", "count"),
    ("incr.basis_hits", "count"),
    ("incr.periods_skipped", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One recorded span. `dur_ns` leaves out re-executed packing tests
/// nested in it; a re-executed test has `replayed` set.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub problem: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub replayed: bool,
}

struct Open {
    name: &'static str,
    id: u32,
    start: Instant,
    /// Time of nested spans (re-executions included).
    child: Duration,
    /// Real time of nested re-executions, not part of this span.
    excluded: Duration,
}

/// Span stack, per-layer self time and named counters.
pub struct Tracer {
    epoch: Instant,
    problem: u32,
    next_id: u32,
    open: Vec<Open>,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
    /// Self time per layer (the span-name prefix before the dot).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Calls and total time per span name.
    per_span: HashMap<&'static str, (u64, u64)>,
    counters: HashMap<&'static str, u64>,
    /// Re-execution time since the last [`Solver::take_excluded`].
    excluded: Duration,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            problem: 0,
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            self_ns: BTreeMap::new(),
            per_span: HashMap::new(),
            counters: HashMap::new(),
            excluded: Duration::ZERO,
        }
    }

    /// A per-layer metric: a named counter, or `<span>_calls` /
    /// `<span>_ns` of a span name; 0 when nothing was recorded.
    pub fn metric(&self, name: &str) -> u64 {
        if let Some(&v) = self.counters.get(name) {
            return v;
        }
        let stat = |suffix| {
            name.strip_suffix(suffix)
                .and_then(|span| self.per_span.get(span))
        };
        match (stat("_calls"), stat("_ns")) {
            (Some(&(calls, _)), _) => calls,
            (_, Some(&(_, ns))) => ns,
            _ => 0,
        }
    }

    fn add(&mut self, counter: &'static str, n: u64) {
        *self.counters.entry(counter).or_default() += n;
    }

    fn keep(&mut self, span: Span) {
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(span);
        } else {
            self.dropped_spans += 1;
        }
    }

    /// Runs `f` inside a span named `layer.call`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            name,
            id,
            start: Instant::now(),
            child: Duration::ZERO,
            excluded: Duration::ZERO,
        });
        let out = f(self);
        let o = self.open.pop().expect("span stack is balanced");
        let dur = o.start.elapsed().saturating_sub(o.excluded);
        self.close(o.name, o.id, o.start, dur, o.child, false);
        out
    }

    /// Books a re-executed call of `dur` as a child of the open span.
    fn replayed(&mut self, name: &'static str, start: Instant, dur: Duration) {
        let id = self.next_id;
        self.next_id += 1;
        self.excluded += dur;
        for o in &mut self.open {
            o.excluded += dur;
        }
        self.close(name, id, start, dur, Duration::ZERO, true);
    }

    fn close(
        &mut self,
        name: &'static str,
        id: u32,
        start: Instant,
        dur: Duration,
        child: Duration,
        replayed: bool,
    ) {
        let layer = name.split('.').next().unwrap_or(name);
        *self.self_ns.entry(layer).or_default() += dur.saturating_sub(child).as_nanos() as u64;
        let parent = self.open.last_mut().map(|p| {
            p.child += dur;
            p.id
        });
        let (calls, ns) = self.per_span.entry(name).or_default();
        *calls += 1;
        *ns += dur.as_nanos() as u64;
        let span = Span {
            id,
            name,
            problem: self.problem,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            replayed,
        };
        self.keep(span);
    }

    /// Re-executes one `classes_pack` test the last call made.
    fn pack(&mut self, m: &Machine, ddg: &Ddg, t: u32) -> bool {
        let start = Instant::now();
        let packs = m.classes_pack(ddg, t);
        let dur = start.elapsed();
        let max = self
            .counters
            .entry("machine.classes_pack_max_ns")
            .or_default();
        *max = (*max).max(dur.as_nanos() as u64);
        self.replayed("machine.classes_pack", start, dur);
        packs.unwrap_or(false)
    }

    /// The packing tests of `Machine::t_res`: from the counting bound up
    /// to the first period that packs.
    fn t_res_packs(&mut self, m: &Machine, ddg: &Ddg) {
        let Ok(mut bound) = m.t_res_counting(ddg) else {
            return;
        };
        let cap = bound + 64;
        while bound < cap && !self.pack(m, ddg, bound) {
            bound += 1;
        }
    }

    /// The packing test one IMS attempt at `ii` makes, which follows its
    /// per-class modulo check.
    fn ims_pack(&mut self, m: &Machine, ddg: &Ddg, ii: u32) {
        let modulo_ok = ddg.classes().into_iter().all(|c| {
            m.fu_type(c)
                .is_ok_and(|fu| fu.reservation.modulo_feasible(ii))
        });
        if ddg.num_nodes() > 0 && modulo_ok {
            self.pack(m, ddg, ii);
        }
    }
}

/// The traced solver.
pub struct Traced {
    pub tracer: Tracer,
}

impl Traced {
    pub fn new() -> Traced {
        Traced {
            tracer: Tracer::new(),
        }
    }

    /// Automaton memo counters around `f`, added to the totals.
    fn with_automata<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = swp_automata::stats::snapshot();
        let out = f(&mut self.tracer);
        let delta = swp_automata::stats::snapshot().since(&before);
        self.tracer.add("automata.builds", delta.memo_builds);
        self.tracer.add("automata.memo_hits", delta.memo_hits);
        out
    }
}

impl Solver for Traced {
    fn solve(
        &mut self,
        id: usize,
        scheduler: &RateOptimalScheduler,
        ddg: &Ddg,
        ticks: u64,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.tracer.problem = id as u32;
        self.with_automata(|tr| walk(tr, scheduler, ddg, ticks))
    }

    fn step(
        &mut self,
        id: usize,
        session: &mut SolveSession,
        edit: Option<&EditOp>,
        ticks: u64,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.tracer.problem = id as u32;
        self.with_automata(|tr| {
            if let Some(op) = edit {
                tr.span("incr.apply", |_| session.apply(op))
                    .expect("script edits are valid");
            }
            let before = session.reuse();
            let budget = Budget::with_tick_limit(ticks);
            let solved = tr.span("incr.solve", |_| session.solve_with(&budget));
            let after = session.reuse();
            let d = |f: fn(&ReuseStats) -> u64| f(&after).saturating_sub(f(&before));
            tr.add("incr.replays", d(|r| r.replays));
            tr.add("incr.nogood_replays", d(|r| r.nogood_replays));
            tr.add("incr.ims_hint_hits", d(|r| r.ims_hint_hits));
            tr.add("incr.basis_hits", d(|r| r.basis_hits));
            tr.add("incr.periods_skipped", d(|r| r.periods_skipped));
            solved
        })
    }

    fn take_excluded(&mut self) -> Duration {
        std::mem::take(&mut self.tracer.excluded)
    }
}

/// What one exact engine concluded about one period.
enum Verdict {
    Feasible {
        starts: Vec<u32>,
        units: Vec<Option<u32>>,
    },
    Refuted,
    Limit,
    Cancelled,
    Failed,
    Error(ScheduleError),
}

/// Warm state carried across the periods of one sweep.
#[derive(Default)]
struct Carry {
    basis_names: Option<Vec<String>>,
    nogoods: NoGoodStore,
}

/// The scheduler's sweep for one loop, through public entry points.
///
/// # Panics
///
/// Panics on a configuration the walk does not reproduce.
pub fn walk(
    tr: &mut Tracer,
    s: &RateOptimalScheduler,
    ddg: &Ddg,
    ticks: u64,
) -> Result<ScheduleResult, ScheduleError> {
    let (m, cfg) = (s.machine(), s.config());
    assert!(
        cfg.mapping == MappingMode::UnifiedColoring
            && cfg.objective == Objective::Feasible
            && cfg.packing_bound
            && cfg.conflict_oracle == ConflictOracleMode::Scan
            && cfg.data_layout == DataLayout::Flat
            && cfg.warm_sweep
            && cfg.time_limit_per_t.is_none()
            && cfg.time_limit_total.is_none()
            && cfg.engine != Engine::Portfolio,
        "the traced walk does not reproduce this configuration"
    );
    let budget = Budget::with_tick_limit(ticks);
    let ims = IterativeModuloScheduler::new(m.clone()).with_max_live(cfg.max_live);

    let t_dep = tr
        .span("ddg.t_dep", |_| ddg.t_dep())
        .ok_or(ScheduleError::NoFinitePeriod)?;
    let t_res = tr
        .span("machine.t_res", |tr| {
            let bound = m.t_res(ddg);
            tr.t_res_packs(m, ddg);
            bound
        })
        .map_err(|e| match e {
            MachineError::UnknownClass(c) => ScheduleError::UnknownClass(c),
            MachineError::NoUnits(n) => ScheduleError::BadMachine(n),
            MachineError::BadBundle(why) => ScheduleError::BadMachine(why),
        })?;
    let t_lb = t_dep.max(t_res);
    let t_max = t_lb + cfg.max_t_above_lb;
    let mut first_unrefuted = t_lb;
    let mut budget_hit = false;
    let mut carry = Carry::default();
    let done = |schedule, first_unrefuted: u32| {
        let period = PipelinedSchedule::initiation_interval(&schedule);
        Ok(ScheduleResult {
            schedule,
            t_dep,
            t_res,
            attempts: Vec::new(),
            optimality: if first_unrefuted == period {
                Optimality::Proven
            } else {
                Optimality::BudgetExhausted {
                    smallest_refuted: first_unrefuted,
                }
            },
        })
    };

    for period in t_lb..=t_max {
        match budget.check() {
            Ok(()) => {}
            Err(Exhaustion::Cancelled) => return Err(ScheduleError::Cancelled),
            Err(_) => {
                budget_hit = true;
                break;
            }
        }
        if cfg.heuristic_incumbent {
            match probe(tr, &ims, m, ddg, period, &budget) {
                Ok(Some(schedule)) => {
                    if verify(tr, m, ddg, cfg.max_live, &schedule).is_ok() {
                        return done(schedule, first_unrefuted);
                    }
                }
                Ok(None) => {}
                Err(HeuristicError::Cancelled) => return Err(ScheduleError::Cancelled),
                Err(_) => {
                    if budget.check().is_err() {
                        budget_hit = true;
                        break;
                    }
                    continue;
                }
            }
        }
        // CP cannot color classes wider than its unit domains; the
        // scheduler settles such periods with the ILP instead.
        let (verdict, engine) = match cfg.engine {
            Engine::Cp => match cp(tr, s, ddg, period, &budget, &mut carry) {
                Verdict::Failed => (ilp(tr, s, ddg, period, &budget, &mut carry), SolvedBy::Ilp),
                v => (v, SolvedBy::Cp),
            },
            _ => (ilp(tr, s, ddg, period, &budget, &mut carry), SolvedBy::Ilp),
        };
        match verdict {
            Verdict::Feasible { starts, units } => {
                let assignment = complete_assignment(m, ddg, period, &starts, &units)?;
                let schedule = PipelinedSchedule::new(period, starts, assignment);
                let Err(error) = verify(tr, m, ddg, cfg.max_live, &schedule) else {
                    return done(schedule, first_unrefuted);
                };
                return match fallback(tr, &ims, m, ddg, cfg.max_live, period, &budget) {
                    Some(Ok(schedule)) => done(schedule, first_unrefuted),
                    Some(Err(e)) => Err(e),
                    None => Err(ScheduleError::VerificationFailed {
                        period,
                        engine,
                        error,
                    }),
                };
            }
            Verdict::Refuted => {
                if first_unrefuted == period {
                    first_unrefuted = period + 1;
                }
            }
            Verdict::Limit => {
                if budget.check().is_err() {
                    budget_hit = true;
                    break;
                }
            }
            Verdict::Cancelled => return Err(ScheduleError::Cancelled),
            Verdict::Failed => match fallback(tr, &ims, m, ddg, cfg.max_live, period, &budget) {
                Some(Ok(schedule)) => return done(schedule, first_unrefuted),
                Some(Err(e)) => return Err(e),
                None => {}
            },
            Verdict::Error(e) => return Err(e),
        }
    }

    if let Err(Exhaustion::Cancelled) = budget.check() {
        return Err(ScheduleError::Cancelled);
    }
    if budget_hit {
        let grace = Budget::with_tick_limit(GRACE_TICKS);
        let found = tr.span("heuristics.grace", |tr| {
            let r = ims.schedule_with(ddg, &grace);
            // The sweep computes its own bounds, then tries each II.
            tr.t_res_packs(m, ddg);
            let tried: Vec<u32> = match &r {
                Ok(res) => res.tried.clone(),
                Err(HeuristicError::NotFound { mii, ii_max }) => (*mii..=*ii_max).collect(),
                Err(_) => Vec::new(),
            };
            for ii in tried {
                tr.ims_pack(m, ddg, ii);
            }
            r
        });
        return match found {
            Ok(res) => match verify(tr, m, ddg, cfg.max_live, &res.schedule) {
                Ok(()) => Ok(ScheduleResult {
                    optimality: Optimality::BudgetExhausted {
                        smallest_refuted: first_unrefuted,
                    },
                    ..done(res.schedule, first_unrefuted)?
                }),
                Err(error) => Err(ScheduleError::VerificationFailed {
                    period: res.schedule.initiation_interval(),
                    engine: SolvedBy::Heuristic,
                    error,
                }),
            },
            Err(HeuristicError::Cancelled) => Err(ScheduleError::Cancelled),
            Err(_) => Err(ScheduleError::NotFound {
                t_lb,
                t_max,
                attempts: Vec::new(),
            }),
        };
    }
    Err(ScheduleError::NotFound {
        t_lb,
        t_max,
        attempts: Vec::new(),
    })
}

/// The IMS incumbent probe at one period.
fn probe(
    tr: &mut Tracer,
    ims: &IterativeModuloScheduler,
    m: &Machine,
    ddg: &Ddg,
    period: u32,
    budget: &Budget,
) -> Result<Option<PipelinedSchedule>, HeuristicError> {
    let before = budget.ticks_used();
    let r = tr.span("heuristics.ims", |tr| {
        let r = ims.schedule_at_with(ddg, period, budget);
        tr.ims_pack(m, ddg, period);
        r
    });
    tr.add("heuristics.ims_ticks", budget.ticks_used() - before);
    if matches!(r, Ok(Some(_))) {
        tr.add("heuristics.ims_found", 1);
    }
    r
}

/// The scheduler's re-check: the checker, then the pressure cap.
fn verify(
    tr: &mut Tracer,
    m: &Machine,
    ddg: &Ddg,
    max_live: Option<u32>,
    schedule: &PipelinedSchedule,
) -> Result<(), ValidationError> {
    let checked = tr
        .span("machine.validate", |_| schedule.validate(ddg, m))
        .and_then(|()| match max_live {
            Some(limit) => tr.span("machine.pressure", |_| {
                schedule.validate_pressure(ddg, limit)
            }),
            None => Ok(()),
        });
    if checked.is_err() {
        tr.add("machine.validate_rejects", 1);
    }
    checked
}

/// The IMS at the same period after the exact engine's schedule was
/// rejected or the engine failed.
fn fallback(
    tr: &mut Tracer,
    ims: &IterativeModuloScheduler,
    m: &Machine,
    ddg: &Ddg,
    max_live: Option<u32>,
    period: u32,
    budget: &Budget,
) -> Option<Result<PipelinedSchedule, ScheduleError>> {
    match probe(tr, ims, m, ddg, period, budget) {
        Ok(Some(schedule)) => verify(tr, m, ddg, max_live, &schedule)
            .is_ok()
            .then_some(Ok(schedule)),
        Ok(None) => None,
        Err(HeuristicError::Cancelled) => Some(Err(ScheduleError::Cancelled)),
        Err(_) => None,
    }
}

/// The CP engine at one period, after fetching its hazard automaton.
fn cp(
    tr: &mut Tracer,
    s: &RateOptimalScheduler,
    ddg: &Ddg,
    period: u32,
    budget: &Budget,
    carry: &mut Carry,
) -> Verdict {
    let (m, cfg) = (s.machine(), s.config());
    // The CP search fetches this automaton itself; fetching it first
    // puts a build in its own span and leaves the search a memo hit.
    tr.span("automata.for_machine", |tr| {
        let before = swp_automata::stats::snapshot().memo_builds;
        let start = Instant::now();
        HazardAutomaton::for_machine(m, period);
        if swp_automata::stats::snapshot().memo_builds > before {
            tr.add("automata.build_ns", start.elapsed().as_nanos() as u64);
        }
    });
    let opts = CpOptions {
        symmetry_breaking: cfg.symmetry_breaking,
        packing_bound: cfg.packing_bound,
        max_live: cfg.max_live,
    };
    let before = budget.ticks_used();
    let solved = tr.span("cpsat.solve", |tr| {
        let r = swp_cpsat::solve_at_warm(ddg, m, period, opts, budget, &mut carry.nogoods);
        tr.pack(m, ddg, period);
        r
    });
    tr.add("cpsat.nodes", budget.ticks_used() - before);
    if let Ok((_, stats)) = &solved {
        tr.add("cpsat.conflicts", stats.conflicts);
    }
    match solved {
        Ok((CpOutcome::Feasible { starts, units }, _)) => Verdict::Feasible { starts, units },
        Ok((CpOutcome::Infeasible, _)) => {
            tr.add("cpsat.refuted", 1);
            Verdict::Refuted
        }
        Err(CpError::Exhausted(Exhaustion::Cancelled)) => Verdict::Cancelled,
        Err(CpError::Exhausted(_)) => {
            tr.add("cpsat.cap_hits", 1);
            Verdict::Limit
        }
        Err(CpError::UnknownClass(c)) => Verdict::Error(ScheduleError::UnknownClass(c)),
        Err(CpError::TooManyUnits { .. }) => Verdict::Failed,
    }
}

/// The unified ILP at one period: formulation, then branch-and-bound
/// crash-started from the previous period's basis.
fn ilp(
    tr: &mut Tracer,
    s: &RateOptimalScheduler,
    ddg: &Ddg,
    period: u32,
    budget: &Budget,
    carry: &mut Carry,
) -> Verdict {
    let (m, cfg) = (s.machine(), s.config());
    let opts = FormulationOptions {
        mapping: cfg.mapping,
        objective: cfg.objective,
        symmetry_breaking: cfg.symmetry_breaking,
        packing_bound: cfg.packing_bound,
        max_live: cfg.max_live,
        ..FormulationOptions::standard()
    };
    let (_, bytes_before) = alloc::counted();
    let built = tr.span("core.formulation", |tr| {
        let r = formulation::build_with(ddg, m, period, opts, budget);
        tr.pack(m, ddg, period);
        r
    });
    tr.add(
        "core.formulation_alloc_bytes",
        alloc::counted().1 - bytes_before,
    );
    let f = match built {
        Ok(f) => f,
        Err(ScheduleError::PeriodInfeasible { .. }) => {
            tr.add("core.formulation_rejects", 1);
            return Verdict::Refuted;
        }
        Err(ScheduleError::Cancelled) => return Verdict::Cancelled,
        Err(e) => return Verdict::Error(e),
    };
    tr.add("core.formulation_vars", f.model.num_vars() as u64);
    tr.add("core.formulation_constrs", f.model.num_constrs() as u64);
    let mut limits = SolveLimits {
        time_limit: cfg.time_limit_per_t,
        budget: budget.clone(),
        pivot_layout: PivotLayout::SparseRow,
        stop_at_first_incumbent: true,
        ..SolveLimits::default()
    };
    if let Some(names) = &carry.basis_names {
        let hint = f.model.basis_from_names(names);
        if !hint.is_empty() {
            limits.warm_basis = Some(hint);
        }
    }
    let ticks_before = budget.ticks_used();
    let (allocs_before, bytes_before) = alloc::counted();
    let (solved, basis) = tr.span("milp.solve", |_| f.model.solve_with_basis(&limits));
    let (allocs_after, bytes_after) = alloc::counted();
    tr.add("milp.ticks", budget.ticks_used() - ticks_before);
    tr.add("milp.allocs", allocs_after - allocs_before);
    tr.add("milp.alloc_bytes", bytes_after - bytes_before);
    if let Some(b) = basis.filter(|b| !b.is_empty()) {
        carry.basis_names = Some(f.model.basis_to_names(&b));
    }
    match solved {
        Ok(sol) => {
            let (starts, units) = f.extract(&sol);
            Verdict::Feasible { starts, units }
        }
        Err(SolveError::Infeasible) => Verdict::Refuted,
        Err(SolveError::LimitReached(_)) => {
            tr.add("milp.cap_hits", 1);
            Verdict::Limit
        }
        Err(SolveError::Cancelled) => Verdict::Cancelled,
        Err(SolveError::Numerical(_)) => Verdict::Failed,
        Err(e) => Verdict::Error(ScheduleError::Solver(e)),
    }
}

/// Unit assignment as the scheduler completes it: colored operations keep
/// their color, the rest go first-fit per class.
fn complete_assignment(
    m: &Machine,
    ddg: &Ddg,
    period: u32,
    starts: &[u32],
    colors: &[Option<u32>],
) -> Result<Vec<Option<u32>>, ScheduleError> {
    let mut assignment = colors.to_vec();
    let mut used: std::collections::HashSet<(usize, u32, usize, u32)> = Default::default();
    let cells = |id: swp_ddg::NodeId, class: swp_ddg::OpClass| {
        let rt = &m
            .fu_type(class)
            .map_err(|_| ScheduleError::UnknownClass(class))?
            .reservation;
        Ok::<_, ScheduleError>(
            (0..rt.stages())
                .flat_map(|s| rt.stage_offsets(s).into_iter().map(move |l| (s, l)))
                .map(|(s, l)| (s, (starts[id.index()] + l as u32) % period))
                .collect::<Vec<_>>(),
        )
    };
    for (id, node) in ddg.nodes() {
        if let Some(fu) = assignment[id.index()] {
            for (s, r) in cells(id, node.class)? {
                used.insert((node.class.index(), fu, s, r));
            }
        }
    }
    for (id, node) in ddg.nodes() {
        if assignment[id.index()].is_some() {
            continue;
        }
        let count = m
            .fu_type(node.class)
            .map_err(|_| ScheduleError::UnknownClass(node.class))?
            .count;
        let occupied = cells(id, node.class)?;
        let c = node.class.index();
        let Some(fu) = (0..count).find(|&fu| {
            occupied
                .iter()
                .all(|&(s, r)| !used.contains(&(c, fu, s, r)))
        }) else {
            return Err(ScheduleError::MappingGap { node: id, period });
        };
        for (s, r) in occupied {
            used.insert((c, fu, s, r));
        }
        assignment[id.index()] = Some(fu);
    }
    Ok(assignment)
}
