//! The closed measuring loop: one caller on one thread solving one
//! problem after another, pass after pass over a workload's inputs.

use crate::outcome::{classify, Class, Outcome, Problem};
use crate::workload::Input;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use swp_core::{PipelinedSchedule, RateOptimalScheduler, ScheduleError, ScheduleResult, WarmState};
use swp_ddg::Ddg;
use swp_incr::{EditOp, SolveSession};
use swp_milp::Budget;

/// How one problem is solved. The untraced run calls the public entry
/// points directly; the traced run walks the same sweep with spans.
pub trait Solver {
    /// Solves one loop under a fresh per-problem tick cap.
    fn solve(
        &mut self,
        id: usize,
        scheduler: &RateOptimalScheduler,
        ddg: &Ddg,
        ticks: u64,
    ) -> Result<ScheduleResult, ScheduleError>;

    /// Applies one edit (if any) to `session` and solves it.
    fn step(
        &mut self,
        id: usize,
        session: &mut SolveSession,
        edit: Option<&EditOp>,
        ticks: u64,
    ) -> Result<ScheduleResult, ScheduleError>;

    /// Wall time spent inside the last call on the solver's own
    /// measurement rather than on the program, to be left out.
    fn take_excluded(&mut self) -> Duration {
        Duration::ZERO
    }
}

/// The untraced solver: exactly the calls a user makes.
pub struct Plain;

impl Solver for Plain {
    fn solve(
        &mut self,
        _: usize,
        scheduler: &RateOptimalScheduler,
        ddg: &Ddg,
        ticks: u64,
    ) -> Result<ScheduleResult, ScheduleError> {
        scheduler.schedule_with_warm(ddg, &Budget::with_tick_limit(ticks), &mut WarmState::new())
    }

    fn step(
        &mut self,
        _: usize,
        session: &mut SolveSession,
        edit: Option<&EditOp>,
        ticks: u64,
    ) -> Result<ScheduleResult, ScheduleError> {
        if let Some(op) = edit {
            session.apply(op).expect("script edits are valid");
        }
        session.solve_with(&Budget::with_tick_limit(ticks))
    }
}

/// When a run stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Finish the first pass, then stop once this much time has passed.
    AfterPassAnd(Duration),
    /// Stop once this much time has passed (at least one problem).
    After(Duration),
    /// Stop after exactly this many problems.
    Count(usize),
}

/// What a run measured. Times leave out the re-check and the solver's
/// excluded time.
#[derive(Debug, Default)]
pub struct Run {
    /// Per problem, its fastest solve (ns) over all passes.
    pub fastest: Vec<u64>,
    /// Per problem, its name.
    pub names: Vec<String>,
    /// Outcomes of the first pass, in problem order (partial if the run
    /// stopped inside it).
    pub first: Vec<Outcome>,
    /// Decisions of every problem solved, in order, when requested.
    pub sequence: Vec<(Option<u32>, bool, Class)>,
    /// Problems solved.
    pub solved: usize,
    /// Passes started.
    pub passes: usize,
    /// Wall time of the fastest complete pass.
    pub fastest_pass: Option<Duration>,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// Total timed solve latency.
    pub busy: Duration,
    /// Later-pass results that differ from the first pass.
    pub nondeterministic: Vec<String>,
}

/// Solves `input` pass after pass with `solver` until `stop`.
///
/// Every schedule the first pass returns is re-checked (see
/// [`classify`]). A later pass that returns the identical schedule for
/// the same problem inherits that check; any other later schedule is
/// re-checked afresh and reported as nondeterministic.
pub fn run(input: &Input, solver: &mut dyn Solver, stop: Stop, keep_sequence: bool) -> Run {
    let n = input.num_problems();
    assert!(n > 0, "a workload has at least one problem");
    let mut r = Runner {
        solver,
        out: Run {
            fastest: vec![u64::MAX; n],
            ..Run::default()
        },
        first_schedules: Vec::with_capacity(n),
        started: Instant::now(),
        unmeasured: Duration::ZERO,
        stop,
        keep_sequence,
        pass: 0,
    };
    // The run starts from a cold automaton memo, so the first pass pays
    // every build and later passes reuse them, as one compiler process
    // would.
    drop(swp_automata::stats::reset_for_test());
    'passes: loop {
        r.pass = r.out.passes;
        r.out.passes += 1;
        let pass_start = r.measured();
        match input {
            Input::Solve {
                schedulers,
                cases,
                ticks,
            } => {
                for (id, case) in cases.iter().enumerate() {
                    if r.done() {
                        break 'passes;
                    }
                    let scheduler = &schedulers[case.scheduler];
                    let t = Instant::now();
                    let result = guarded(|| r.solver.solve(id, scheduler, &case.ddg, *ticks));
                    let ns = t.elapsed();
                    r.record(id, &case.name, ns, result, |res| {
                        classify(
                            res,
                            &Problem {
                                ddg: &case.ddg,
                                machine: scheduler.machine(),
                                max_live: scheduler.config().max_live,
                                guaranteed: case.guaranteed,
                            },
                        )
                    });
                }
            }
            Input::Sessions {
                machine,
                config,
                loops,
                ticks,
            } => {
                let mut id = 0;
                for l in loops {
                    let mut session =
                        SolveSession::from_ddg(machine.clone(), config.clone(), &l.ddg);
                    let mut broken = false;
                    for (step, edit) in l.steps.iter().enumerate() {
                        if r.done() {
                            break 'passes;
                        }
                        let name = format!("{} step {step}", l.name);
                        let (ns, result) = if broken {
                            let why = "an earlier step of this session panicked".to_string();
                            (Duration::ZERO, Err(why))
                        } else {
                            let t = Instant::now();
                            let result =
                                guarded(|| r.solver.step(id, &mut session, edit.as_ref(), *ticks));
                            (t.elapsed(), result)
                        };
                        broken |= r.record(id, &name, ns, result, |res| {
                            classify(
                                res,
                                &Problem {
                                    ddg: session.ddg(),
                                    machine,
                                    max_live: config.max_live,
                                    guaranteed: false,
                                },
                            )
                        });
                        id += 1;
                    }
                }
            }
        }
        let pass_wall = r.measured() - pass_start;
        r.out.fastest_pass = Some(r.out.fastest_pass.map_or(pass_wall, |f| f.min(pass_wall)));
    }
    r.out.wall = r.measured();
    r.out
}

struct Runner<'a> {
    solver: &'a mut dyn Solver,
    out: Run,
    /// The first pass's schedule per problem, for later passes to match.
    first_schedules: Vec<Option<PipelinedSchedule>>,
    started: Instant,
    /// Time spent re-checking and excluded by the solver.
    unmeasured: Duration,
    stop: Stop,
    keep_sequence: bool,
    pass: usize,
}

impl Runner<'_> {
    fn measured(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.unmeasured)
    }

    fn done(&self) -> bool {
        match self.stop {
            Stop::AfterPassAnd(d) => self.out.passes > 1 && self.measured() >= d,
            Stop::After(d) => self.out.solved > 0 && self.measured() >= d,
            Stop::Count(c) => self.out.solved >= c,
        }
    }

    /// Records one timed call that took `ns`, settling its outcome with
    /// `check` outside the timed region. Returns whether it panicked.
    fn record(
        &mut self,
        id: usize,
        name: &str,
        ns: Duration,
        result: Result<Result<ScheduleResult, ScheduleError>, String>,
        check: impl FnOnce(&Result<ScheduleResult, ScheduleError>) -> Outcome,
    ) -> bool {
        let excluded = self.solver.take_excluded();
        let checking = Instant::now();
        let schedule = match &result {
            Ok(Ok(res)) => Some(&res.schedule),
            _ => None,
        };
        let pass = self.pass;
        let outcome =
            if pass > 0 && schedule.is_some() && schedule == self.first_schedules[id].as_ref() {
                self.out.first[id].clone()
            } else {
                let mut outcome = match &result {
                    Ok(res) => check(res),
                    Err(why) => Outcome::failed(format!("panicked: {why}")),
                };
                outcome.why = outcome.why.map(|why| format!("{name}: {why}"));
                if pass > 0
                    && (schedule.is_some() || outcome.decision() != self.out.first[id].decision())
                {
                    self.out.nondeterministic.push(format!(
                        "{name}: pass {pass} returned {:?} and a different schedule; pass 0 {:?}",
                        outcome.decision(),
                        self.out.first[id].decision()
                    ));
                }
                outcome
            };
        if pass == 0 {
            self.first_schedules.push(schedule.cloned());
            self.out.names.push(name.to_string());
        }
        self.unmeasured += checking.elapsed() + excluded;
        let ns = ns.saturating_sub(excluded);
        self.out.solved += 1;
        self.out.busy += ns;
        self.out.fastest[id] = self.out.fastest[id].min(ns.as_nanos() as u64);
        if self.keep_sequence {
            self.out.sequence.push(outcome.decision());
        }
        if pass == 0 {
            self.out.first.push(outcome);
        }
        result.is_err()
    }
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Workload};

    struct Panicking;

    impl Solver for Panicking {
        fn solve(
            &mut self,
            _: usize,
            _: &RateOptimalScheduler,
            _: &Ddg,
            _: u64,
        ) -> Result<ScheduleResult, ScheduleError> {
            panic!("solver blew up")
        }

        fn step(
            &mut self,
            _: usize,
            _: &mut SolveSession,
            _: Option<&EditOp>,
            _: u64,
        ) -> Result<ScheduleResult, ScheduleError> {
            panic!("session blew up")
        }
    }

    #[test]
    fn a_panic_is_a_failure_and_ends_its_session() {
        let input = build(Workload::Table4, 1).unwrap();
        let r = run(&input, &mut Panicking, Stop::Count(3), false);
        assert_eq!(r.first.len(), 3);
        for o in &r.first {
            assert_eq!(o.class, Class::Failed);
            assert!(o
                .why
                .as_deref()
                .unwrap()
                .contains("panicked: solver blew up"));
        }

        let input = build(Workload::Sessions, 1).unwrap();
        let r = run(&input, &mut Panicking, Stop::Count(5), false);
        assert!(r.first.iter().all(|o| o.class == Class::Failed));
        assert!(r.first[1].why.as_deref().unwrap().contains("earlier step"));
    }

    #[test]
    fn later_passes_must_repeat_the_first() {
        let input = build(Workload::Table4, 2).unwrap();
        let n = input.num_problems();
        let r = run(&input, &mut Plain, Stop::Count(2 * n + 5), true);
        assert_eq!(r.passes, 3);
        assert_eq!(r.first.len(), n);
        assert!(r.nondeterministic.is_empty(), "{:?}", r.nondeterministic);
        assert_eq!(r.sequence[..n], r.sequence[n..2 * n]);
        assert!(r.fastest.iter().all(|&ns| ns > 0 && ns < u64::MAX));
    }
}
