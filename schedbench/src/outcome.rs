//! What each problem decided, the benchmark's own re-check of every
//! returned schedule, and the decision digest.

use swp_core::{ScheduleError, ScheduleResult};
use swp_ddg::Ddg;
use swp_machine::{simulate, Machine, UnitPolicy};

/// How a problem ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A schedule that passed the re-check.
    Scheduled,
    /// `NotFound` on a case that carries no schedulability guarantee.
    Unschedulable,
    /// Any other error, a panic, or a schedule the re-check rejected.
    Failed,
}

/// One problem's decision, as the digest and the metrics see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub class: Class,
    /// Achieved period, when scheduled.
    pub period: Option<u32>,
    /// The paper's bound `max(T_dep, counting T_res)`, when scheduled.
    pub paper_t_lb: Option<u32>,
    /// Whether the period is proven optimal.
    pub proven: bool,
    /// Why the problem failed, for the report.
    pub why: Option<String>,
}

impl Outcome {
    /// A failed problem.
    pub fn failed(why: String) -> Outcome {
        Outcome {
            class: Class::Failed,
            period: None,
            paper_t_lb: None,
            proven: false,
            why: Some(why),
        }
    }

    /// The part the digest covers: `(period, proven, outcome class)`.
    pub fn decision(&self) -> (Option<u32>, bool, Class) {
        (self.period, self.proven, self.class)
    }
}

/// The problem a result answers, for the re-check.
pub struct Problem<'a> {
    pub ddg: &'a Ddg,
    pub machine: &'a Machine,
    pub max_live: Option<u32>,
    pub guaranteed: bool,
}

/// Classifies `result`, re-checking any schedule independently of the
/// scheduler's own verification: the dependence and collision checker,
/// the pressure cap when one is set, a cycle-accurate simulation, and
/// `T ≥ T_lb` against bounds recomputed here.
pub fn classify(result: &Result<ScheduleResult, ScheduleError>, p: &Problem<'_>) -> Outcome {
    match result {
        Ok(res) => match recheck(res, p) {
            Ok(paper_t_lb) => Outcome {
                class: Class::Scheduled,
                period: Some(res.schedule.initiation_interval()),
                paper_t_lb: Some(paper_t_lb),
                proven: res.optimality.is_proven(),
                why: None,
            },
            Err(why) => Outcome::failed(format!("re-check rejected the schedule: {why}")),
        },
        Err(ScheduleError::NotFound { .. }) if !p.guaranteed => Outcome {
            class: Class::Unschedulable,
            period: None,
            paper_t_lb: None,
            proven: false,
            why: None,
        },
        Err(e) => Outcome::failed(e.to_string()),
    }
}

/// Re-checks `res`; on success returns the paper's `T_lb`, which uses
/// the counting resource bound that Table 4's buckets are measured
/// against rather than the packing-refined one.
fn recheck(res: &ScheduleResult, p: &Problem<'_>) -> Result<u32, String> {
    let s = &res.schedule;
    s.validate(p.ddg, p.machine)
        .map_err(|e| format!("checker: {e}"))?;
    if let Some(limit) = p.max_live {
        s.validate_pressure(p.ddg, limit)
            .map_err(|e| format!("pressure: {e}"))?;
    }
    let period = s.initiation_interval();
    // Enough iterations that every stage of the first iteration overlaps
    // later ones in the simulated steady state.
    let stages = s.start_times().iter().max().copied().unwrap_or(0) / period.max(1);
    simulate(p.machine, p.ddg, s, stages + 3, UnitPolicy::Fixed)
        .map_err(|e| format!("simulator: {e:?}"))?;
    let t_dep = p
        .ddg
        .t_dep()
        .ok_or("no finite T_dep for a scheduled loop")?;
    let t_res = p.machine.t_res(p.ddg).map_err(|e| format!("T_res: {e}"))?;
    let t_lb = t_dep.max(t_res);
    if res.t_lb() != t_lb {
        return Err(format!(
            "reported T_lb {} but bounds give {t_lb}",
            res.t_lb()
        ));
    }
    if period < t_lb {
        return Err(format!("period {period} below T_lb {t_lb}"));
    }
    let counting = p
        .machine
        .t_res_counting(p.ddg)
        .map_err(|e| format!("T_res: {e}"))?;
    Ok(t_dep.max(counting))
}

/// FNV-1a over every problem's `(period, proven, outcome class)`, in
/// problem order.
pub fn digest<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        let (period, proven, class) = o.decision();
        eat(&period.map_or(u32::MAX, |p| p).to_le_bytes());
        eat(&[u8::from(proven), class as u8]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_core::{Budget, RateOptimalScheduler, SchedulerConfig};
    use swp_ddg::OpClass;

    fn fp_loop() -> Ddg {
        let mut g = Ddg::new();
        let ld = g.add_node("load", OpClass::new(2), 3);
        let m = g.add_node("fmul", OpClass::new(1), 2);
        g.add_edge(ld, m, 0).unwrap();
        g.add_edge(m, m, 1).unwrap();
        g
    }

    fn not_found() -> Result<ScheduleResult, ScheduleError> {
        Err(ScheduleError::NotFound {
            t_lb: 3,
            t_max: 19,
            attempts: Vec::new(),
        })
    }

    #[test]
    fn not_found_without_guarantee_is_unschedulable_not_failed() {
        let (ddg, machine) = (fp_loop(), Machine::example_pldi95());
        let mut p = Problem {
            ddg: &ddg,
            machine: &machine,
            max_live: None,
            guaranteed: false,
        };
        assert_eq!(classify(&not_found(), &p).class, Class::Unschedulable);
        p.guaranteed = true;
        assert_eq!(classify(&not_found(), &p).class, Class::Failed);
        let other = Err(ScheduleError::NoFinitePeriod);
        p.guaranteed = false;
        assert_eq!(classify(&other, &p).class, Class::Failed);
    }

    #[test]
    fn recheck_accepts_the_scheduler_and_rejects_a_broken_schedule() {
        let (ddg, machine) = (fp_loop(), Machine::example_pldi95());
        let p = Problem {
            ddg: &ddg,
            machine: &machine,
            max_live: None,
            guaranteed: true,
        };
        let solved = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule_with(&ddg, &Budget::with_tick_limit(20_000));
        assert_eq!(classify(&solved, &p).class, Class::Scheduled);

        // Same period and units, but the consumer issues before its
        // producer's latency has elapsed.
        let mut res = solved.unwrap();
        let s = &res.schedule;
        res.schedule = swp_core::PipelinedSchedule::new(
            s.initiation_interval(),
            vec![0, 0],
            s.assignment().to_vec(),
        );
        let rejected = classify(&Ok(res), &p);
        assert_eq!(rejected.class, Class::Failed);
        assert!(rejected.why.unwrap().contains("re-check"));
    }

    #[test]
    fn digest_depends_on_every_decision_field() {
        let scheduled = |period, proven| Outcome {
            class: Class::Scheduled,
            period: Some(period),
            paper_t_lb: Some(period),
            proven,
            why: None,
        };
        let base = vec![scheduled(3, true), scheduled(4, true)];
        assert_eq!(digest(&base), digest(&base.clone()));
        assert_ne!(
            digest(&base),
            digest(&[scheduled(3, true), scheduled(5, true)])
        );
        assert_ne!(
            digest(&base),
            digest(&[scheduled(3, true), scheduled(4, false)])
        );
        assert_ne!(digest(&base), digest(&[base[1].clone(), base[0].clone()]));
        let failed = Outcome {
            period: Some(4),
            proven: true,
            ..Outcome::failed(String::new())
        };
        assert_ne!(digest(&base), digest(&[scheduled(3, true), failed]));
        // The reason text is not a decision.
        let mut why = base.clone();
        why[0].why = Some("note".into());
        assert_eq!(digest(&base), digest(&why));
    }
}
