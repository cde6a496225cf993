//! Cache correctness: a cache hit must be indistinguishable from a cold
//! solve, stale fingerprints must miss, and a damaged artifact must
//! degrade to warnings, never to a panic or a wrong record.

use std::path::{Path, PathBuf};
use std::time::Duration;
use swp_harness::{
    Harness, HarnessConfig, LoopRecord, NullSink, RunReport, SuiteRunConfig, VecSink,
};
use swp_loops::suite::{generate, GeneratedLoop, SuiteConfig};
use swp_machine::Machine;

fn corpus(n: usize) -> Vec<GeneratedLoop> {
    generate(&SuiteConfig {
        num_loops: n,
        ..SuiteConfig::pldi95_default()
    })
}

fn solve_cfg() -> SuiteRunConfig {
    SuiteRunConfig {
        num_loops: 32,
        time_limit_per_t: None,
        per_loop_ticks: Some(50_000),
        max_t_above_lb: 8,
        heuristic_incumbent: true,
        engine: Default::default(),
        warm: true,
        max_live: None,
    }
}

fn harness(solve: SuiteRunConfig, config: HarnessConfig) -> Harness {
    Harness::new(Machine::example_pldi95(), solve, config)
}

/// A scratch artifact path unique to this test process.
fn artifact(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swp-harness-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

fn run_to_artifact(
    loops: &[GeneratedLoop],
    solve: SuiteRunConfig,
    path: &Path,
    resume: bool,
) -> RunReport {
    harness(
        solve,
        HarnessConfig {
            artifact: Some(path.to_path_buf()),
            resume,
            record_timing: false,
            ..HarnessConfig::default()
        },
    )
    .run(loops, &mut NullSink)
    .expect("run")
}

#[test]
fn a_cache_hit_reproduces_the_cold_outcome() {
    let loops = corpus(12);
    let path = artifact("hit.jsonl");
    let cold = run_to_artifact(&loops, solve_cfg(), &path, false);
    assert_eq!(cold.fresh_solves, 12);
    assert_eq!(cold.cache_hits, 0);

    let warm = run_to_artifact(&loops, solve_cfg(), &path, true);
    assert_eq!(warm.cache_hits, 12);
    assert_eq!(warm.fresh_solves, 0);

    // Same outcomes, serialized byte for byte (cached is runtime-only).
    let lines = |r: &RunReport| {
        r.records
            .iter()
            .map(LoopRecord::to_json_line)
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&cold), lines(&warm));
    assert!(warm.records.iter().all(|r| r.cached));
    assert!(cold.records.iter().all(|r| !r.cached));
}

#[test]
fn a_changed_machine_invalidates_the_cache() {
    let loops = corpus(6);
    let path = artifact("machine.jsonl");
    run_to_artifact(&loops, solve_cfg(), &path, false);

    // Same loops, same config, different machine: every lookup must miss.
    let report = Harness::new(
        Machine::ppc604(),
        solve_cfg(),
        HarnessConfig {
            artifact: Some(path.clone()),
            resume: true,
            record_timing: false,
            ..HarnessConfig::default()
        },
    )
    .run(&loops, &mut NullSink)
    .expect("run");
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.fresh_solves, 6);
}

#[test]
fn a_changed_config_invalidates_the_cache() {
    let loops = corpus(6);
    let path = artifact("config.jsonl");
    run_to_artifact(&loops, solve_cfg(), &path, false);

    let tighter = SuiteRunConfig {
        max_t_above_lb: 2,
        ..solve_cfg()
    };
    let report = run_to_artifact(&loops, tighter, &path, true);
    assert_eq!(
        report.cache_hits, 0,
        "different config fingerprint must miss"
    );
    assert_eq!(report.fresh_solves, 6);
}

#[test]
fn corrupted_artifact_lines_are_skipped_not_fatal() {
    let loops = corpus(8);
    let path = artifact("corrupt.jsonl");
    run_to_artifact(&loops, solve_cfg(), &path, false);

    // Damage the artifact: garbage line, truncated line, empty line.
    let text = std::fs::read_to_string(&path).expect("artifact");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 8);
    let half = lines[5].len() / 2;
    lines[5].truncate(half); // simulates a kill mid-write
    lines.insert(2, "{not even json".to_string());
    lines.insert(0, String::new());
    std::fs::write(&path, lines.join("\n")).expect("rewrite");

    let report = run_to_artifact(&loops, solve_cfg(), &path, true);
    // 7 intact records serve as hits; the truncated one re-solves.
    assert_eq!(report.cache_hits, 7);
    assert_eq!(report.fresh_solves, 1);
    assert_eq!(
        report.skipped_lines, 2,
        "garbage + truncated, not the empty line"
    );
    assert_eq!(report.records.len(), 8);
}

#[test]
fn resume_completes_a_partial_run_without_resolving() {
    // The satellite scenario end-to-end: solve the first 16, then run the
    // full 32 with --resume; the first half must come from the cache (the
    // corpus generator is prefix-stable, which this test also pins).
    let all = corpus(32);
    let first_half = &all[..16];
    let path = artifact("resume.jsonl");
    let partial = run_to_artifact(first_half, solve_cfg(), &path, false);
    assert_eq!(partial.fresh_solves, 16);

    let full = run_to_artifact(&all, solve_cfg(), &path, true);
    assert_eq!(full.cache_hits, 16);
    assert_eq!(full.fresh_solves, 16);
    assert_eq!(full.records.len(), 32);
    for (i, r) in full.records.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.cached, i < 16);
    }

    // The artifact now covers the whole corpus: a third run is all hits.
    let third = run_to_artifact(&all, solve_cfg(), &path, true);
    assert_eq!(third.cache_hits, 32);
    assert_eq!(third.fresh_solves, 0);
}

#[test]
fn without_resume_the_artifact_is_truncated_and_cold() {
    let loops = corpus(5);
    let path = artifact("truncate.jsonl");
    run_to_artifact(&loops, solve_cfg(), &path, false);
    let report = run_to_artifact(&loops, solve_cfg(), &path, false);
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.fresh_solves, 5);
    let text = std::fs::read_to_string(&path).expect("artifact");
    assert_eq!(text.lines().count(), 5, "create mode must truncate");
}

#[test]
fn sinks_see_cached_records_flagged() {
    let loops = corpus(4);
    let path = artifact("sinkflag.jsonl");
    run_to_artifact(&loops, solve_cfg(), &path, false);

    let mut sink = VecSink::default();
    harness(
        solve_cfg(),
        HarnessConfig {
            artifact: Some(path.clone()),
            resume: true,
            record_timing: false,
            ..HarnessConfig::default()
        },
    )
    .run(&loops, &mut sink)
    .expect("run");
    assert_eq!(sink.records.len(), 4);
    assert!(sink.records.iter().all(|r| r.cached));
    assert!(sink.records.iter().all(|r| r.solve_time == Duration::ZERO));
}
