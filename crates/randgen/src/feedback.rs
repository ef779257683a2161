//! Feedback-directed trace generation.
//!
//! Randoop's core idea — use the outcome of previous executions to decide
//! what to keep — is reproduced here at the granularity the paper needs:
//! keep an execution when it discovers a new program path, or when its path
//! still has fewer than the per-path quota of concrete traces. Generation
//! stops once the path and concrete-trace targets are met (≈20 symbolic
//! traces × 5 concrete executions in §6.1) or the attempt budget runs out.
//!
//! Generation is path-first. Most attempts are dropped (on the benchmark
//! fixture about 2% are kept), and the keep decision needs only the
//! outcome and the path, so every attempt runs in the interpreter's
//! path-only mode ([`Interpreter::run_path`]: no state snapshots, no
//! coverage). Only a kept input is run again with full tracing. The
//! interpreter is deterministic and the two modes share fuel, errors and
//! path steps, so the traced re-run succeeds on the same path (asserted);
//! the RNG draws, keep decisions, [`GenStats`] and groups are exactly
//! those of tracing every attempt.

use crate::inputs::{check_inputs, random_inputs, InputConfig};
use interp::{Interpreter, PathStep, TraceEvent};
use minilang::Program;
use rand::Rng;
use std::collections::HashMap;
use trace::{group_by_path, ExecutionTrace, PathGroup};

/// Configuration of the feedback-directed generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Target number of distinct program paths (the paper's U ≈ 20).
    pub target_paths: usize,
    /// Concrete executions kept per path (the paper's Nε = 5).
    pub concrete_per_path: usize,
    /// Maximum number of random executions attempted.
    pub max_attempts: usize,
    /// Fuel per execution.
    pub fuel: u64,
    /// Input value bounds.
    pub inputs: InputConfig,
    /// Reject programs with fatal static diagnostics (provable crash or
    /// divergence) before attempting any execution. The screen only fires
    /// on programs that could never contribute a trace, so it changes
    /// which programs are *attempted*, never which traces are produced.
    pub static_screen: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            target_paths: 20,
            concrete_per_path: 5,
            max_attempts: 2000,
            fuel: 20_000,
            inputs: InputConfig::default(),
            static_screen: true,
        }
    }
}

/// Statistics of one generation session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenStats {
    /// Executions attempted.
    pub attempts: usize,
    /// Executions that ended in a runtime error (discarded).
    pub failures: usize,
    /// Executions kept.
    pub kept: usize,
    /// Distinct paths discovered.
    pub paths: usize,
    /// True when the static screen rejected the program without running
    /// anything.
    pub screened: bool,
}

/// Generates traces for `program` with coverage feedback; returns them
/// grouped by path (first-discovered path first) plus session statistics.
///
/// Programs for which *no* input produces a successful execution yield an
/// empty group list — the dataset filter treats that like the paper's
/// "Randoop does not have access / takes too long" categories.
pub fn generate_grouped<R: Rng + ?Sized>(
    program: &Program,
    config: &GenConfig,
    rng: &mut R,
) -> (Vec<PathGroup>, GenStats) {
    let _span = obs::span!("randgen.generate");
    obs::counter!("randgen.programs").inc();
    let mut stats = GenStats::default();
    if config.static_screen && analysis::lint::run(program).has_fatal() {
        // Provably crashes or diverges on every input: no execution could
        // ever be kept, so skip the attempt loop entirely.
        stats.screened = true;
        obs::counter!("randgen.screened").inc();
        return (Vec::new(), stats);
    }
    let interp = Interpreter::new(program);
    let mut path: Vec<PathStep> = Vec::new();
    let mut kept: Vec<ExecutionTrace> = Vec::new();
    let mut per_path: HashMap<Vec<PathStep>, usize> = HashMap::new();

    while stats.attempts < config.max_attempts {
        stats.attempts += 1;
        let inputs = random_inputs(program, &config.inputs, rng);
        if check_inputs(program, &inputs).is_err() {
            // A type-confused vector can never produce a trace; skip it
            // instead of letting the interpreter abort the session.
            stats.failures += 1;
            continue;
        }
        // Decide on the path alone; only kept inputs pay for states.
        if interp.run_path(&inputs, config.fuel, &mut path).is_err() {
            stats.failures += 1;
            continue;
        }
        let count = per_path.get(path.as_slice()).copied().unwrap_or(0);
        if count == 0 && per_path.len() >= config.target_paths {
            continue; // Path quota full; drop this discovery.
        }
        if count >= config.concrete_per_path {
            continue; // Path already has its concrete quota.
        }
        per_path.insert(path.clone(), count + 1);
        let run = interp
            .run(&inputs, config.fuel)
            .expect("a traced run succeeds where its path-only run did");
        assert!(
            run.events.iter().map(TraceEvent::path_step).eq(path.iter().copied()),
            "a traced run follows its path-only run's path"
        );
        kept.push(ExecutionTrace::from_run(inputs, run));
        stats.kept += 1;

        let full_paths =
            per_path.values().filter(|&&c| c >= config.concrete_per_path).count();
        if per_path.len() >= config.target_paths && full_paths >= config.target_paths {
            break;
        }
    }

    let groups = group_by_path(kept);
    stats.paths = groups.len();
    obs::counter!("randgen.attempts").add(stats.attempts as u64);
    obs::counter!("randgen.kept").add(stats.kept as u64);
    (groups, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SIGN: &str = "fn signOf(x: int) -> int {
        if (x > 0) { return 1; }
        if (x < 0) { return 0 - 1; }
        return 0;
    }";

    #[test]
    fn discovers_all_three_paths() {
        let p = minilang::parse(SIGN).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (groups, stats) = generate_grouped(&p, &GenConfig::default(), &mut rng);
        assert_eq!(groups.len(), 3);
        assert!(stats.kept >= 3);
        assert!(stats.attempts >= stats.kept);
    }

    #[test]
    fn respects_concrete_quota() {
        let p = minilang::parse(SIGN).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let config = GenConfig { concrete_per_path: 2, ..GenConfig::default() };
        let (groups, _) = generate_grouped(&p, &config, &mut rng);
        assert!(groups.iter().all(|g| g.traces.len() <= 2));
    }

    #[test]
    fn crashing_program_yields_no_groups() {
        // Every execution divides by zero, but `x - x` is opaque to the
        // static screen, so the generator finds out the hard way.
        let p = minilang::parse("fn f(x: int) -> int { return 1 / (x - x); }").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let config = GenConfig { max_attempts: 50, ..GenConfig::default() };
        let (groups, stats) = generate_grouped(&p, &config, &mut rng);
        assert!(groups.is_empty());
        assert!(!stats.screened);
        assert_eq!(stats.failures, 50);
    }

    #[test]
    fn statically_fatal_program_is_screened_without_running() {
        let p = minilang::parse("fn f(x: int) -> int { return x / 0; }").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (groups, stats) = generate_grouped(&p, &GenConfig::default(), &mut rng);
        assert!(groups.is_empty());
        assert!(stats.screened);
        assert_eq!(stats.attempts, 0, "screen must fire before any execution");
        // Opting out restores the old behaviour.
        let config = GenConfig { static_screen: false, max_attempts: 10, ..GenConfig::default() };
        let (_, stats2) = generate_grouped(&p, &config, &mut rng);
        assert!(!stats2.screened);
        assert_eq!(stats2.failures, 10);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = minilang::parse(SIGN).unwrap();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (groups, _) = generate_grouped(&p, &GenConfig::default(), &mut rng);
            groups.iter().map(|g| g.traces.len()).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }
}
