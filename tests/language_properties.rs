//! Property-based tests of the language substrate: pretty-print/parse
//! round-trips and variation-engine equivalence over the whole template
//! catalogue, plus line-coverage properties of the path reducer.

use datagen::{Behavior, Knobs, Strategy};
use proptest::prelude::*;
use rand::SeedableRng;

fn any_behavior() -> impl proptest::strategy::Strategy<Value = Behavior> {
    proptest::sample::select(Behavior::ALL.to_vec())
}

fn any_strategy() -> impl proptest::strategy::Strategy<Value = Strategy> {
    proptest::sample::select(Strategy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// print ∘ parse is the identity on every rendered template
    /// (structurally, ignoring line numbers which `parse` re-derives).
    #[test]
    fn pretty_parse_roundtrip(behavior in any_behavior(), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let knobs = Knobs::random(&mut rng, 0.3);
        let src = behavior.render(&knobs);
        let p1 = minilang::parse(&src).unwrap();
        let printed = minilang::print_program(&p1);
        let p2 = minilang::parse(&printed).unwrap();
        // Statement ids are assigned identically for identical structure.
        let ids1: Vec<_> = p1.statements().iter().map(|s| (s.id, discriminant_of(&s.kind))).collect();
        let ids2: Vec<_> = p2.statements().iter().map(|s| (s.id, discriminant_of(&s.kind))).collect();
        prop_assert_eq!(ids1, ids2);
        // And printing again is a fixed point.
        prop_assert_eq!(printed.clone(), minilang::print_program(&p2));
    }

    /// Every COSET strategy renders to a compilable program under any knob
    /// draw, and its `solve` runs on generator inputs without interpreter
    /// bugs (errors allowed, panics not).
    #[test]
    fn strategies_execute_or_fail_cleanly(strategy in any_strategy(), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let knobs = Knobs::random(&mut rng, 0.3);
        let program = minilang::parse(&strategy.render(&knobs)).unwrap();
        minilang::typecheck(&program).unwrap();
        let inputs = randgen::random_inputs(&program, &randgen::InputConfig::default(), &mut rng);
        let _ = interp::run(&program, &inputs); // must not panic
    }

    /// The greedy minimum cover always preserves the full line coverage
    /// and never exceeds the group count.
    #[test]
    fn min_cover_preserves_lines(behavior in any_behavior(), seed in 0u64..500) {
        let program = minilang::parse(&behavior.render(&Knobs::plain())).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = randgen::GenConfig {
            target_paths: 5,
            concrete_per_path: 2,
            max_attempts: 120,
            ..randgen::GenConfig::default()
        };
        let (groups, _) = randgen::generate_grouped(&program, &config, &mut rng);
        prop_assume!(!groups.is_empty());
        let cover = randgen::min_line_cover(&program, &groups);
        prop_assert!(!cover.is_empty());
        prop_assert!(cover.len() <= groups.len());
        let full: std::collections::BTreeSet<u32> =
            groups.iter().flat_map(|g| g.symbolic.line_set(&program).unwrap()).collect();
        let covered: std::collections::BTreeSet<u32> =
            cover.iter().flat_map(|&i| groups[i].symbolic.line_set(&program).unwrap()).collect();
        prop_assert_eq!(full, covered);
    }
}

fn discriminant_of(kind: &minilang::StmtKind) -> &'static str {
    match kind {
        minilang::StmtKind::Let { .. } => "let",
        minilang::StmtKind::Assign { .. } => "assign",
        minilang::StmtKind::If { .. } => "if",
        minilang::StmtKind::While { .. } => "while",
        minilang::StmtKind::For { .. } => "for",
        minilang::StmtKind::Return(_) => "return",
        minilang::StmtKind::Break => "break",
        minilang::StmtKind::Continue => "continue",
    }
}

/// The §3 motivating pair, end to end: `i += i` and `i *= 2` have
/// different symbolic trees but identical state traces — the exact signal
/// the fusion layer exploits.
#[test]
fn blended_view_of_the_motivating_pair() {
    let pa = minilang::parse("fn f(i: int) -> int { i += i; return i; }").unwrap();
    let pb = minilang::parse("fn f(i: int) -> int { i *= 2; return i; }").unwrap();
    for x in [-7i64, 0, 3, 21] {
        let ia = vec![interp::Value::Int(x)];
        let ra = interp::run(&pa, &ia).unwrap();
        let rb = interp::run(&pb, &ia).unwrap();
        let ta = trace::ExecutionTrace::from_run(ia.clone(), ra);
        let tb = trace::ExecutionTrace::from_run(ia, rb);
        // Dynamic views agree…
        assert_eq!(ta.states(), tb.states());
        // …while symbolic views differ.
        assert_ne!(
            ta.symbolic().stmt_trees(&pa).unwrap(),
            tb.symbolic().stmt_trees(&pb).unwrap()
        );
    }
}

/// MiniLang's nesting budget admits the whole template catalogue — all
/// 53 behaviours and strategies, plain and with distractors prepended.
#[test]
fn every_template_parses_inside_the_nesting_budget() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    let knobs = Knobs::plain();
    let sources: Vec<String> = Behavior::ALL
        .iter()
        .map(|b| b.render(&knobs))
        .chain(Strategy::ALL.iter().map(|s| s.render(&knobs)))
        .collect();
    assert_eq!(sources.len(), 53);
    for src in &sources {
        let distracted = datagen::with_distractors(src, 2, &mut rng);
        for src in [src, &distracted] {
            minilang::parse(src).unwrap_or_else(|e| panic!("{e}:\n{src}"));
        }
    }
}
