//! Self-tests: the reference agrees with the library's brute-force oracles, a
//! wrong answer is caught, and a tiny run of every workload finishes.
//!
//! Run them with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::inputs::{Repr, Rng, Shape, TreeCase};
use crate::problems::{self, Answer, Problem};
use crate::reference::{self, HostTree};
use crate::report::{END_TO_END, PER_LAYER};
use crate::{run_workload, Size, WORKLOADS};
use mpc_tree_dp::problems::brute;
use mpc_tree_dp::repr::Tree;

fn random_tree(n: usize, rng: &mut Rng) -> Tree {
    Tree::from_parents((0..n).map(|v| (v > 0).then(|| rng.index(v))).collect())
}

fn host(tree: &Tree) -> HostTree {
    HostTree::from_parents((0..tree.len()).map(|v| tree.parent(v)).collect())
}

#[test]
fn reference_agrees_with_brute_force_on_small_random_trees() {
    let mut rng = Rng::new(7, &[]);
    for trial in 0..300 {
        let n = 1 + trial % 20;
        let tree = random_tree(n, &mut rng);
        let t = host(&tree);
        let w = rng.weights(n);
        assert_eq!(
            reference::max_is(&t, &w),
            brute::max_weight_independent_set(&tree, &w)
        );
        assert_eq!(
            reference::min_vc(&t, &w),
            brute::min_weight_vertex_cover(&tree, &w)
        );
        assert_eq!(
            reference::min_ds(&t, &w),
            brute::min_weight_dominating_set(&tree, &w)
        );
        assert_eq!(
            reference::max_matching(&t, &w),
            brute::max_weight_matching(&tree, &w)
        );
    }
}

#[test]
fn library_answers_pass_the_checks_on_both_representations() {
    for shape in Shape::ALL {
        for repr in [Repr::Edges, Repr::Parens] {
            // At 64 nodes, as at the benchmark's sizes, no caterpillar node
            // exceeds the degree threshold.
            let case = TreeCase::new(shape, repr, 64, 3);
            let weights = Rng::new(1, &[shape as u64]).weights(64);
            for &problem in problems::checked_on(shape) {
                let mut ctx = mpc_tree_dp::MpcContext::new(crate::mpc_config(64));
                let prepared = mpc_tree_dp::prepare(&mut ctx, case.input.clone(), None).unwrap();
                let answer = problems::solve(
                    &mut ctx,
                    &prepared,
                    problems::Entry::Fresh,
                    problem,
                    &case,
                    &weights,
                    &mut crate::trace::Tracer::new(),
                );
                problems::check(problem, &answer, &case.host, &weights)
                    .unwrap_or_else(|e| panic!("{}: {e}", case.label));
            }
        }
    }
}

#[test]
fn a_corrupted_answer_is_caught_and_counted_as_failed() {
    let case = TreeCase::new(Shape::RandomRecursive, Repr::Edges, 30, 5);
    let weights = Rng::new(2, &[]).weights(30);
    let optimum = reference::max_is(&case.host, &weights);
    let mut chosen = vec![false; 30];
    let mut run = crate::report::Run::new();

    // Wrong optimum.
    let wrong = Answer {
        optimum: optimum + 1,
        chosen: None,
        call_ms: 0.0,
    };
    run.checked(problems::check(
        Problem::MaxIs,
        &wrong,
        &case.host,
        &weights,
    ));

    // Right optimum, but labels that are not an independent set.
    chosen[0] = true;
    chosen[case.host.len() - 1] = true;
    let v = case.host.len() - 1;
    chosen[case.host.parent(v).unwrap()] = true;
    let bad_labels = Answer {
        optimum,
        chosen: Some(chosen),
        call_ms: 0.0,
    };
    run.checked(problems::check(
        Problem::MaxIs,
        &bad_labels,
        &case.host,
        &weights,
    ));

    assert_eq!((run.attempted, run.failed), (2, 2));
    assert!(run.json(false).contains("\"failed\": 2"));
}

#[test]
fn a_tiny_run_of_every_workload_finishes_with_only_the_known_failure() {
    for name in WORKLOADS {
        for trace in [false, true] {
            let (run, _) = run_workload(name, 11, 0.05, trace, Size::Tiny);
            assert!(run.setup_ok, "{name}: a set-up answer was wrong");
            assert!(run.attempted > 0, "{name}");
            // Only cold-solve's star matching op may fail (see cold.rs).
            let known = |f: &String| f.starts_with("star-") && f.contains("matching");
            assert!(run.failures.iter().all(known), "{name}: {:?}", run.failures);
            let line = run.json(trace);
            let metrics = if trace { PER_LAYER } else { END_TO_END };
            for (metric, unit) in metrics {
                let field = format!("\"{metric}\": {{\"value\": ");
                assert!(line.contains(&field), "{name}: {metric} missing in {line}");
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {unit}"
                );
            }
        }
    }
}

#[test]
fn the_metrics_printed_are_the_metrics_benchmark_json_declares() {
    let declared = include_str!("../../BENCHMARK.json");
    let count = declared.matches("\"name\":").count();
    assert_eq!(count, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    for name in WORKLOADS {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

/// Reproduces the matching fault the benchmark keeps out of its rotation:
/// with degree reduction, `MaxWeightMatching` reports a matching heavier than
/// the brute-force optimum. Ignored until the library is fixed; run it with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "MaxWeightMatching is wrong on degree-reduced trees"]
fn library_matches_brute_force_on_degree_reduced_trees() {
    let mut rng = Rng::new(9, &[]);
    let mut mismatches = Vec::new();
    for trial in 0..200 {
        let n = 4 + trial % 16;
        // Most nodes hang below one of the first three, so degrees are high.
        let parents = (0..n)
            .map(|v| (v > 0).then(|| rng.index(v.min(3))))
            .collect();
        let tree = Tree::from_parents(parents);
        let case = TreeCase::of(Shape::RandomRecursive, &tree, Repr::Edges);
        let w = rng.weights(n);
        for problem in Problem::ROTATION {
            let mut ctx = mpc_tree_dp::MpcContext::new(crate::mpc_config(n));
            let prepared = mpc_tree_dp::prepare(&mut ctx, case.input.clone(), Some(2)).unwrap();
            let mut tr = crate::trace::Tracer::new();
            let answer = problems::solve(
                &mut ctx,
                &prepared,
                problems::Entry::Fresh,
                problem,
                &case,
                &w,
                &mut tr,
            );
            let want = match problem {
                Problem::MaxIs => brute::max_weight_independent_set(&tree, &w),
                Problem::MinVc => brute::min_weight_vertex_cover(&tree, &w),
                Problem::MinDs => brute::min_weight_dominating_set(&tree, &w),
                Problem::Matching => brute::max_weight_matching(&tree, &w),
            };
            if answer.optimum != want {
                mismatches.push(format!(
                    "{}: n={n} {} != {want}",
                    problem.name(),
                    answer.optimum
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches, e.g. {:?}",
        mismatches.len(),
        &mismatches[..1]
    );
}

#[test]
fn the_smoothed_median_is_the_mean_of_the_middle_fifth() {
    use crate::report::smoothed_median;
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    // The 40th-60th percentile window of ten samples holds the 5th and 6th.
    assert_eq!(smoothed_median(&xs), 5.5);
    assert_eq!(smoothed_median(&[7.0]), 7.0);
    assert!(smoothed_median(&[]).is_nan());
}

#[test]
fn latency_blocks_hold_whole_cycles_of_at_least_block_ops() {
    use crate::report::{Run, BLOCK_OPS};
    let mut run = Run::new();
    // Cycles of 30 ops: blocks of four cycles (120 ops), and the last two
    // cycles (60 ops) join the block before them.
    for cycle in 0..10 {
        for op in 0..30 {
            run.timed(f64::from(cycle * 30 + op));
        }
        run.cycle_ends.push(run.latencies_ms.len());
    }
    let blocks = run.latency_blocks();
    let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
    assert_eq!(sizes, vec![120, 180]);
    assert!(sizes.iter().all(|&n| n >= BLOCK_OPS));
    assert_eq!(blocks[1][0], 120.0);
    // A run shorter than one block still gives one block.
    let mut short = Run::new();
    short.timed(1.0);
    short.cycle_ends.push(1);
    assert_eq!(short.latency_blocks(), vec![vec![1.0]]);
    assert!(Run::new().latency_blocks().is_empty());
}
