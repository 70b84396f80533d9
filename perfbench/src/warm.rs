//! `warm-eval`: trees prepared and planned during set-up; each op is one
//! `PreparedTree::solve_planned` of the next checked problem in the rotation
//! (see [`problems::checked_on`]), on fresh weights.

use crate::inputs::{Repr, Rng, Shape, TreeCase};
use crate::problems::{self, Entry, Problem};
use crate::report::{Mark, Run};
use crate::trace::Tracer;
use crate::{mpc_config, Size, Workload};
use mpc_tree_dp::{prepare, MpcContext, PreparedTree};

pub struct Warm {
    seed: u64,
    trees: Vec<(TreeCase, MpcContext, PreparedTree)>,
    /// One cycle: every checked (tree, problem) pair once.
    ops: Vec<(usize, Problem)>,
}

impl Workload for Warm {
    fn setup(seed: u64, size: Size, tr: &mut Tracer, run: &mut Run) -> Self {
        let n = match size {
            Size::Full => 16384,
            Size::Tiny => 64,
        };
        let mut trees = Vec::new();
        let (mut plan_words, mut layers) = (0usize, 0u32);
        for (i, shape) in Shape::ALL.into_iter().enumerate() {
            let case = TreeCase::new(shape, Repr::Edges, n, seed ^ (i as u64) << 32);
            let mut ctx = MpcContext::new(mpc_config(n));
            let span = tr.begin("core.prepare");
            let prepared = prepare(&mut ctx, case.input.clone(), None)
                .unwrap_or_else(|e| panic!("{}: prepare failed in set-up: {e}", case.label));
            tr.end(span);
            layers += prepared.num_layers();
            let span = tr.begin("core.plan");
            plan_words += prepared.plan(&mut ctx).resident_words();
            tr.end(span);
            // Warm-up: one checked evaluation per tree.
            let weights = Rng::new(seed, &[2, i as u64]).weights(n);
            let answer = problems::solve(
                &mut ctx,
                &prepared,
                Entry::Planned,
                Problem::MaxIs,
                &case,
                &weights,
                tr,
            );
            run.setup_check(problems::check(
                Problem::MaxIs,
                &answer,
                &case.host,
                &weights,
            ));
            ctx.reset_metrics();
            trees.push((case, ctx, prepared));
        }
        // Properties of the prepared trees every op evaluates over.
        let count = trees.len() as f64;
        run.layers.set("core.plan_words", plan_words as f64 / count);
        run.layers
            .set("clustering.layers", f64::from(layers) / count);
        let shapes: Vec<Shape> = trees.iter().map(|t| t.0.shape).collect();
        let ops = problems::rotation(&shapes);
        Self { seed, trees, ops }
    }

    fn cycle(&mut self, cycle: u64, tr: &mut Tracer, run: &mut Run) {
        for (k, &(i, problem)) in self.ops.iter().enumerate() {
            let (case, ctx, prepared) = &mut self.trees[i];
            let weights = Rng::new(self.seed, &[3, cycle, k as u64]).weights(case.ids.len());

            ctx.reset_metrics();
            tr.next_op();
            let op = tr.begin("op");
            let answer =
                problems::solve(ctx, prepared, Entry::Planned, problem, case, &weights, tr);
            tr.end(op);
            run.timed(answer.call_ms);
            run.busy_ms += answer.call_ms;

            let span = tr.begin("check");
            let verdict = problems::check(problem, &answer, &case.host, &weights)
                .map_err(|e| format!("{}: {e}", case.label));
            tr.end(span);
            run.checked(verdict);

            let m = ctx.metrics();
            run.rounds += m.rounds;
            run.words += m.total_words_sent;
            run.peak_machine_words = run.peak_machine_words.max(m.peak_local_memory);
            run.layers.record_phases(&m.phases);
            run.layers.record_mpc(m, &Mark::default(), 1);
        }
    }
}
