//! `cold-solve`: a stream of trees, each prepared from scratch and solved once
//! through `PreparedTree::solve` (the quickstart path).
//!
//! The inputs are the six shapes, each as an edge list and as a parenthesis
//! string. A cycle solves every checked (tree, problem) pair once (see
//! [`problems::checked_on`]), in an order that rotates the problem from one op
//! to the next; each op draws fresh weights. Every cycle ends with one op that
//! fails every time: max-weight matching on the star edge list with unit
//! weights, where the library reports 2 for a matching of weight 1.

use crate::inputs::{Repr, Rng, Shape, TreeCase};
use crate::problems::{self, Entry, Problem};
use crate::report::{Mark, Run};
use crate::trace::Tracer;
use crate::{mpc_config, Size, Workload};
use mpc_tree_dp::{prepare, MpcContext};
use std::time::Instant;

pub struct Cold {
    seed: u64,
    cases: Vec<TreeCase>,
    /// One cycle: (case, problem, unit weights).
    ops: Vec<(usize, Problem, bool)>,
}

impl Workload for Cold {
    fn setup(seed: u64, size: Size, tr: &mut Tracer, run: &mut Run) -> Self {
        let n = match size {
            Size::Full => 4096,
            Size::Tiny => 48,
        };
        let mut cases = Vec::new();
        for (i, shape) in Shape::ALL.into_iter().enumerate() {
            for repr in [Repr::Edges, Repr::Parens] {
                cases.push(TreeCase::new(shape, repr, n, seed ^ (i as u64) << 32));
            }
        }
        let shapes: Vec<Shape> = cases.iter().map(|c| c.shape).collect();
        let mut ops: Vec<(usize, Problem, bool)> = problems::rotation(&shapes)
            .into_iter()
            .map(|(i, p)| (i, p, false))
            .collect();
        let star = shapes
            .iter()
            .position(|&s| s == Shape::Star)
            .expect("a star case");
        ops.push((star, Problem::Matching, true));
        // Warm-up: one checked MaxIS solve per tree.
        for (i, case) in cases.iter().enumerate() {
            let mut ctx = MpcContext::new(mpc_config(case.ids.len()));
            let span = tr.begin("core.prepare");
            let prepared = prepare(&mut ctx, case.input.clone(), None)
                .unwrap_or_else(|e| panic!("{}: prepare failed in set-up: {e}", case.label));
            tr.end(span);
            let weights = Rng::new(seed, &[0, i as u64]).weights(case.ids.len());
            let answer = problems::solve(
                &mut ctx,
                &prepared,
                Entry::Fresh,
                Problem::MaxIs,
                case,
                &weights,
                tr,
            );
            run.setup_check(problems::check(
                Problem::MaxIs,
                &answer,
                &case.host,
                &weights,
            ));
        }
        Self { seed, cases, ops }
    }

    fn cycle(&mut self, cycle: u64, tr: &mut Tracer, run: &mut Run) {
        for (k, &(i, problem, unit)) in self.ops.iter().enumerate() {
            let case = &self.cases[i];
            let weights = if unit {
                vec![1; case.ids.len()]
            } else {
                Rng::new(self.seed, &[1, cycle, k as u64]).weights(case.ids.len())
            };
            let input = case.input.clone();

            tr.next_op();
            let op = tr.begin("op");
            let t0 = Instant::now();
            let mut ctx = MpcContext::new(mpc_config(case.ids.len()));
            let span = tr.begin("core.prepare");
            let prepared = prepare(&mut ctx, input, None);
            tr.end(span);
            let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
            let prepared = match prepared {
                Ok(p) => p,
                Err(e) => {
                    tr.end(op);
                    run.checked(Err(format!("{}: prepare failed: {e}", case.label)));
                    continue;
                }
            };
            let answer = problems::solve(
                &mut ctx,
                &prepared,
                Entry::Fresh,
                problem,
                case,
                &weights,
                tr,
            );
            tr.end(op);
            let latency = prepare_ms + answer.call_ms;
            run.timed(latency);
            run.busy_ms += latency;

            let span = tr.begin("check");
            let verdict = problems::check(problem, &answer, &case.host, &weights)
                .map_err(|e| format!("{}: {e}", case.label));
            tr.end(span);
            run.checked(verdict);

            let m = ctx.metrics();
            run.rounds += m.rounds;
            run.words += m.total_words_sent;
            run.peak_machine_words = run.peak_machine_words.max(m.peak_local_memory);
            let layers = &mut run.layers;
            layers.mean("clustering.layers", f64::from(prepared.num_layers()));
            layers.record_phases(&m.phases);
            layers.record_mpc(m, &Mark::default(), 1);
        }
    }
}
