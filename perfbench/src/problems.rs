//! The four Table-1 problems the benchmark rotates through, solved through the
//! library's public API and checked against [`crate::reference`].

use crate::inputs::{Shape, TreeCase};
use crate::reference::{self, HostTree};
use crate::trace::Tracer;
use mpc_tree_dp::clustering::is_aux_node;
use mpc_tree_dp::core::StateDp;
use mpc_tree_dp::problems::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
};
use mpc_tree_dp::{DpSolution, MpcContext, PreparedTree, StateEngine};
use std::time::Instant;

/// One of the rotated problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    MaxIs,
    MinVc,
    MinDs,
    Matching,
}

impl Problem {
    pub const ROTATION: [Problem; 4] = [
        Problem::MaxIs,
        Problem::MinVc,
        Problem::MinDs,
        Problem::Matching,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Problem::MaxIs => "max-is",
            Problem::MinVc => "min-vc",
            Problem::MinDs => "min-ds",
            Problem::Matching => "matching",
        }
    }

    /// The optimum the reference DP computes on `tree` with `weights` (node
    /// weights, or for matching the weight of each node's edge to its parent).
    pub fn reference(self, tree: &HostTree, weights: &[i64]) -> i64 {
        match self {
            Problem::MaxIs => reference::max_is(tree, weights),
            Problem::MinVc => reference::min_vc(tree, weights),
            Problem::MinDs => reference::min_ds(tree, weights),
            Problem::Matching => reference::max_matching(tree, weights),
        }
    }
}

/// The problems the benchmark checks on trees of `shape`, in rotation order.
///
/// Two kinds of pair fail on some seeds because of faults in the library, and
/// are left out (see the `FOUND:` lines in `CHANGES.md`): max-weight matching
/// reports a matching heavier than the optimum on trees with nodes above the
/// degree threshold (at the benchmark's sizes, every shape but path and
/// caterpillar), and min-weight dominating set sometimes reports a cost above
/// the optimum on random-recursive and diameter-8 trees. The cold-solve
/// workload keeps one seed-independent matching op that fails every time.
pub fn checked_on(shape: Shape) -> &'static [Problem] {
    use Problem::*;
    match shape {
        Shape::Path | Shape::Caterpillar => &[MaxIs, MinVc, MinDs, Matching],
        Shape::Star | Shape::Broom => &[MaxIs, MinVc, MinDs],
        Shape::RandomRecursive | Shape::Diameter8 => &[MaxIs, MinVc],
    }
}

/// One cycle's (case, problem) pairs: every checked pair once, the problem
/// rotating from one op to the next.
pub fn rotation(shapes: &[Shape]) -> Vec<(usize, Problem)> {
    let k = Problem::ROTATION.len();
    (0..k * shapes.len())
        .map(|j| {
            (
                j % shapes.len(),
                Problem::ROTATION[(j / shapes.len() + j) % k],
            )
        })
        .filter(|&(i, p)| checked_on(shapes[i]).contains(&p))
        .collect()
}

/// Which public solve entry point an op goes through.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// `PreparedTree::solve`, the quickstart path.
    Fresh,
    /// `PreparedTree::solve_planned` over the tree's cached plan.
    Planned,
}

/// What the library answered, reduced to what the checks need.
pub struct Answer {
    /// The optimum in the reference's sign convention (costs positive).
    pub optimum: i64,
    /// For MaxIS / MinVC: which host nodes the labels put in the set.
    pub chosen: Option<Vec<bool>>,
    /// Wall time of the library call itself (input tables + solve), in ms.
    pub call_ms: f64,
}

/// Solve `problem` on `prepared`, the prepared form of `case`, with one weight
/// per host node (for matching, the weight of the node's edge to its parent).
pub fn solve(
    ctx: &mut MpcContext,
    prepared: &PreparedTree,
    entry: Entry,
    problem: Problem,
    case: &TreeCase,
    weights: &[i64],
    tr: &mut Tracer,
) -> Answer {
    let ids = &case.ids;
    match problem {
        Problem::MaxIs => {
            let sol = node_problem(
                ctx,
                prepared,
                entry,
                MaxWeightIndependentSet,
                ids,
                weights,
                tr,
            );
            answer(sol, &MaxWeightIndependentSet, 1, Some(ids))
        }
        Problem::MinVc => {
            let sol = node_problem(ctx, prepared, entry, MinWeightVertexCover, ids, weights, tr);
            answer(sol, &MinWeightVertexCover, -1, Some(ids))
        }
        Problem::MinDs => {
            let sol = node_problem(
                ctx,
                prepared,
                entry,
                MinWeightDominatingSet,
                ids,
                weights,
                tr,
            );
            answer(sol, &MinWeightDominatingSet, -1, None)
        }
        Problem::Matching => {
            let engine = StateEngine::new(MaxWeightMatching);
            let t0 = Instant::now();
            let span = tr.begin(entry_span(entry));
            let nodes = ctx.from_vec(ids.iter().map(|&id| (id, ())).collect::<Vec<_>>());
            let edges = ctx.from_vec(
                (0..ids.len())
                    .filter(|&v| case.host.parent(v).is_some())
                    .map(|v| (ids[v], weights[v]))
                    .collect::<Vec<_>>(),
            );
            let sol = call(ctx, prepared, entry, &engine, &nodes, (), &edges);
            tr.end(span);
            answer(
                (sol, t0.elapsed().as_secs_f64() * 1e3),
                &MaxWeightMatching,
                1,
                None,
            )
        }
    }
}

fn entry_span(entry: Entry) -> &'static str {
    match entry {
        Entry::Fresh => "core.solve",
        Entry::Planned => "core.eval",
    }
}

fn node_problem<P: StateDp<NodeInput = i64, EdgeInput = ()>>(
    ctx: &mut MpcContext,
    prepared: &PreparedTree,
    entry: Entry,
    problem: P,
    ids: &[u64],
    weights: &[i64],
    tr: &mut Tracer,
) -> (DpSolution<StateEngine<P>>, f64) {
    let engine = StateEngine::new(problem);
    let t0 = Instant::now();
    let span = tr.begin(entry_span(entry));
    let nodes = ctx.from_vec(
        ids.iter()
            .copied()
            .zip(weights.iter().copied())
            .collect::<Vec<_>>(),
    );
    let edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = call(ctx, prepared, entry, &engine, &nodes, 0, &edges);
    tr.end(span);
    (sol, t0.elapsed().as_secs_f64() * 1e3)
}

/// Reduce a solution to an [`Answer`]; `sign` turns the library's negated costs
/// back into positive ones, and `label_ids` asks for the chosen set.
fn answer<P: StateDp>(
    (sol, call_ms): (DpSolution<StateEngine<P>>, f64),
    problem: &P,
    sign: i64,
    label_ids: Option<&[u64]>,
) -> Answer {
    Answer {
        optimum: sign * best(&sol, problem),
        chosen: label_ids.map(|ids| chosen_nodes(sol.labels.iter().copied(), ids)),
        call_ms,
    }
}

fn call<P: StateDp>(
    ctx: &mut MpcContext,
    prepared: &PreparedTree,
    entry: Entry,
    engine: &StateEngine<P>,
    nodes: &mpc_tree_dp::DistVec<(u64, P::NodeInput)>,
    aux: P::NodeInput,
    edges: &mpc_tree_dp::DistVec<(u64, P::EdgeInput)>,
) -> DpSolution<StateEngine<P>> {
    match entry {
        Entry::Fresh => prepared.solve(ctx, engine, nodes, aux, edges),
        Entry::Planned => prepared.solve_planned(ctx, engine, nodes, aux, edges),
    }
}

fn best<P: StateDp>(sol: &DpSolution<StateEngine<P>>, problem: &P) -> i64 {
    sol.root_summary
        .best(problem)
        .expect("every benchmark problem is feasible on every tree")
}

/// Host nodes whose label is state 1 ("in the set" for MaxIS and MinVC); labels
/// of auxiliary degree-reduction nodes are skipped.
pub fn chosen_nodes(labels: impl Iterator<Item = (u64, usize)>, ids: &[u64]) -> Vec<bool> {
    let max_id = ids.iter().copied().max().unwrap_or(0) as usize;
    let mut host_of = vec![usize::MAX; max_id + 1];
    for (v, &id) in ids.iter().enumerate() {
        host_of[id as usize] = v;
    }
    let mut chosen = vec![false; ids.len()];
    for (id, state) in labels {
        if is_aux_node(id) || id as usize > max_id {
            continue;
        }
        let v = host_of[id as usize];
        if v != usize::MAX {
            chosen[v] = state == 1;
        }
    }
    chosen
}

/// Compare one answer with the reference; `Err` describes the first mismatch.
pub fn check(
    problem: Problem,
    answer: &Answer,
    tree: &HostTree,
    weights: &[i64],
) -> Result<(), String> {
    let want = problem.reference(tree, weights);
    if answer.optimum != want {
        return Err(format!(
            "{}: library optimum {} != reference {}",
            problem.name(),
            answer.optimum,
            want
        ));
    }
    if let Some(chosen) = &answer.chosen {
        let weight = match problem {
            Problem::MaxIs => reference::independent_set_weight(tree, weights, chosen)?,
            Problem::MinVc => reference::vertex_cover_weight(tree, weights, chosen)?,
            _ => unreachable!("labels are checked for MaxIS and MinVC only"),
        };
        if weight != want {
            return Err(format!(
                "{}: labels weigh {} but the optimum is {}",
                problem.name(),
                weight,
                want
            ));
        }
    }
    Ok(())
}
