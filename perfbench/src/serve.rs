//! `serve-mixed`: a `TreeDpServer` (MaxIS) with six tenants under a closed
//! loop. Tenants take turns; each turn submits weight updates, one link/cut
//! batch and a few queries, then flushes.
//!
//! The plan budget holds about half of the tenants' plans, so cold tenants miss
//! and rebuild. Writes come in pairs per tenant: a turn that changes weights and
//! links leaves is followed, at that tenant's next turn, by one that restores the
//! weights and cuts the leaves. Every cycle therefore starts from the same trees
//! and weights, and the MPC counts of a cycle do not depend on how many cycles
//! ran before it. On the diameter-8 tenants a link batch adds `threshold + 1`
//! leaves below a parent already at the degree threshold, so every such batch
//! falls back to a full re-prepare (`DegradeReason::DegreeOverflow`).
//!
//! A shadow model tracks every tenant's tree and weights through the
//! benchmark's own writes; after each turn the query answers, `root_summary` and
//! the tenant's labels are checked against the reference DP on that tree.

use crate::inputs::{Rng, Shape};
use crate::problems::chosen_nodes;
use crate::reference::{self, HostTree};
use crate::report::{Mark, Run};
use crate::trace::Tracer;
use crate::{mpc_config, Size, Workload};
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{
    prepare, CacheStats, ListOfEdges, MpcContext, Request, Response, ServerConfig, StateEngine,
    StructuralBatch, TenantSpec, TreeDpServer, TreeInput,
};
use std::time::Instant;

type MaxIs = StateEngine<MaxWeightIndependentSet>;

/// Queries per turn.
const QUERIES: usize = 4;
/// Node weights changed by one update request.
const UPDATES: usize = 16;
/// Leaves linked (then cut) by one structural request, on all but the
/// diameter-8 tenants.
const LINKS: usize = 4;
/// Tenant order within one cycle: tenants 0 and 1 are hot, 2..=5 cold. Every
/// tenant appears an even number of times, so its write pairs close in a cycle.
const SCHEDULE: [usize; 16] = [0, 2, 1, 3, 0, 4, 1, 5, 0, 2, 1, 3, 0, 4, 1, 5];

/// One tenant's tree and weights as the benchmark believes them to be.
struct Shadow {
    parent: Vec<Option<usize>>,
    alive: Vec<bool>,
    weight: Vec<i64>,
}

impl Shadow {
    /// Live nodes (ids ascending), the host tree over them, and their weights.
    fn snapshot(&self) -> (Vec<u64>, HostTree) {
        let ids: Vec<u64> = (0..self.parent.len() as u64)
            .filter(|&v| self.alive[v as usize])
            .collect();
        let mut dense = vec![usize::MAX; self.parent.len()];
        for (i, &v) in ids.iter().enumerate() {
            dense[v as usize] = i;
        }
        let parents = ids
            .iter()
            .map(|&v| self.parent[v as usize].map(|p| dense[p]))
            .collect();
        (ids, HostTree::from_parents(parents))
    }
}

struct Tenant {
    id: String,
    n: usize,
    base: Vec<i64>,
    shadow: Shadow,
    /// Where each leaf of a link batch goes; leaf `j` gets id `n + j`.
    link_parents: Vec<usize>,
    mark: Mark,
    turns: u64,
}

pub struct Serve {
    seed: u64,
    server: TreeDpServer<MaxIs>,
    tenants: Vec<Tenant>,
    cache0: CacheStats,
}

impl Workload for Serve {
    fn setup(seed: u64, size: Size, tr: &mut Tracer, run: &mut Run) -> Self {
        let (big, small) = match size {
            Size::Full => (4096, 2048),
            Size::Tiny => (64, 48),
        };
        let plan = [
            (Shape::RandomRecursive, big),
            (Shape::Diameter8, big),
            (Shape::Path, big),
            (Shape::RandomRecursive, small),
            (Shape::Diameter8, small),
            (Shape::Path, small),
        ];
        let mut tenants = Vec::new();
        let mut specs = Vec::new();
        let mut plan_words = 0usize;
        for (i, &(shape, n)) in plan.iter().enumerate() {
            let tree = shape.tree(n, seed ^ (i as u64) << 32);
            let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree));
            let config = mpc_config(n);
            // Probe the prepared tree for its plan size and its reduced degrees.
            let mut ctx = MpcContext::new(config);
            let prepared = prepare(&mut ctx, input.clone(), None)
                .unwrap_or_else(|e| panic!("tenant {i}: prepare failed in set-up: {e}"));
            plan_words += prepared.plan_uncached(&mut ctx).resident_words();
            let mut reduced_children = vec![0usize; n];
            for (e, _) in prepared.edges.iter() {
                if let Some(c) = reduced_children.get_mut(e.parent as usize) {
                    *c += 1;
                }
            }
            let mut rng = Rng::new(seed, &[4, i as u64]);
            // Links go below distinct nodes with room for them, except on
            // diameter-8, where they all go below a node already at the threshold.
            let threshold = prepared.clustering.threshold;
            let mut link_parents = Vec::new();
            match (0..n).find(|&v| reduced_children[v] == threshold) {
                Some(v) if shape == Shape::Diameter8 => link_parents = vec![v; threshold + 1],
                _ => {
                    while link_parents.len() < LINKS {
                        let v = rng.index(n);
                        if reduced_children[v] + 1 < threshold && !link_parents.contains(&v) {
                            link_parents.push(v);
                        }
                    }
                }
            }
            let links = link_parents.len();
            let base = rng.weights(n);
            let mut parent: Vec<Option<usize>> = (0..n).map(|v| tree.parent(v)).collect();
            parent.extend(std::iter::repeat(None).take(links));
            let mut alive = vec![true; n];
            alive.extend(std::iter::repeat(false).take(links));
            let mut weight = base.clone();
            weight.extend(std::iter::repeat(0).take(links));
            specs.push(TenantSpec {
                config,
                input,
                threshold: None,
                problem: MaxIs::new(MaxWeightIndependentSet),
                node_inputs: (0..n as u64).zip(base.iter().copied()).collect(),
                aux_input: 0,
                edge_inputs: Vec::new(),
            });
            tenants.push(Tenant {
                id: format!("{}-{n}-{i}", shape.name()),
                n,
                base,
                shadow: Shadow {
                    parent,
                    alive,
                    weight,
                },
                link_parents,
                mark: Mark::default(),
                turns: 0,
            });
        }

        let mut server = TreeDpServer::new(ServerConfig {
            plan_budget_words: plan_words / 2,
        });
        for (t, spec) in tenants.iter().zip(specs) {
            let span = tr.begin("server.admit");
            let admitted = server.admit(t.id.clone(), spec);
            tr.end(span);
            if let Err(e) = admitted {
                panic!("{}: admission failed: {e}", t.id);
            }
        }
        let mut serve = Serve {
            seed,
            server,
            tenants,
            cache0: CacheStats::default(),
        };
        // Warm-up: one whole cycle, so that the timed cycles all start from the
        // same cache and clustering state.
        let mut warm = Run::new();
        serve.cycle(u64::MAX, tr, &mut warm);
        if warm.failed > 0 {
            for f in &warm.failures {
                run.setup_check(Err(f.clone()));
            }
        }
        serve.cache0 = serve.server.cache_stats();
        serve
    }

    fn cycle(&mut self, cycle: u64, tr: &mut Tracer, run: &mut Run) {
        for (slot, &ti) in SCHEDULE.iter().enumerate() {
            self.turn(cycle, slot, ti, tr, run);
        }
    }

    fn finish(&mut self, run: &mut Run) {
        let c = self.server.cache_stats();
        let (hits, misses) = (c.hits - self.cache0.hits, c.misses - self.cache0.misses);
        let layers = &mut run.layers;
        layers.add("server.cache_hits", hits as f64);
        layers.add("server.cache_misses", misses as f64);
        layers.add(
            "server.evictions",
            (c.evictions - self.cache0.evictions) as f64,
        );
        layers.ratio("server.hit_ratio", hits as f64, (hits + misses) as f64);
        layers.ratio(
            "server.rebuild_rounds",
            (c.build_rounds - self.cache0.build_rounds) as f64,
            misses as f64,
        );
        layers.ratio(
            "core.plan_words",
            c.resident_words as f64,
            c.resident_plans as f64,
        );
    }
}

impl Serve {
    fn turn(&mut self, cycle: u64, slot: usize, ti: usize, tr: &mut Tracer, run: &mut Run) {
        let seed = self.seed;
        let t = &mut self.tenants[ti];
        let pairs = SCHEDULE.iter().filter(|&&x| x == ti).count() as u64 / 2;
        let pair = (t.turns / 2) % pairs;
        let writing = t.turns % 2 == 0;
        t.turns += 1;

        // The writes of this turn, applied to the shadow as they are submitted.
        let mut rng = Rng::new(seed, &[5, ti as u64, pair]);
        let targets: Vec<usize> = (0..UPDATES).map(|_| rng.index(t.n)).collect();
        let node_updates: Vec<(u64, i64)> = targets
            .iter()
            .map(|&v| {
                let w = if writing {
                    rng.range(1, 100)
                } else {
                    t.base[v]
                };
                (v as u64, w)
            })
            .collect();
        for &(v, w) in &node_updates {
            t.shadow.weight[v as usize] = w;
        }
        let mut batch = StructuralBatch::new();
        for j in 0..t.link_parents.len() {
            let leaf = t.n + j;
            if writing {
                let (parent, w) = (t.link_parents[j], rng.range(1, 100));
                batch = batch.link(parent as u64, leaf as u64, w, ());
                t.shadow.parent[leaf] = Some(parent);
                t.shadow.alive[leaf] = true;
                t.shadow.weight[leaf] = w;
            } else {
                batch = batch.cut(leaf as u64);
                t.shadow.alive[leaf] = false;
            }
        }
        let (ids, host) = t.shadow.snapshot();
        let mut qrng = Rng::new(seed, &[6, cycle, slot as u64]);
        let queries: Vec<Vec<i64>> = (0..QUERIES).map(|_| qrng.weights(ids.len())).collect();

        tr.next_op();
        let op = tr.begin("op");
        let t0 = Instant::now();
        let mut submitted = Vec::with_capacity(2 + QUERIES);
        let span = tr.begin("server.submit");
        submitted.push(t0);
        self.server.submit(
            t.id.clone(),
            Request::Update {
                node_updates,
                edge_updates: Vec::new(),
            },
        );
        submitted.push(Instant::now());
        self.server.submit(t.id.clone(), Request::Structural(batch));
        for q in &queries {
            submitted.push(Instant::now());
            self.server.submit(
                t.id.clone(),
                Request::Query {
                    node_inputs: ids.iter().copied().zip(q.iter().copied()).collect(),
                    edge_inputs: Vec::new(),
                },
            );
        }
        tr.end(span);
        let span = tr.begin("server.flush");
        let f0 = Instant::now();
        let responses = self.server.flush();
        let done = Instant::now();
        tr.end(span);
        tr.end(op);
        for s in &submitted {
            run.timed((done - *s).as_secs_f64() * 1e3);
        }
        run.busy_ms += (done - t0).as_secs_f64() * 1e3;
        let layers = &mut run.layers;
        layers.sample("server.flush_ms", (done - f0).as_secs_f64() * 1e3);
        layers.mean("server.requests_per_flush", responses.len() as f64);

        // Checks: the writes through the tenant's root summary and labels after
        // the turn, each query against the reference. Responses come back in
        // submission order: the update, the structural batch, the queries.
        let span = tr.begin("check");
        let weights: Vec<i64> = ids.iter().map(|&v| t.shadow.weight[v as usize]).collect();
        let got = self
            .server
            .root_summary(&t.id)
            .and_then(|s| s.best(&MaxWeightIndependentSet));
        let labels = self.server.labels(&t.id).expect("admitted tenant");
        let chosen = chosen_nodes(labels.iter().map(|(k, v)| (*k, *v)), &ids);
        let state = check_max_is(&host, &weights, got, &chosen)
            .map_err(|e| format!("after the writes: {e}"));
        let mut degraded = false;
        for (i, (_, response)) in responses.iter().enumerate() {
            let layers = &mut run.layers;
            let verdict = match response {
                Response::Rejected(e) => Err(format!("rejected: {e}")),
                Response::Solution(sol) => match i.checked_sub(2).and_then(|q| queries.get(q)) {
                    Some(weights) => {
                        let got = sol.root_summary.best(&MaxWeightIndependentSet);
                        let chosen = chosen_nodes(sol.labels.iter().copied(), &ids);
                        check_max_is(&host, weights, got, &chosen)
                    }
                    None => Err("a solution answered a write".into()),
                },
                Response::Update(stats) => {
                    layers.mean("incremental.update_rounds", stats.rounds as f64);
                    layers.mean("incremental.resummarized", stats.resummarized as f64);
                    state.clone()
                }
                Response::Structural(stats) => {
                    degraded = stats.degraded;
                    layers.mean("incremental.struct_rounds", stats.rounds as f64);
                    layers.mean("incremental.resummarized", stats.resummarized as f64);
                    layers.mean(
                        "incremental.patched_clusters",
                        stats.patched_clusters as f64,
                    );
                    layers.add(
                        "incremental.degraded_batches",
                        f64::from(u8::from(degraded)),
                    );
                    state.clone()
                }
            };
            run.checked(verdict.map_err(|e| format!("{} turn {slot} request {i}: {e}", t.id)));
        }
        tr.end(span);

        // Counters of the tenant's context since its last turn.
        let m = self
            .server
            .context(&t.id)
            .expect("admitted tenant")
            .metrics();
        let phases = &m.phases[t.mark.phases..];
        let (update_ms, struct_ms) = stage_ms(phases, degraded);
        let layers = &mut run.layers;
        layers.sample("incremental.update_ms", update_ms);
        layers.sample("incremental.struct_ms", struct_ms);
        layers.record_phases(phases);
        layers.record_mpc(m, &t.mark, responses.len() as u64);
        run.rounds += m.rounds - t.mark.rounds;
        run.words += m.total_words_sent - t.mark.words;
        run.peak_machine_words = run.peak_machine_words.max(m.peak_local_memory);
        t.mark = Mark::of(m);
    }
}

/// Check a MaxIS answer: optimum equal to the reference, and labels naming an
/// independent set of that weight.
fn check_max_is(
    host: &HostTree,
    weights: &[i64],
    got: Option<i64>,
    chosen: &[bool],
) -> Result<(), String> {
    let want = reference::max_is(host, weights);
    if got != Some(want) {
        return Err(format!("optimum {got:?} != reference {want}"));
    }
    let weight = reference::independent_set_weight(host, weights, chosen)?;
    if weight != want {
        return Err(format!("labels weigh {weight} but the optimum is {want}"));
    }
    Ok(())
}

/// Wall time of a flush's update stage and structural stage, from the tenant's
/// phases in flush order: updates run first, then the structural batch (which
/// starts with `inc-struct`, or with `normalize` when it falls back to a
/// re-prepare that ends in one store-filling `plan-solve`), then the queries.
fn stage_ms(phases: &[mpc_tree_dp::mpc::PhaseMetrics], degraded: bool) -> (f64, f64) {
    const NESTED: [&str; 7] = [
        "cluster-sizes",
        "cluster-paths",
        "dp-bottom-up",
        "dp-top-down",
        "plan-inputs",
        "plan-up",
        "plan-down",
    ];
    let (mut update, mut structural) = (0.0, 0.0);
    let mut stage = 0;
    for p in phases {
        let name = p.name.as_str();
        if stage == 0 && (name == "inc-struct" || name == "normalize") {
            stage = 1;
        }
        if stage == 1 && !degraded && (name.starts_with("plan-")) {
            stage = 2;
        }
        if NESTED.contains(&name) {
            continue;
        }
        match stage {
            0 => update += p.wall_ms,
            1 => structural += p.wall_ms,
            _ => {}
        }
        if stage == 1 && degraded && name == "plan-solve" {
            stage = 2;
        }
    }
    (update, structural)
}
