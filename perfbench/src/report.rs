//! What a run collects, and the JSON line it prints.
//!
//! End-to-end metrics come from the benchmark's own timers and the MPC cost
//! counters of the contexts it drives. Per-layer metrics come from the same
//! timers around each layer call and from the counters the library exposes
//! (`Metrics` phases, violations and convergence traces, `UpdateStats`,
//! `StructuralStats`, `CacheStats`).

use crate::trace::json_str;
use mpc_tree_dp::mpc::{Metrics, PhaseMetrics, ViolationKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rounds_per_op", "rounds"),
    ("words_per_op", "words"),
    ("peak_machine_words", "words"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A layer
/// that does not run in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("repr.normalize_ms", "ms"),
    ("repr.normalize_rounds", "rounds"),
    ("clustering.degree_reduction_ms", "ms"),
    ("clustering.degree_reduction_rounds", "rounds"),
    ("clustering.clustering_ms", "ms"),
    ("clustering.clustering_rounds", "rounds"),
    ("clustering.cluster_sizes_rounds", "rounds"),
    ("clustering.cluster_paths_rounds", "rounds"),
    ("clustering.layers", "layers"),
    ("core.prepare_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.solve_rounds", "rounds"),
    ("core.eval_ms", "ms"),
    ("core.eval_rounds", "rounds"),
    ("core.eval_words", "words"),
    ("core.plan_build_ms", "ms"),
    ("core.plan_build_rounds", "rounds"),
    ("core.plan_words", "words"),
    ("mpc.violations_memory", "count/op"),
    ("mpc.violations_bandwidth", "count/op"),
    ("mpc.max_send_words_per_round", "words"),
    ("mpc.max_recv_words_per_round", "words"),
    ("mpc.converge_steps", "steps/op"),
    ("mpc.converge_active_machines", "machines"),
    ("incremental.update_ms", "ms"),
    ("incremental.update_rounds", "rounds"),
    ("incremental.resummarized", "clusters"),
    ("incremental.struct_ms", "ms"),
    ("incremental.struct_rounds", "rounds"),
    ("incremental.patched_clusters", "clusters"),
    ("incremental.degraded_batches", "count"),
    ("server.flush_ms", "ms"),
    ("server.requests_per_flush", "requests"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.evictions", "count"),
    ("server.rebuild_rounds", "rounds"),
    ("trace.op_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// How one per-layer metric aggregates its samples.
#[derive(Debug, Clone)]
enum Stat {
    Median(Vec<f64>),
    Mean(f64, u64),
    Max(f64),
    Total(f64),
    Ratio(f64, f64),
    Value(f64),
}

impl Stat {
    fn value(&self) -> f64 {
        let v = match self {
            Stat::Median(xs) => median(xs),
            Stat::Mean(sum, n) => sum / (*n).max(1) as f64,
            Stat::Max(x) | Stat::Total(x) | Stat::Value(x) => *x,
            Stat::Ratio(num, den) => num / den,
        };
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

/// Per-layer samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    stats: BTreeMap<&'static str, Stat>,
    /// Violations by (kind, context): count and worst observed/limit ratio.
    pub violations: BTreeMap<(String, String), (u64, f64)>,
}

impl Layers {
    fn stat(&mut self, name: &'static str, init: Stat) -> &mut Stat {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.stats.entry(name).or_insert(init)
    }

    /// One sample of a metric reported as the median of its samples.
    pub fn sample(&mut self, name: &'static str, x: f64) {
        if let Stat::Median(xs) = self.stat(name, Stat::Median(Vec::new())) {
            xs.push(x);
        }
    }

    /// One sample of a metric reported as the mean of its samples.
    pub fn mean(&mut self, name: &'static str, x: f64) {
        if let Stat::Mean(sum, n) = self.stat(name, Stat::Mean(0.0, 0)) {
            *sum += x;
            *n += 1;
        }
    }

    pub fn max(&mut self, name: &'static str, x: f64) {
        if let Stat::Max(m) = self.stat(name, Stat::Max(0.0)) {
            *m = m.max(x);
        }
    }

    pub fn add(&mut self, name: &'static str, x: f64) {
        if let Stat::Total(t) = self.stat(name, Stat::Total(0.0)) {
            *t += x;
        }
    }

    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if let Stat::Ratio(a, b) = self.stat(name, Stat::Ratio(0.0, 0.0)) {
            *a += num;
            *b += den;
        }
    }

    pub fn set(&mut self, name: &'static str, x: f64) {
        *self.stat(name, Stat::Value(0.0)) = Stat::Value(x);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, Stat::value)
    }

    /// Record the phases one op (or one flush stage) ran: every top-level
    /// occurrence of a layer's phase is one sample. Nested phases
    /// (`cluster-sizes`, `cluster-paths`) are summed per enclosing `clustering`.
    /// A prepare is the `normalize`, `degree-reduction` and `clustering` phases
    /// in a row; `core.prepare_ms` is the sum of their wall times.
    pub fn record_phases(&mut self, phases: &[PhaseMetrics]) {
        let (mut sizes, mut paths, mut prepare_ms) = (0u64, 0u64, 0.0);
        for p in phases {
            let (ms, rounds) = (p.wall_ms, p.rounds as f64);
            match p.name.as_str() {
                "normalize" => {
                    self.sample("repr.normalize_ms", ms);
                    self.mean("repr.normalize_rounds", rounds);
                    prepare_ms = ms;
                }
                "degree-reduction" => {
                    self.sample("clustering.degree_reduction_ms", ms);
                    self.mean("clustering.degree_reduction_rounds", rounds);
                    prepare_ms += ms;
                }
                "cluster-sizes" => sizes += p.rounds,
                "cluster-paths" => paths += p.rounds,
                "clustering" => {
                    self.sample("clustering.clustering_ms", ms);
                    self.mean("clustering.clustering_rounds", rounds);
                    self.mean("clustering.cluster_sizes_rounds", sizes as f64);
                    self.mean("clustering.cluster_paths_rounds", paths as f64);
                    self.sample("core.prepare_ms", prepare_ms + ms);
                    (sizes, paths) = (0, 0);
                }
                "dp-solve" => {
                    self.sample("core.solve_ms", ms);
                    self.mean("core.solve_rounds", rounds);
                }
                "plan-build" => {
                    self.sample("core.plan_build_ms", ms);
                    self.mean("core.plan_build_rounds", rounds);
                }
                "plan-solve" => {
                    self.sample("core.eval_ms", ms);
                    self.mean("core.eval_rounds", rounds);
                    self.mean("core.eval_words", p.words_sent as f64);
                }
                _ => {}
            }
        }
    }

    /// Record the MPC-layer counters of a context's slice after `mark`, which
    /// served `ops` ops.
    pub fn record_mpc(&mut self, m: &Metrics, mark: &Mark, ops: u64) {
        let (mut memory, mut bandwidth) = (0u64, 0u64);
        for v in &m.violations[mark.violations..] {
            let kind = match v.kind {
                ViolationKind::LocalMemory => {
                    memory += 1;
                    "memory"
                }
                ViolationKind::SendBandwidth => {
                    bandwidth += 1;
                    "send"
                }
                ViolationKind::ReceiveBandwidth => {
                    bandwidth += 1;
                    "recv"
                }
            };
            let e = self
                .violations
                .entry((kind.to_string(), v.context.clone()))
                .or_insert((0, 0.0));
            e.0 += 1;
            e.1 = e.1.max(v.observed as f64 / v.limit.max(1) as f64);
        }
        let ops = ops as f64;
        self.ratio("mpc.violations_memory", memory as f64, ops);
        self.ratio("mpc.violations_bandwidth", bandwidth as f64, ops);
        self.max(
            "mpc.max_send_words_per_round",
            m.max_words_sent_per_round as f64,
        );
        self.max(
            "mpc.max_recv_words_per_round",
            m.max_words_received_per_round as f64,
        );
        let (mut steps, mut active) = (0usize, 0usize);
        for c in &m.convergence[mark.convergence..] {
            steps += c.active_machines.len();
            active += c.active_machines.iter().sum::<usize>();
        }
        self.ratio("mpc.converge_steps", steps as f64, ops);
        self.ratio("mpc.converge_active_machines", active as f64, steps as f64);
    }
}

/// Where an op's slice of a context's metrics begins.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub phases: usize,
    pub violations: usize,
    pub convergence: usize,
    pub rounds: u64,
    pub words: u64,
}

impl Mark {
    pub fn of(m: &Metrics) -> Self {
        Self {
            phases: m.phases.len(),
            violations: m.violations.len(),
            convergence: m.convergence.len(),
            rounds: m.rounds,
            words: m.total_words_sent,
        }
    }
}

/// Everything one run collects.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
    /// `false` when an answer checked during set-up was wrong.
    pub setup_ok: bool,
    pub setup_s: Vec<f64>,
    /// Per timed op: from its submit to its answer.
    pub latencies_ms: Vec<f64>,
    /// Where each whole cycle's ops end in `latencies_ms`.
    pub cycle_ends: Vec<usize>,
    /// Sum of the timed ops' wall time (a closed loop: one op at a time).
    pub busy_ms: f64,
    pub rounds: u64,
    pub words: u64,
    pub peak_machine_words: usize,
    pub layers: Layers,
    /// Op time per whole cycle, split by whether the cycle was traced.
    pub cycle_ms_traced: Vec<f64>,
    pub cycle_ms_untraced: Vec<f64>,
}

impl Run {
    pub fn new() -> Self {
        Self {
            setup_ok: true,
            ..Self::default()
        }
    }

    /// Count one checked op.
    pub fn checked(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    /// Check an answer computed during set-up (not counted as an op).
    pub fn setup_check(&mut self, result: Result<(), String>) {
        if let Err(msg) = result {
            self.setup_ok = false;
            eprintln!("set-up answer wrong: {msg}");
        }
    }

    /// A timed op that took `ms` from submit to answer.
    pub fn timed(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }

    /// The last line of the run's output.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
        if trace {
            for &(name, unit) in PER_LAYER {
                metrics.push((name, unit, self.layers.value(name)));
            }
        } else {
            let blocks = self.latency_blocks();
            let ops = self.latencies_ms.len().max(1) as f64;
            for &(name, unit) in END_TO_END {
                let v = match name {
                    "setup_s" => median(&self.setup_s),
                    "ops_per_s" => self.latencies_ms.len() as f64 / (self.busy_ms / 1e3),
                    "latency_p50_ms" => mean_over(&blocks, smoothed_median),
                    "latency_p90_ms" => mean_over(&blocks, |b| quantile_sorted(b, 0.9)),
                    "rounds_per_op" => self.rounds as f64 / ops,
                    "words_per_op" => self.words as f64 / ops,
                    "peak_machine_words" => self.peak_machine_words as f64,
                    "peak_rss_mib" => peak_rss_mib(),
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                metrics.push((name, unit, v));
            }
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.setup_ok, self.attempted, self.failed
        );
        for (i, (name, unit, v)) in metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The timed ops' latencies in blocks of whole consecutive cycles, each
    /// of at least `BLOCK_OPS` ops (the last one takes the cycles left over),
    /// each sorted. The latency percentiles are taken per block and averaged
    /// over the blocks. The host runs slow stretches of seconds to minutes; a
    /// percentile of all latencies pooled jumps with their share of the run,
    /// because the op types form latency clusters and a slow stretch moves ops
    /// from one cluster into the next, while the mean of per-block percentiles
    /// moves in proportion to that share, as `ops_per_s` does.
    pub fn latency_blocks(&self) -> Vec<Vec<f64>> {
        let mut blocks: Vec<Vec<f64>> = Vec::new();
        let mut start = 0;
        for &end in &self.cycle_ends {
            if end - start >= BLOCK_OPS {
                blocks.push(self.latencies_ms[start..end].to_vec());
                start = end;
            }
        }
        let rest = &self.latencies_ms[start..];
        match blocks.last_mut() {
            Some(last) => last.extend_from_slice(rest),
            None if !rest.is_empty() => blocks.push(rest.to_vec()),
            None => {}
        }
        for b in &mut blocks {
            b.sort_by(f64::total_cmp);
        }
        blocks
    }
}

/// Timed ops per latency block: enough for a 90th percentile with ten ops
/// beyond it.
pub const BLOCK_OPS: usize = 100;

/// Mean over blocks of a statistic of each (NaN when there are none).
fn mean_over(blocks: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    blocks.iter().map(|b| stat(b)).sum::<f64>() / blocks.len() as f64
}

/// Median of unsorted samples (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The median of sorted samples, smoothed: the mean of the samples between the
/// 40th and the 60th percentile. A run mixes op types whose latencies form
/// clusters with gaps between them; a plain median that falls in a gap jumps
/// from one cluster's edge to the other's when the host runs a little slower,
/// while this mean moves with the latencies around it.
pub fn smoothed_median(xs: &[f64]) -> f64 {
    let (lo, hi) = (xs.len() * 2 / 5, (xs.len() * 3).div_ceil(5));
    let window = &xs[lo..hi.max(lo + 1).min(xs.len())];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Linear-interpolated quantile of sorted samples (NaN when empty).
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The process's resident-memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
