//! End-to-end and per-layer benchmark of the mpc-tree-dp library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-solve|warm-eval|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up several times (reporting the median set-up
//! time), then runs whole cycles of the workload's ops until `--seconds` have
//! passed, checking every answer against a reference computed apart from the
//! library. The last line of standard output is one JSON object: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer metrics
//! (and a Chrome trace-event file under `perfbench/traces/`). See README.md.

mod cold;
mod inputs;
mod problems;
mod reference;
mod report;
mod serve;
mod trace;
mod warm;

#[cfg(test)]
mod tests;

use mpc_tree_dp::MpcConfig;
use report::{median, Run};
use std::time::{Duration, Instant};
use trace::{json_str, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The MPC configuration of a context for a tree of `n` nodes: `n^0.5` words
/// per machine, as in the quickstart, with machine-local work run
/// sequentially. On a two-core host shared with other work, the library's
/// parallel mode measured 0.5-0.65x the sequential speed with several times
/// the run-to-run spread, wider than any bound the benchmark could hold. Both
/// modes charge the same rounds and words.
pub fn mpc_config(n: usize) -> MpcConfig {
    MpcConfig::new(2 * n, 0.5).with_parallel(false)
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A workload: set up once, then whole cycles of identical ops (only their
/// weights change from cycle to cycle).
pub trait Workload: Sized {
    fn setup(seed: u64, size: Size, tr: &mut Tracer, run: &mut Run) -> Self;
    fn cycle(&mut self, cycle: u64, tr: &mut Tracer, run: &mut Run);
    fn finish(&mut self, _run: &mut Run) {}
}

pub const WORKLOADS: [&str; 3] = ["cold-solve", "warm-eval", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (run, tr) = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    );
    if args.trace {
        write_trace(&args, &run, &tr);
    }
    for f in &run.failures {
        eprintln!("failed op: {f}");
    }
    println!("{}", run.json(args.trace));
}

/// Run one workload for `seconds` of whole cycles.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> (Run, Tracer) {
    let limit = Duration::from_secs_f64(seconds);
    match name {
        "cold-solve" => drive::<cold::Cold>(seed, limit, trace, size),
        "warm-eval" => drive::<warm::Warm>(seed, limit, trace, size),
        "serve-mixed" => drive::<serve::Serve>(seed, limit, trace, size),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn drive<W: Workload>(seed: u64, limit: Duration, trace: bool, size: Size) -> (Run, Tracer) {
    let mut run = Run::new();
    let mut tr = Tracer::new();
    let mut state: Option<W> = None;
    for rep in 0..SETUP_REPEATS {
        // Only the last set-up is traced, and only it feeds the run.
        let last = rep + 1 == SETUP_REPEATS;
        tr.set_enabled(trace && last);
        drop(state.take());
        let mut scratch = Run::new();
        let t0 = Instant::now();
        let s = W::setup(
            seed,
            size,
            &mut tr,
            if last { &mut run } else { &mut scratch },
        );
        run.setup_s.push(t0.elapsed().as_secs_f64());
        run.setup_ok &= scratch.setup_ok;
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");

    // Traced runs trace every other cycle; the untraced ones in between give
    // the tracing overhead on the same ops.
    let start = Instant::now();
    let mut cycle = 0u64;
    loop {
        let traced = trace && cycle % 2 == 1;
        tr.set_enabled(traced);
        let busy = run.busy_ms;
        state.cycle(cycle, &mut tr, &mut run);
        run.cycle_ends.push(run.latencies_ms.len());
        let ms = run.busy_ms - busy;
        if traced {
            run.cycle_ms_traced.push(ms);
        } else {
            run.cycle_ms_untraced.push(ms);
        }
        cycle += 1;
        if start.elapsed() >= limit && (!trace || cycle >= 2) {
            break;
        }
    }
    tr.set_enabled(false);
    state.finish(&mut run);
    if trace {
        let overhead = median(&run.cycle_ms_traced) / median(&run.cycle_ms_untraced) - 1.0;
        run.layers.set("trace.overhead_pct", overhead * 100.0);
        let selfs = tr.self_times();
        if let Some(&(_, _, self_ms)) = selfs.get("op") {
            let ops = tr.spans.iter().filter(|s| s.name == "op").count().max(1);
            run.layers.set("trace.op_self_ms", self_ms / ops as f64);
        }
    }
    if run.latencies_ms.len() < 100 {
        eprintln!(
            "warning: {} timed ops; latency_p90_ms needs at least 100",
            run.latencies_ms.len()
        );
    }
    (run, tr)
}

/// Write the spans as Chrome trace-event JSON, with the self times and the
/// violations grouped by context, and print both summaries to stderr.
fn write_trace(args: &Args, run: &Run, tr: &Tracer) {
    let mut meta = format!(
        "{{\"workload\":{},\"seed\":{},\"self_ms\":{{",
        json_str(&args.workload),
        args.seed
    );
    eprintln!("span self time (ms): name count total self");
    for (i, (name, (count, total, self_ms))) in tr.self_times().iter().enumerate() {
        eprintln!("  {name:<16} {count:>7} {total:>12.3} {self_ms:>12.3}");
        let sep = if i == 0 { "" } else { "," };
        meta.push_str(&format!(
            "{sep}{}:{{\"count\":{count},\"total\":{total},\"self\":{self_ms}}}",
            json_str(name)
        ));
    }
    meta.push_str("},\"violations\":[");
    eprintln!("violations by context: kind context count worst(observed/limit)");
    for (i, ((kind, context), (count, worst))) in run.layers.violations.iter().enumerate() {
        eprintln!("  {kind:<7} {context:<48} {count:>7} {worst:>8.2}");
        let sep = if i == 0 { "" } else { "," };
        meta.push_str(&format!(
            "{sep}{{\"kind\":{},\"context\":{},\"count\":{count},\"worst\":{worst}}}",
            json_str(kind),
            json_str(context)
        ));
    }
    meta.push_str("]}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.chrome_json(&meta)));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write trace {}: {e}", path.display()),
    }
}
