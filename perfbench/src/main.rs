//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is a simulation part and a service part (GLOSSARY.md
//! defines each workload and metric). `--trace 0` times them with no
//! instrumentation attached and prints every end-to-end metric;
//! `--trace 1` runs the per-layer probes inside spans, prints every
//! per-layer metric and writes the spans to `perfbench/out/`. Either
//! way every timed call is checked against `step_seq` and counted, and
//! the last line of standard output is the result object.

mod host;
mod layers;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use std::time::Instant;

use ump_apps::{airfoil, volna};
use ump_core::Layout;
use ump_simd::Real;

use report::{Outcome, FAMILIES};
use sim::App;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Jobs per run at least: enough for a p99 with ten jobs beyond it.
/// `peak_rss_mb` is read when the run reaches this count.
const MIN_JOBS: usize = 1000;
/// Jobs per batch. A batch ends with one client idle; at 50 jobs or
/// more that tail stays a small part of the throughput.
const BATCH: usize = 50;
/// Family calls between job batches.
const EVERY: usize = 9;
/// Repetitions of each timed traced probe.
const PROBE_REPS: usize = 3;
/// Seconds of paired untraced/traced steps in the traced run.
const PAIRED_SECONDS: f64 = 3.0;
/// Jobs whose materialization and snapshot the traced run times.
const PROBE_JOBS: usize = 32;

/// One named workload: a simulation part and a service part. An
/// untraced run cycles through the families, one call at a time, and
/// runs a batch of [`BATCH`] jobs after every [`EVERY`] calls, in whole
/// passes, until `--seconds` have gone and at least [`MIN_JOBS`] jobs
/// have run. Both parts are sampled evenly over the whole run, so a slow
/// spell of the host lands on a few samples of each, and the medians
/// see past it.
struct Workload {
    name: &'static str,
    /// Application and precision of the simulation part.
    sim: SimApp,
    /// `(nx, ny)` of the simulation part.
    dims: (usize, usize),
    layout: Layout,
}

/// The simulation parts the workloads use.
enum SimApp {
    AirfoilDp,
    VolnaSp,
}

const WORKLOADS: [Workload; 2] = [
    // dats and maps fit in a core's L2
    Workload {
        name: "volna_8k_soa",
        sim: SimApp::VolnaSp,
        dims: (64, 64),
        layout: Layout::Soa,
    },
    // the simulation part runs on the mix's medium Airfoil mesh
    Workload {
        name: "serve_mix",
        sim: SimApp::AirfoilDp,
        dims: (150, 75),
        layout: Layout::Aos,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.sim {
        SimApp::AirfoilDp => run::<airfoil::Airfoil<f64>>(&args),
        SimApp::VolnaSp => run::<volna::Volna<f32>>(&args),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run<A: App>(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let team = host::nproc();
    let prov = host::provenance(&[
        ("workload", report::json_str(w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("mesh", format!("[{}, {}]", w.dims.0, w.dims.1)),
        (
            "precision",
            report::json_str(if A::R::BYTES == 8 { "dp" } else { "sp" }),
        ),
        ("layout", report::json_str(&format!("{:?}", w.layout))),
        ("team", team.to_string()),
        ("lanes", sim::lanes::<A::R>().to_string()),
        ("block", sim::BLOCK.to_string()),
        ("serve_pools", serve::POOLS.to_string()),
        ("serve_team", serve::POOL_TEAM.to_string()),
    ]);
    println!("provenance: {prov}");
    let mix = serve::Mix::new(args.seed);
    let mut out = Outcome::default();
    if args.trace {
        traced::<A>(args, team, &mix, &prov, &mut out)?;
        out.render(&report::per_layer())
    } else {
        untraced::<A>(args, team, &mix, &mut out);
        out.render(&report::end_to_end())
    }
}

fn untraced<A: App>(args: &Args, team: usize, mix: &serve::Mix, out: &mut Outcome) {
    let w = args.workload;
    let (nx, ny) = w.dims;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // free the previous set-up before timing the next
        drop(kept.take());
        let t0 = Instant::now();
        let prepared = sim::setup::<A>(nx, ny, w.layout, args.seed, team, None);
        let service = serve::setup(mix);
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((prepared, service));
    }
    println!("setup_s: {}", stats::describe(&setups, "s"));
    out.set("setup_s", stats::median(&setups));
    let (mut prepared, service) = kept.expect("SETUPS >= 1");
    let mut timer = sim::Timer::new(&mut prepared);
    let refs = mix.references();
    let mut res = serve::LoopResult::default();
    let mut rss = None;
    let start = Instant::now();
    let mut calls = 0;
    // whole passes, so every family has the same number of samples
    while calls % FAMILIES.len() != 0
        || start.elapsed().as_secs_f64() < args.seconds
        || res.jobs.len() < MIN_JOBS
    {
        timer.sample(FAMILIES[calls % FAMILIES.len()], out);
        calls += 1;
        if calls % EVERY == 0 {
            serve::closed_loop(&service, mix, res.jobs.len(), BATCH, None, &mut res);
            // at a point fixed by work, not by time: the service keeps
            // every finished job's snapshot, so a later reading would
            // grow with throughput
            if rss.is_none() && res.jobs.len() >= MIN_JOBS {
                rss = Some(host::peak_rss_mb());
            }
        }
    }
    timer.report(out);
    res.report(&refs, out);
    out.set("peak_rss_mb", rss.expect("the loop runs MIN_JOBS jobs"));
}

fn traced<A: App>(
    args: &Args,
    team: usize,
    mix: &serve::Mix,
    prov: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let w = args.workload;
    let (nx, ny) = w.dims;
    let t = Tracer::new();
    let ((mut prepared, service), _) = t.span("setup", || {
        (
            sim::setup::<A>(nx, ny, w.layout, args.seed, team, Some(&t)),
            t.span("serve.start", || serve::setup(mix)).0,
        )
    });
    let refs = t.span("serve.references", || mix.references()).0;

    layers::mesh::<A>(nx, ny, PROBE_REPS, &t, out);
    layers::plan(&prepared.s0, PROBE_REPS, &t, out);
    layers::families(&prepared.s0, team, &t, out);
    layers::paired(&mut prepared, PAIRED_SECONDS, &t, out);
    layers::pool_round(&prepared.ctx.pool, 2000, &t, out);
    layers::layout_shim(&prepared.s0, PROBE_REPS, &t, out);
    layers::dist(&prepared.s0, PROBE_REPS, &t, out);
    // the loops of the other application are not on this workload's path
    for l in report::AIRFOIL_LOOPS
        .iter()
        .chain(report::VOLNA_LOOPS.iter())
    {
        if !A::LOOPS.contains(l) {
            for f in report::KERNEL_FAMILIES {
                out.set(&format!("kernel.{l}.gbs.{f}"), 0.0);
            }
        }
    }
    drop(prepared);

    let mut res = serve::LoopResult::default();
    t.span("serve.closed_loop", || {
        serve::closed_loop(&service, mix, 0, MIN_JOBS, Some(&t), &mut res)
    });
    drop(service);
    let mut checked = Outcome::default();
    res.report(&refs, &mut checked);
    out.attempted += checked.attempted;
    out.failed += checked.failed;
    layers::serve(&res, mix, PROBE_JOBS, &t, out);

    let (gbs, _) = t.span("mem.triad", || host::triad_gbs(team, 5));
    out.set("mem.stream_gbs", gbs);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", w.name, args.seed));
    std::fs::write(&path, t.to_json(prov))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", t.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_core::ExecPool;

    /// Tiles of one tiled call on workload `w`'s mesh at `team`, and the
    /// redundant fraction.
    fn tiling<A: App>(w: &Workload, team: usize) -> (usize, f64) {
        let mut s = A::seeded(w.dims.0, w.dims.1, 1);
        s.set_layout(w.layout);
        let (_, report) = s.run_tiled(&ExecPool::new(team), team, None);
        (report.tiles, report.redundant_fraction())
    }

    #[test]
    fn every_workload_tiles_into_two_tiles_per_member() {
        for w in &WORKLOADS {
            for team in [1, 2, 4] {
                let (tiles, redundant) = match w.sim {
                    SimApp::AirfoilDp => tiling::<airfoil::Airfoil<f64>>(w, team),
                    SimApp::VolnaSp => tiling::<volna::Volna<f32>>(w, team),
                };
                assert!(tiles >= 2 * team, "{} team {team}: {tiles} tiles", w.name);
                assert!(redundant > 0.0, "{} team {team}: no fringe", w.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(spec.matches("\"why\": ").count(), WORKLOADS.len());
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {}", w.name);
        }
    }
}
