//! The traced run's per-layer probes. Every probe calls a layer's public
//! functions from here, inside a span; nothing is read back from the
//! program's own instrumentation except `Recorder` rows of the unfused
//! families (per-loop bytes and seconds), fusion statistics, halo-wait
//! rows and the tiled executor's `TileReport`.

use std::collections::BTreeMap;
use std::time::Instant;

use ump_color::PlanInputs;
use ump_core::{distribute, ExecPool, Layout, PlanCache, Recorder, Scheme};
use ump_lazy::TileReport;
use ump_minimpi::Universe;
use ump_part::rcb;
use ump_serve::JobState;

use crate::report::{Outcome, FAMILIES, KERNEL_FAMILIES, POOLED};
use crate::serve::{LoopResult, Mix};
use crate::sim::{call, steps_per_call, App, Ctx, Prepared, Reference, BLOCK, TILE_STEPS};
use crate::stats::median;
use crate::trace::Tracer;

/// Ranks of the distributed family.
const RANKS: usize = 2;

/// Median of `reps` timed calls of `f`, each in a span, in ms.
fn timed_ms(t: &Tracer, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| t.span(name, &mut f).1 * 1e3).collect();
    median(&xs)
}

/// Mesh generation and the lane-locality renumbering.
pub fn mesh<A: App>(nx: usize, ny: usize, reps: usize, t: &Tracer, out: &mut Outcome) {
    let mut meshes = Vec::new();
    out.set(
        "mesh.generate_ms",
        timed_ms(t, "mesh.generate", reps, || {
            meshes.push(A::generate(nx, ny))
        }),
    );
    out.set(
        "mesh.renumber_ms",
        timed_ms(t, "mesh.renumber", reps, || {
            let mut m = meshes.pop().expect("one mesh per rep");
            ump_mesh::renumber::lane_localize_edges(&mut m);
        }),
    );
}

/// Cold plan build of the largest indirect loop (the edge loop that
/// increments through `edge2cell`) and its coloring.
pub fn plan<A: App>(s0: &A, reps: usize, t: &Tracer, out: &mut Outcome) {
    let mesh = s0.mesh();
    let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], BLOCK);
    let mut plan = None;
    out.set(
        "plan.build_ms",
        timed_ms(t, "plan.build", reps, || {
            let cache = PlanCache::new();
            plan = Some(cache.get(Scheme::TwoLevel, &["edge2cell"], &inputs));
        }),
    );
    let plan = plan.expect("reps >= 1");
    let p = plan.two_level();
    out.set("plan.block_colors", f64::from(p.block_colors.n_colors));
    out.set(
        "plan.max_elem_colors",
        f64::from(p.n_elem_colors.iter().copied().max().unwrap_or(0)),
    );
}

/// Two calls of every family from the start state on a fresh pool and
/// plan cache, each checked against `step_seq` and recorded: the plan
/// cache's builds and hits, dispatch rounds per step, per-loop GB/s of
/// the unfused families, fusion savings, the tiled executor's report
/// and the distributed family's halo wait. All but the GB/s and the
/// halo wait are counts that repeat exactly for a seed.
pub fn families<A: App>(s0: &A, team: usize, t: &Tracer, out: &mut Outcome) {
    let ctx = Ctx::new(team);
    let ref1 = Reference::new(s0, 1);
    let ref_tiled = Reference::new(s0, TILE_STEPS);
    let recs: BTreeMap<&str, Recorder> = FAMILIES.iter().map(|&f| (f, Recorder::new())).collect();
    let mut rounds = BTreeMap::new();
    let mut tile: Option<TileReport> = None;
    let mut work = s0.clone();
    const PASSES: usize = 2;
    for _ in 0..PASSES {
        for f in FAMILIES {
            work.restore(s0);
            let rec = &recs[f];
            let r0 = ctx.pool.dispatch_rounds();
            let (hist, _) = t.span(&format!("family.{f}"), || {
                if f == "tiled" {
                    let (h, report) = work.run_tiled(&ctx.pool, ctx.team, Some(rec));
                    tile = Some(report);
                    h
                } else {
                    call(f, &mut work, &ctx, Some(rec))
                }
            });
            let per_step = (ctx.pool.dispatch_rounds() - r0) as f64 / steps_per_call(f) as f64;
            rounds.insert(f, per_step);
            let ok = if f == "tiled" {
                ref_tiled.matches(work.primary(), &hist, true)
            } else {
                ref1.matches(work.primary(), &hist, false)
            };
            out.check(ok);
        }
    }
    out.set("plan.builds", ctx.cache.builds() as f64);
    out.set("plan.hits", ctx.cache.hits() as f64);
    for f in POOLED {
        out.set(&format!("pool.rounds_per_step.{f}"), rounds[f]);
    }
    for f in KERNEL_FAMILIES {
        for l in A::LOOPS {
            let gbs = recs[f].get(l).map_or(0.0, |s| s.gb_per_s());
            out.set(&format!("kernel.{l}.gbs.{f}"), gbs);
        }
    }
    let (mut saved, mut bytes, mut steps) = (0usize, 0.0f64, 0usize);
    for (_, s) in recs["fused"].fusion_report() {
        saved += s.rounds_saved();
        bytes += s.bytes_saved;
        steps += s.steps;
    }
    let steps = steps.max(1) as f64;
    out.set("lazy.rounds_saved_per_step", saved as f64 / steps);
    out.set("lazy.bytes_not_restreamed_per_step", bytes / steps);
    let tile = tile.expect("tiled ran");
    out.set("tile.redundant_frac", tile.redundant_fraction());
    out.set(
        "tile.copy_mb",
        (tile.copy_in_bytes + tile.copy_out_bytes) / (1 << 20) as f64,
    );
    out.set("tile.epochs_per_call", tile.epochs as f64);
    out.set("tile.rounds_per_call", tile.rounds as f64);
    out.set("tile.tiles_per_call", tile.tiles as f64);
    // halo rows of both ranks accumulate in one recorder: report the
    // mean wait per rank and step
    let halo: f64 = recs["mpi_fused"]
        .report()
        .iter()
        .filter(|(name, _)| name.starts_with("halo["))
        .map(|(_, s)| s.seconds)
        .sum();
    out.set("dist.halo_wait_ms", halo * 1e3 / (RANKS * PASSES) as f64);
}

/// Paired steps from the start state, repeated for `seconds` (at least
/// three times): `seq` untraced, `seq` with a `Recorder` inside a span,
/// and `threaded` untraced. Sets the parallel efficiency
/// `seq ÷ (team × threaded)` and the tracing overhead
/// `traced ÷ untraced − 1`, from medians.
pub fn paired<A: App>(p: &mut Prepared<A>, seconds: f64, t: &Tracer, out: &mut Outcome) {
    let ref1 = Reference::new(&p.s0, 1);
    let (mut seq, mut traced, mut thr) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while seq.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        for (f, rec, xs) in [
            ("seq", false, &mut seq),
            ("seq", true, &mut traced),
            ("threaded", false, &mut thr),
        ] {
            p.work.restore(&p.s0);
            let t0 = Instant::now();
            let hist = if rec {
                let r = Recorder::new();
                t.span("family.seq.recorded", || {
                    call(f, &mut p.work, &p.ctx, Some(&r))
                })
                .0
            } else {
                call(f, &mut p.work, &p.ctx, None)
            };
            xs.push(t0.elapsed().as_secs_f64());
            out.check(ref1.matches(p.work.primary(), &hist, false));
        }
    }
    let team = p.ctx.team as f64;
    out.set("exec.parallel_eff", median(&seq) / (team * median(&thr)));
    out.set("trace.overhead_frac", median(&traced) / median(&seq) - 1.0);
}

/// Median of `n` no-op dispatch rounds on the pool, in µs.
pub fn pool_round(pool: &ExecPool, n: usize, t: &Tracer, out: &mut Outcome) {
    let (xs, _) = t.span("pool.noop_rounds", || {
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                pool.run_round(pool.n_threads(), 0, 1, &|i| {
                    std::hint::black_box(i);
                });
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    out.set("pool.round_us", median(&xs));
}

/// One AoS↔SoA round trip of every dat, starting from the workload's
/// layout — what `step_on` does around each non-fused step when the
/// layout is not AoS.
pub fn layout_shim<A: App>(s0: &A, reps: usize, t: &Tracer, out: &mut Outcome) {
    let home = s0.layout();
    let away = if home == Layout::Aos {
        Layout::Soa
    } else {
        Layout::Aos
    };
    let mut s = s0.clone();
    out.set(
        "layout.shim_ms",
        timed_ms(t, "layout.round_trip", reps, || {
            s.set_layout(away);
            s.set_layout(home);
        }),
    );
}

/// The distributed family's per-call pieces: partition, distribute, the
/// rank universe with its pools, rank set-up and assembly.
pub fn dist<A: App>(s0: &A, reps: usize, t: &Tracer, out: &mut Outcome) {
    let mut sim = s0.clone();
    sim.set_layout(Layout::Aos);
    let mesh = sim.mesh();
    let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
    let mut part = None;
    out.set(
        "dist.partition_ms",
        timed_ms(t, "dist.partition", reps, || {
            part = Some(rcb(&pts, RANKS as u32));
        }),
    );
    let part = part.expect("reps >= 1");
    let mut locals = Vec::new();
    out.set(
        "dist.distribute_ms",
        timed_ms(t, "dist.distribute", reps, || {
            locals = distribute(mesh, &part);
        }),
    );
    out.set(
        "dist.spawn_ms",
        timed_ms(t, "dist.spawn", reps, || {
            Universe::new(RANKS).run(|_comm| {
                let cache = PlanCache::new();
                let pool = ExecPool::new(2);
                std::hint::black_box((&cache, &pool));
            });
        }),
    );
    let (setup, assemble): (Vec<f64>, Vec<f64>) =
        (0..reps).map(|_| sim.rank_round_trip(&locals, t)).unzip();
    out.set("dist.rank_setup_ms", median(&setup) * 1e3);
    out.set("dist.assemble_ms", median(&assemble) * 1e3);
}

/// Service layer figures of a traced closed loop, plus per-job state
/// materialization and snapshot encoding over the first `n` jobs of
/// the mix (means, since the mix is 7 small to 1 medium).
pub fn serve(res: &LoopResult, mix: &Mix, n: usize, t: &Tracer, out: &mut Outcome) {
    let done: Vec<_> = res.jobs.iter().filter(|j| j.completed()).collect();
    let ms = |f: &dyn Fn(&crate::serve::JobRecord) -> f64| -> f64 {
        median(&done.iter().map(|j| f(j) * 1e3).collect::<Vec<_>>())
    };
    out.set("serve.submit_us", ms(&|j| j.submit) * 1e3);
    out.set(
        "serve.first_frame_ms",
        ms(&|j| j.first_frame.unwrap_or(j.latency)),
    );
    out.set("serve.busy_ms", ms(&|j| j.busy));
    out.set("serve.wait_ms", ms(&|j| j.latency - j.busy));
    out.set(
        "serve.rejected",
        res.jobs.iter().filter(|j| j.rejected()).count() as f64,
    );
    let (mut mat, mut snap) = (0.0, 0.0);
    for k in 0..n {
        let spec = mix.spec(k);
        let (state, dt) = t.span_req("serve.materialize", Some(k as u64), || JobState::new(spec));
        mat += dt;
        let (bytes, dt) = t.span_req("serve.snapshot", Some(k as u64), || state.snapshot());
        std::hint::black_box(bytes);
        snap += dt;
    }
    out.set("serve.materialize_ms", mat * 1e3 / n as f64);
    out.set("serve.snapshot_ms", snap * 1e3 / n as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_apps::{airfoil, volna};

    /// The count metrics of [`families`] on a small mesh.
    fn counts<A: App>(nx: usize, ny: usize, layout: Layout, seed: u64) -> BTreeMap<String, f64> {
        let mut s0 = A::seeded(nx, ny, seed);
        s0.set_layout(layout);
        let mut out = Outcome::default();
        families(&s0, 2, &Tracer::new(), &mut out);
        assert_eq!(out.failed, 0, "every family matches step_seq");
        out.metrics
            .into_iter()
            .filter(|(k, _)| {
                k.starts_with("plan.")
                    || k.starts_with("pool.rounds_per_step.")
                    || k.starts_with("tile.")
                    || k.starts_with("lazy.")
            })
            .collect()
    }

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let a = counts::<airfoil::Airfoil<f64>>(64, 32, Layout::Aos, 11);
        let b = counts::<airfoil::Airfoil<f64>>(64, 32, Layout::Aos, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2 + 6 + 5 + 2);
        assert!(a["plan.builds"] >= 1.0 && a["plan.hits"] >= 1.0);
        assert!(a["pool.rounds_per_step.threaded"] >= 1.0);
        let v = counts::<volna::Volna<f32>>(40, 30, Layout::Soa, 11);
        assert_eq!(v, counts::<volna::Volna<f32>>(40, 30, Layout::Soa, 11));
    }
}
