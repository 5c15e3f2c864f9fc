//! The simulation side of a workload: one application state, the nine
//! timed families, and the correctness check of every timed call
//! against a `step_seq` run of the same steps.

use std::collections::BTreeMap;
use std::time::Instant;

use ump_apps::{airfoil, volna};
use ump_core::{assemble_owned, Backend, ExecPool, Layout, LocalMesh, OpDat, PlanCache, Recorder};
use ump_lazy::TileReport;
use ump_mesh::Mesh2d;
use ump_simd::Real;

use crate::report::{Outcome, FAMILIES};
use crate::stats::{describe, median};
use crate::trace::{maybe, Tracer};

/// Colored-block size of every simulation family.
pub const BLOCK: usize = 1024;
/// Timesteps per `tiled` call.
pub const TILE_STEPS: usize = 4;
/// Blocks per tile at most, as in the tiling baseline (`tile_cells =
/// 16 × block`).
pub const TILE_BLOCKS: usize = 16;

/// Cells per tile on a mesh of `n_cells` cells at `team`: the baseline's
/// [`TILE_BLOCKS`] blocks, fewer where the mesh would then give less
/// than two tiles per team member, so every member sweeps tiles and
/// every tile recomputes a fringe.
pub fn tile_cells(n_cells: usize, team: usize) -> usize {
    let blocks = n_cells.div_ceil(BLOCK);
    BLOCK * (blocks / (2 * team.max(1))).clamp(1, TILE_BLOCKS)
}

/// Selects one dat's storage from a rank state.
type DatPick<S, R> = fn(&S) -> &[R];

/// One application at one precision, as the benchmark drives it.
pub trait App: Clone + Send + Sync {
    /// Working precision.
    type R: Real;
    /// Kernel names in program order.
    const LOOPS: &'static [&'static str];
    /// Seeded initial state on an `nx × ny` mesh (mesh generation and
    /// the lane-locality renumbering included).
    fn seeded(nx: usize, ny: usize, seed: u64) -> Self;
    /// Storage layout of the dats.
    fn layout(&self) -> Layout;
    /// Convert every dat to `to`.
    fn set_layout(&mut self, to: Layout);
    /// One step through the registry dispatcher.
    fn step_on(
        &mut self,
        b: Backend,
        pool: &ExecPool,
        cache: &PlanCache,
        team: usize,
        rec: Option<&Recorder>,
    ) -> f64;
    /// One scalar sequential step (AoS storage only).
    fn step_seq(&mut self) -> f64;
    /// One [`TILE_STEPS`]-step tiled call.
    fn run_tiled(
        &mut self,
        pool: &ExecPool,
        team: usize,
        rec: Option<&Recorder>,
    ) -> (Vec<f64>, TileReport);
    /// The dats a step changes.
    fn evolving(&self) -> Vec<&OpDat<Self::R>>;
    /// Mutable [`evolving`](App::evolving).
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<Self::R>>;
    /// The solution dat the check compares.
    fn primary(&self) -> &OpDat<Self::R>;
    /// The mesh.
    fn mesh(&self) -> &Mesh2d;
    /// Generate the bare mesh of an `nx × ny` case.
    fn generate(nx: usize, ny: usize) -> Mesh2d;
    /// Build every rank's state from this (AoS) global state, then
    /// assemble the evolving dats back from the rank pieces, as
    /// `step_mpi_fused` does around its step. Returns the seconds of
    /// each phase, traced as `dist.rank_setup` and `dist.assemble`.
    fn rank_round_trip(&self, locals: &[LocalMesh], t: &Tracer) -> (f64, f64);

    /// Copy the evolving dats of `from` into `self` without reallocating.
    fn restore(&mut self, from: &Self) {
        for (d, s) in self.evolving_mut().into_iter().zip(from.evolving()) {
            d.layout = s.layout;
            d.data.clear();
            d.data.extend_from_slice(&s.data);
        }
    }
}

impl App for airfoil::Airfoil<f64> {
    type R = f64;
    const LOOPS: &'static [&'static str] = &crate::report::AIRFOIL_LOOPS;
    fn seeded(nx: usize, ny: usize, seed: u64) -> Self {
        airfoil::Airfoil::seeded(nx, ny, seed)
    }
    fn layout(&self) -> Layout {
        airfoil::Airfoil::layout(self)
    }
    fn set_layout(&mut self, to: Layout) {
        airfoil::Airfoil::set_layout(self, to)
    }
    fn step_on(
        &mut self,
        b: Backend,
        pool: &ExecPool,
        cache: &PlanCache,
        team: usize,
        rec: Option<&Recorder>,
    ) -> f64 {
        airfoil::drivers::step_on(b, self, pool, cache, team, BLOCK, rec)
    }
    fn step_seq(&mut self) -> f64 {
        airfoil::drivers::step_seq(self, None)
    }
    fn run_tiled(
        &mut self,
        pool: &ExecPool,
        team: usize,
        rec: Option<&Recorder>,
    ) -> (Vec<f64>, TileReport) {
        airfoil::drivers::run_tiled_report_on::<f64, 1>(
            self,
            pool,
            team,
            TILE_STEPS,
            tile_cells(self.primary().set_size, team),
            BLOCK,
            rec,
        )
    }
    fn evolving(&self) -> Vec<&OpDat<f64>> {
        vec![&self.q, &self.qold, &self.adt, &self.res]
    }
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<f64>> {
        vec![&mut self.q, &mut self.qold, &mut self.adt, &mut self.res]
    }
    fn primary(&self) -> &OpDat<f64> {
        &self.q
    }
    fn mesh(&self) -> &Mesh2d {
        &self.case.mesh
    }
    fn generate(nx: usize, ny: usize) -> Mesh2d {
        ump_mesh::generators::quad_channel(nx, ny).mesh
    }
    fn rank_round_trip(&self, locals: &[LocalMesh], t: &Tracer) -> (f64, f64) {
        use airfoil::mpi::{rank_state_from_global, RankState};
        let (ranks, setup) = t.span("dist.rank_setup", || {
            locals
                .iter()
                .map(|l| rank_state_from_global(&self.case, l.clone(), self))
                .collect::<Vec<RankState<f64>>>()
        });
        let n = self.q.set_size;
        let (_, assemble) = t.span("dist.assemble", || {
            let dats: [(DatPick<RankState<f64>, f64>, usize); 4] = [
                (|s| &s.q.data, 4),
                (|s| &s.qold.data, 4),
                (|s| &s.adt.data, 1),
                (|s| &s.res.data, 4),
            ];
            for (pick, dim) in dats {
                let parts: Vec<_> = ranks
                    .iter()
                    .map(|s| {
                        (
                            pick(s),
                            s.local.cell_global.as_slice(),
                            s.local.n_owned_cells,
                        )
                    })
                    .collect();
                std::hint::black_box(assemble_owned(&parts, n, dim));
            }
        });
        (setup, assemble)
    }
}

impl App for volna::Volna<f32> {
    type R = f32;
    const LOOPS: &'static [&'static str] = &crate::report::VOLNA_LOOPS;
    fn seeded(nx: usize, ny: usize, seed: u64) -> Self {
        volna::Volna::seeded(nx, ny, seed)
    }
    fn layout(&self) -> Layout {
        volna::Volna::layout(self)
    }
    fn set_layout(&mut self, to: Layout) {
        volna::Volna::set_layout(self, to)
    }
    fn step_on(
        &mut self,
        b: Backend,
        pool: &ExecPool,
        cache: &PlanCache,
        team: usize,
        rec: Option<&Recorder>,
    ) -> f64 {
        volna::drivers::step_on(b, self, pool, cache, team, BLOCK, rec)
    }
    fn step_seq(&mut self) -> f64 {
        volna::drivers::step_seq(self, None)
    }
    fn run_tiled(
        &mut self,
        pool: &ExecPool,
        team: usize,
        rec: Option<&Recorder>,
    ) -> (Vec<f64>, TileReport) {
        volna::drivers::run_tiled_report_on::<f32, 1>(
            self,
            pool,
            team,
            TILE_STEPS,
            tile_cells(self.primary().set_size, team),
            BLOCK,
            rec,
        )
    }
    fn evolving(&self) -> Vec<&OpDat<f32>> {
        vec![&self.w, &self.w_old, &self.w1, &self.res, &self.eflux]
    }
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<f32>> {
        vec![
            &mut self.w,
            &mut self.w_old,
            &mut self.w1,
            &mut self.res,
            &mut self.eflux,
        ]
    }
    fn primary(&self) -> &OpDat<f32> {
        &self.w
    }
    fn mesh(&self) -> &Mesh2d {
        &self.case.mesh
    }
    fn generate(nx: usize, ny: usize) -> Mesh2d {
        ump_mesh::generators::tri_coastal(nx, ny).mesh
    }
    fn rank_round_trip(&self, locals: &[LocalMesh], t: &Tracer) -> (f64, f64) {
        use volna::mpi::{rank_state_from_global, RankState};
        let (ranks, setup) = t.span("dist.rank_setup", || {
            locals
                .iter()
                .map(|l| rank_state_from_global(&self.case, l.clone(), self))
                .collect::<Vec<RankState<f32>>>()
        });
        let n = self.w.set_size;
        let (_, assemble) = t.span("dist.assemble", || {
            let dats: [DatPick<RankState<f32>, f32>; 4] = [
                |s| &s.w.data,
                |s| &s.w_old.data,
                |s| &s.w1.data,
                |s| &s.res.data,
            ];
            for pick in dats {
                let parts: Vec<_> = ranks
                    .iter()
                    .map(|s| {
                        (
                            pick(s),
                            s.local.cell_global.as_slice(),
                            s.local.n_owned_cells,
                        )
                    })
                    .collect();
                std::hint::black_box(assemble_owned(&parts, n, 4));
            }
        });
        (setup, assemble)
    }
}

/// Lanes of one 256-bit register at precision `R` (the paper's AVX
/// shape): 4 in DP, 8 in SP.
pub fn lanes<R: Real>() -> usize {
    32 / R::BYTES
}

/// The registry entry of a step-at-a-time family (`None` for `tiled`,
/// which runs multi-step calls).
pub fn backend(family: &str, lanes: usize) -> Option<Backend> {
    Some(match family {
        "seq" => Backend::Seq,
        "threaded" => Backend::Threaded,
        "simd" => Backend::Simd { lanes },
        "simd_threaded" => Backend::SimdThreaded { lanes },
        "simt" => Backend::Simt,
        "fused" => Backend::Fused,
        "fused_simd" => Backend::FusedSimd { lanes },
        "mpi_fused" => Backend::MpiFused,
        "tiled" => return None,
        other => panic!("unknown family {other}"),
    })
}

/// Timesteps one call of `family` advances.
pub fn steps_per_call(family: &str) -> usize {
    if family == "tiled" {
        TILE_STEPS
    } else {
        1
    }
}

/// What a family call runs on: the persistent pool and plan cache.
pub struct Ctx {
    /// Team of `team` members.
    pub pool: ExecPool,
    /// Plans shared by every family of the run.
    pub cache: PlanCache,
    /// Team size passed to every pooled call.
    pub team: usize,
}

impl Ctx {
    /// Start a pool of `team` members and an empty plan cache.
    pub fn new(team: usize) -> Ctx {
        Ctx {
            pool: ExecPool::new(team),
            cache: PlanCache::new(),
            team,
        }
    }
}

/// One call of `family`; returns the per-step reduction values.
pub fn call<A: App>(family: &str, sim: &mut A, ctx: &Ctx, rec: Option<&Recorder>) -> Vec<f64> {
    match backend(family, lanes::<A::R>()) {
        Some(b) => vec![sim.step_on(b, &ctx.pool, &ctx.cache, ctx.team, rec)],
        None => sim.run_tiled(&ctx.pool, ctx.team, rec).0,
    }
}

/// The state and reductions of `steps` `step_seq` calls from a start state.
pub struct Reference<R: Real> {
    primary: OpDat<R>,
    history: Vec<f64>,
}

impl<R: Real> Reference<R> {
    /// Run `steps` sequential steps from `s0` (on an AoS copy).
    pub fn new<A: App<R = R>>(s0: &A, steps: usize) -> Reference<R> {
        let mut s = s0.clone();
        s.set_layout(Layout::Aos);
        let history = (0..steps).map(|_| s.step_seq()).collect();
        Reference {
            primary: s.primary().clone(),
            history,
        }
    }

    /// Whether a family's result matches: state within the precision's
    /// tolerance (bit-identical when `exact`), reductions within it.
    pub fn matches(&self, primary: &OpDat<R>, history: &[f64], exact: bool) -> bool {
        let states = if exact {
            bits_equal(primary, &self.primary)
        } else {
            primary.max_abs_diff(&self.primary) <= state_tol::<R>(&self.primary)
        };
        states
            && history.len() == self.history.len()
            && history
                .iter()
                .zip(&self.history)
                .all(|(&v, &r)| close::<R>(v, r))
    }
}

/// Absolute state tolerance: 1e-12 in DP (the conformance bound); in SP,
/// where reassociated sums differ by rounding, 16 ulps of the largest
/// reference magnitude.
fn state_tol<R: Real>(reference: &OpDat<R>) -> f64 {
    if R::BYTES == 8 {
        1e-12
    } else {
        let scale = reference
            .data
            .iter()
            .fold(0.0f64, |m, v| m.max(v.to_f64().abs()));
        16.0 * f64::from(f32::EPSILON) * scale
    }
}

/// Reduction tolerance, on the same terms as [`state_tol`].
fn close<R: Real>(v: f64, r: f64) -> bool {
    if R::BYTES == 8 {
        (v - r).abs() <= 1e-12 * (1.0 + r.abs())
    } else {
        (v - r).abs() <= 16.0 * f64::from(f32::EPSILON) * r.abs()
    }
}

/// Element-wise bit equality across layouts.
fn bits_equal<R: Real>(a: &OpDat<R>, b: &OpDat<R>) -> bool {
    (a.set_size, a.dim) == (b.set_size, b.dim)
        && (0..a.set_size).all(|e| {
            (0..a.dim).all(|c| a.at(e, c).to_f64().to_bits() == b.at(e, c).to_f64().to_bits())
        })
}

/// A simulation workload's state after set-up.
pub struct Prepared<A: App> {
    /// Start state of every timed call.
    pub s0: A,
    /// State the timed calls advance.
    pub work: A,
    /// Pool and plans.
    pub ctx: Ctx,
}

/// Build the seeded state in `layout`, start the pool, and make the
/// first call of every family (plan builds, chain recording, tile
/// inspection).
pub fn setup<A: App>(
    nx: usize,
    ny: usize,
    layout: Layout,
    seed: u64,
    team: usize,
    t: Option<&Tracer>,
) -> Prepared<A> {
    let mut s0 = maybe(t, "sim.seeded", || A::seeded(nx, ny, seed));
    maybe(t, "layout.convert", || s0.set_layout(layout));
    let ctx = maybe(t, "pool.start", || Ctx::new(team));
    let mut work = s0.clone();
    for f in FAMILIES {
        work.restore(&s0);
        maybe(t, &format!("first_call.{f}"), || {
            call(f, &mut work, &ctx, None)
        });
    }
    Prepared { s0, work, ctx }
}

/// Times calls of the families, each from the start state, and checks
/// every call against `step_seq` over the same steps.
pub struct Timer<'a, A: App> {
    p: &'a mut Prepared<A>,
    ref1: Reference<A::R>,
    ref_tiled: Reference<A::R>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl<'a, A: App> Timer<'a, A> {
    /// Compute the references (outside any timed region).
    pub fn new(p: &'a mut Prepared<A>) -> Timer<'a, A> {
        let ref1 = Reference::new(&p.s0, 1);
        let ref_tiled = Reference::new(&p.s0, TILE_STEPS);
        Timer {
            p,
            ref1,
            ref_tiled,
            samples: BTreeMap::new(),
        }
    }

    /// One timed, checked call of `family`.
    pub fn sample(&mut self, family: &'static str, out: &mut Outcome) {
        let p = &mut *self.p;
        p.work.restore(&p.s0);
        let t = Instant::now();
        let hist = call(family, &mut p.work, &p.ctx, None);
        let dt = t.elapsed().as_secs_f64();
        self.samples
            .entry(family)
            .or_default()
            .push(dt * 1e3 / steps_per_call(family) as f64);
        let ok = if family == "tiled" {
            self.ref_tiled.matches(p.work.primary(), &hist, true)
        } else {
            self.ref1.matches(p.work.primary(), &hist, false)
        };
        if !ok {
            println!("check failed: {family} differs from step_seq");
        }
        out.check(ok);
    }

    /// Set `step_ms.<family>` (median ms per timestep) and print each
    /// family's sample summary.
    pub fn report(&self, out: &mut Outcome) {
        for (f, xs) in &self.samples {
            println!("step_ms.{f}: {}", describe(xs, "ms"));
            out.set(&format!("step_ms.{f}"), median(xs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_matches_step_seq() {
        let mut air = setup::<airfoil::Airfoil<f64>>(24, 12, Layout::Aos, 5, 2, None);
        let mut out = Outcome::default();
        let mut timer = Timer::new(&mut air);
        for f in FAMILIES {
            timer.sample(f, &mut out);
        }
        timer.report(&mut out);
        let mut vol = setup::<volna::Volna<f32>>(16, 12, Layout::Soa, 5, 2, None);
        let mut timer = Timer::new(&mut vol);
        for f in FAMILIES.iter().chain(FAMILIES.iter()) {
            timer.sample(f, &mut out);
        }
        timer.report(&mut out);
        assert_eq!(
            (out.attempted, out.failed),
            (27, 0),
            "3 passes of 9 families"
        );
        assert_eq!(out.metrics.len(), FAMILIES.len());
    }

    #[test]
    fn the_check_catches_a_wrong_state() {
        let p = setup::<airfoil::Airfoil<f64>>(24, 12, Layout::Aos, 5, 1, None);
        let r = Reference::new(&p.s0, 1);
        let mut s = p.s0.clone();
        let h = vec![s.step_seq()];
        assert!(r.matches(s.primary(), &h, true));
        s.q.data[7] += 1e-9;
        assert!(!r.matches(s.primary(), &h, false));
        assert!(!r.matches(s.primary(), &[h[0] * 1.001], false));
    }
}
