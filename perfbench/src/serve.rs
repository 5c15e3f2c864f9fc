//! The service side of a workload: `ump_serve` with [`POOLS`] pools ×
//! team [`POOL_TEAM`] under a closed loop of [`CLIENTS`] clients, each
//! submitting its next job only when the previous one has completed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ump_apps::{airfoil, volna};
use ump_core::Backend;
use ump_mesh::SplitMix64;
use ump_serve::{App, JobSpec, JobStatus, Service, ServiceConfig};

use crate::report::Outcome;
use crate::stats::{describe, median, quantile};
use crate::trace::Tracer;

/// Service pools.
pub const POOLS: usize = 2;
/// Team of each pool.
pub const POOL_TEAM: usize = 1;
/// Timesteps of every job.
pub const JOB_STEPS: u64 = 10;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Distinct seeded initial conditions per mesh.
const N_IC: usize = 4;
/// Backends jobs cycle through.
const BACKENDS: [Backend; 4] = [
    Backend::Seq,
    Backend::Threaded,
    Backend::Fused,
    Backend::Simd { lanes: 4 },
];

/// `(nx, ny)` of a small and a medium job of `app`.
fn dims(app: App, medium: bool) -> (usize, usize) {
    match (app, medium) {
        (App::Airfoil, false) => (48, 24),
        (App::Airfoil, true) => (150, 75),
        (App::Volna, false) => (20, 14),
        (App::Volna, true) => (60, 42),
    }
}

/// Applications jobs alternate between.
const APPS: [App; 2] = [App::Airfoil, App::Volna];

/// The deterministic job sequence of one run.
pub struct Mix {
    ics: [u64; N_IC],
}

impl Mix {
    /// The mix with initial conditions drawn from `seed`.
    pub fn new(seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed ^ 0x5e27_e000);
        // seed 0 is the pristine case; keep every drawn seed non-zero
        Mix {
            ics: std::array::from_fn(|_| rng.next_u64() | 1),
        }
    }

    /// Job `k`: 1 in 8 medium, apps alternating per block of 8, backends
    /// cycling (shifted each block, so medium jobs meet every backend).
    pub fn spec(&self, k: usize) -> JobSpec {
        let medium = k % 8 == 7;
        let app = APPS[(k / 8) % APPS.len()];
        let (nx, ny) = dims(app, medium);
        let backend = BACKENDS[(k + k / 8) % BACKENDS.len()];
        JobSpec::new(app, nx, ny, backend, JOB_STEPS).with_seed(self.ics[(k / 3) % N_IC])
    }

    /// One job of every (app, size, backend) class.
    fn classes(&self) -> Vec<JobSpec> {
        let mut out = Vec::new();
        for app in APPS {
            for medium in [false, true] {
                let (nx, ny) = dims(app, medium);
                for b in BACKENDS {
                    out.push(JobSpec::new(app, nx, ny, b, JOB_STEPS).with_seed(self.ics[0]));
                }
            }
        }
        out
    }

    /// `step_seq` histories of every distinct (app, mesh, seed) the mix
    /// can submit — the reference each job's history must match.
    pub fn references(&self) -> HashMap<(App, usize, usize, u64), Vec<f64>> {
        let mut refs = HashMap::new();
        for app in APPS {
            for medium in [false, true] {
                let (nx, ny) = dims(app, medium);
                for &seed in &self.ics {
                    let hist = match app {
                        App::Airfoil => {
                            let mut s = airfoil::Airfoil::<f64>::seeded(nx, ny, seed);
                            (0..JOB_STEPS)
                                .map(|_| airfoil::drivers::step_seq(&mut s, None))
                                .collect()
                        }
                        App::Volna => {
                            let mut s = volna::Volna::<f64>::seeded(nx, ny, seed);
                            (0..JOB_STEPS)
                                .map(|_| volna::drivers::step_seq(&mut s, None))
                                .collect()
                        }
                    };
                    refs.insert((app, nx, ny, seed), hist);
                }
            }
        }
        refs
    }
}

/// Start the service and run one job of every class through it, so the
/// timed loop starts with every plan built.
pub fn setup(mix: &Mix) -> Service {
    let service = Service::new(ServiceConfig {
        pools: POOLS,
        team: POOL_TEAM,
        ..ServiceConfig::default()
    });
    for spec in mix.classes() {
        let out = service
            .submit(spec)
            .expect("an idle service admits a job")
            .wait();
        assert_eq!(out.status, JobStatus::Completed, "warm-up job {spec:?}");
    }
    service
}

/// One finished job as its client saw it.
pub struct JobRecord {
    spec: JobSpec,
    /// Submit → outcome, seconds.
    pub latency: f64,
    /// Submit call alone, seconds.
    pub submit: f64,
    /// Submit → first streamed frame, seconds (traced runs only).
    pub first_frame: Option<f64>,
    /// Pool-seconds the job's slices ran.
    pub busy: f64,
    status: Option<JobStatus>,
    history: Vec<f64>,
}

/// Results of closed-loop batches.
#[derive(Default)]
pub struct LoopResult {
    /// Every submission, in no particular order.
    pub jobs: Vec<JobRecord>,
    /// Wall time of the batches, seconds.
    pub wall: f64,
}

/// Run jobs `first..first + n` of the mix as a closed loop. With a
/// tracer, every job gets a `serve.job` span (request id = job index)
/// around `serve.submit` and `serve.wait` spans, and its first frame is
/// timed. Appends to `res`.
pub fn closed_loop(
    service: &Service,
    mix: &Mix,
    first: usize,
    n: usize,
    tracer: Option<&Tracer>,
    res: &mut LoopResult,
) {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let jobs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= first + n {
                            break;
                        }
                        let spec = mix.spec(k);
                        mine.push(match tracer {
                            None => run_job(service, spec),
                            Some(t) => {
                                t.span_req("serve.job", Some(k as u64), || {
                                    run_job_traced(service, spec, t, k as u64)
                                })
                                .0
                            }
                        });
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    res.wall += start.elapsed().as_secs_f64();
    res.jobs.extend(jobs);
}

fn run_job(service: &Service, spec: JobSpec) -> JobRecord {
    let t = Instant::now();
    let handle = service.submit(spec);
    let submit = t.elapsed().as_secs_f64();
    let (status, history, busy) = match handle {
        Ok(h) => {
            let o = h.wait();
            (Some(o.status), o.history, o.busy_seconds)
        }
        Err(_) => (None, Vec::new(), 0.0),
    };
    JobRecord {
        spec,
        latency: t.elapsed().as_secs_f64(),
        submit,
        first_frame: None,
        busy,
        status,
        history,
    }
}

fn run_job_traced(service: &Service, spec: JobSpec, t: &Tracer, k: u64) -> JobRecord {
    let t0 = Instant::now();
    let (handle, submit) = t.span_req("serve.submit", Some(k), || service.submit(spec));
    let mut first_frame = None;
    let (status, history, busy) = match handle {
        Ok(h) => {
            let (o, _) = t.span_req("serve.wait", Some(k), || {
                if h.frames().recv().is_ok() {
                    first_frame = Some(t0.elapsed().as_secs_f64());
                }
                h.wait()
            });
            (Some(o.status), o.history, o.busy_seconds)
        }
        Err(_) => (None, Vec::new(), 0.0),
    };
    JobRecord {
        spec,
        latency: t0.elapsed().as_secs_f64(),
        submit,
        first_frame,
        busy,
        status,
        history,
    }
}

impl JobRecord {
    /// Whether the job ran all its steps.
    pub fn completed(&self) -> bool {
        self.status == Some(JobStatus::Completed)
    }

    /// Whether admission refused the job.
    pub fn rejected(&self) -> bool {
        self.status.is_none()
    }
}

impl LoopResult {
    /// Check every job — admitted, `Completed`, history within 1e-12 of
    /// its `step_seq` reference — and set `jobs_per_s`, `job_p50_ms`
    /// and `job_p99_ms` over the completed jobs.
    pub fn report(&self, refs: &HashMap<(App, usize, usize, u64), Vec<f64>>, out: &mut Outcome) {
        let mut lat = Vec::with_capacity(self.jobs.len());
        for j in &self.jobs {
            let s = j.spec;
            let reference = &refs[&(s.app, s.nx, s.ny, s.seed)];
            let completed = j.status == Some(JobStatus::Completed);
            let ok = completed
                && j.history.len() == reference.len()
                && j.history
                    .iter()
                    .zip(reference)
                    .all(|(v, r)| (v - r).abs() <= 1e-12 * (1.0 + r.abs()));
            if !ok {
                println!("check failed: job {s:?} ended {:?}", j.status);
            }
            out.check(ok);
            if completed {
                lat.push(j.latency * 1e3);
            }
        }
        println!("job latency: {}", describe(&lat, "ms"));
        out.set("jobs_per_s", lat.len() as f64 / self.wall);
        out.set("job_p50_ms", median(&lat));
        out.set("job_p99_ms", quantile(&lat, 0.99));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seven_small_to_one_medium_and_cycles_backends() {
        let mix = Mix::new(3);
        let specs: Vec<JobSpec> = (0..64).map(|k| mix.spec(k)).collect();
        let medium = specs.iter().filter(|s| s.nx >= 60).count();
        assert_eq!(medium, 8);
        for b in BACKENDS {
            assert!(specs.iter().any(|s| s.backend == b && s.nx >= 60));
            assert!(specs.iter().any(|s| s.backend == b && s.nx < 60));
        }
        assert!(specs.iter().all(|s| s.validate().is_ok()));
        // the same seed gives the same jobs
        let again = Mix::new(3);
        assert!((0..64).all(|k| again.spec(k) == specs[k]));
    }

    #[test]
    fn closed_loop_jobs_match_their_references() {
        let mix = Mix::new(9);
        let refs = mix.references();
        let service = setup(&mix);
        let mut res = LoopResult::default();
        closed_loop(&service, &mix, 0, 10, None, &mut res);
        closed_loop(&service, &mix, 10, 14, None, &mut res);
        let mut out = Outcome::default();
        res.report(&refs, &mut out);
        assert_eq!((out.attempted, out.failed), (24, 0));
        assert!(out.metrics["jobs_per_s"] > 0.0);
    }
}
