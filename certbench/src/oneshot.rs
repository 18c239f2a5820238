//! The one-shot workloads, `fc-refine` and `conv-lp`: a whole
//! `certify_global` on one pinned Table I network, repeated for the run's
//! time budget and checked bit for bit against the recorded ε̄.

use itne_core::{certify_global, CertifyOptions};
use std::time::{Duration, Instant};

use crate::pinned::{pgd_under, OneShotSpec, Setup, SetupSamples};
use crate::replay::replay;
use crate::report::{median, ms, peak_rss_mb, Outcome};
use crate::trace::{push_per_layer, Frame, ServeBreakdown};

/// Certifier threads of the parallel runs: the 2 CPUs of the machines
/// the benchmark was tuned on.
pub const THREADS: usize = 2;

/// Seeded PGD start points per run for the `ε̲ ≤ ε̄` sandwich check.
pub const PGD_SAMPLES: usize = 16;

/// Options of one certification of `spec` at `threads`, certificate
/// checking off.
pub fn options(spec: &OneShotSpec, threads: usize) -> CertifyOptions {
    CertifyOptions {
        window: spec.window,
        refine: spec.refine,
        threads,
        check_certificates: false,
        ..Default::default()
    }
}

/// `max_j ε̄_j / ε̄ref_j`, and whether every bit pattern matches.
fn against_reference(spec: &OneShotSpec, eps: &[f64]) -> (f64, bool) {
    if eps.len() != spec.eps_bits.len() {
        return (f64::INFINITY, false);
    }
    let pairs = eps.iter().zip(spec.eps_bits);
    let same = pairs.clone().all(|(e, &b)| e.to_bits() == b);
    let worst = pairs
        .map(|(e, &b)| e / f64::from_bits(b))
        .fold(0.0, f64::max);
    (worst, same)
}

/// Tallies operations and the worst `ε̄ / ε̄ref` seen.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    eps_over_ref: f64,
}

impl Tally {
    fn check(&mut self, spec: &OneShotSpec, eps: &[f64]) {
        self.attempted += 1;
        let (r, same) = against_reference(spec, eps);
        self.eps_over_ref = self.eps_over_ref.max(r);
        if !same {
            self.failed += 1;
            eprintln!("{}: ε̄ bits differ from the reference: {eps:?}", spec.name);
        }
    }

    fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("{what}");
    }
}

/// The PGD sandwich: a certified ε̄ below a witnessed variation is unsound.
fn sandwich(spec: &OneShotSpec, s: &Setup, seed: u64, tally: &mut Tally) {
    let under = pgd_under(&s.net, spec.net, seed, PGD_SAMPLES);
    tally.attempted += 1;
    for (j, (&u, &b)) in under.iter().zip(spec.eps_bits).enumerate() {
        if u > f64::from_bits(b) {
            tally.failed += 1;
            eprintln!("{}: output {j}: PGD variation {u} exceeds ε̄", spec.name);
        }
    }
}

/// The timed run: `certify_global` at [`THREADS`] threads, repeated while
/// another repetition still fits into `seconds` (at least one), each after a
/// batch of set-ups.
///
/// # Errors
///
/// A message when the pinned model cannot be loaded or fails its hash.
pub fn timed(spec: &OneShotSpec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setups = SetupSamples::default();
    let mut s = setups.batch(spec.net)?;
    let domain = spec.net.domain();
    let opts = options(spec, THREADS);
    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    let mut walls: Vec<f64> = Vec::new();
    let t_run = Instant::now();
    loop {
        let t = Instant::now();
        let r = certify_global(&s.net, &domain, spec.net.delta, &opts);
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        match r {
            Ok(r) => tally.check(spec, &r.epsilons),
            Err(e) => tally.fail(&format!("{}: certify_global failed: {e}", spec.name)),
        }
        if t_run.elapsed() + wall > budget {
            break;
        }
        s = setups.batch(spec.net)?;
    }
    eprintln!("{}: certify_global walls {walls:?} s", spec.name);
    sandwich(spec, &s, seed, &mut tally);

    let cert_s = median(&walls);
    let mut out = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    out.push("setup_s", setups.total_s(), "s");
    out.push("cert_s", cert_s, "s");
    out.push("eps_over_ref", tally.eps_over_ref, "ratio");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push(
        "ops_ok_frac",
        1.0 - tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    // Every one-shot query is cold, and certifying updated weights is a
    // whole certify_global: the query and update figures are its median
    // wall. A run has too few repetitions for a tail percentile with ten
    // samples beyond it, so the p95 reads the median too.
    out.push("query_p50_ms", cert_s * 1e3, "ms");
    out.push("query_p95_ms", cert_s * 1e3, "ms");
    out.push("queries_per_s", 1.0 / cert_s, "1/s");
    out.push("update_p50_ms", cert_s * 1e3, "ms");
    Ok(out)
}

/// The traced run: an untraced serial `certify_global`, the traced serial
/// replay, and an untraced run at [`THREADS`] threads (for the scheduler
/// figures). Each must reproduce the reference bits. The workload bypasses
/// the resident engine, so its `serve.*` figures read 0.
///
/// # Errors
///
/// A message when the pinned model cannot be loaded or fails its hash.
pub fn traced(spec: &OneShotSpec, seed: u64) -> Result<Outcome, String> {
    let mut setups = SetupSamples::default();
    let s = setups.batch(spec.net)?;
    let domain = spec.net.domain();
    let delta = spec.net.delta;
    let mut tally = Tally::default();

    let mut frame = Frame {
        lower_ms: setups.lower_ms(),
        ibp_ms: setups.ibp_ms(),
        threads: THREADS,
        ..Frame::default()
    };
    let cold = |threads: usize, tally: &mut Tally| -> f64 {
        let t = Instant::now();
        match certify_global(&s.net, &domain, delta, &options(spec, threads)) {
            Ok(r) => tally.check(spec, &r.epsilons),
            Err(e) => tally.fail(&format!("{}: certify_global failed: {e}", spec.name)),
        }
        ms(t.elapsed())
    };
    frame.untraced_serial_ms = cold(1, &mut tally);
    let rep = replay(&s.aff, &domain, delta, &options(spec, 1));
    tally.check(spec, &rep.epsilons);
    frame.parallel_ms = cold(THREADS, &mut tally);

    sandwich(spec, &s, seed, &mut tally);
    frame.ops_failed_frac = tally.failed as f64 / tally.attempted as f64;
    let mut out = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    push_per_layer(&mut out, &[rep], &frame, &ServeBreakdown::default());
    Ok(out)
}
