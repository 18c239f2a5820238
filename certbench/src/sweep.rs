//! The `serve-sweep` workload: one closed-loop client of a resident
//! `CertEngine` sending δ-sweep queries over several windows, with a weight
//! update (delta re-certification) before every eighth query. Every answer
//! that followed an update, and a seeded sample of the others, is
//! re-certified cold with `certify_global` outside the timed loop and
//! compared bit for bit.
//!
//! An LP bound whose dual certificate fails the exact check is replaced by
//! its sound IBP fallback (`itne_core::query`). An answer that differs from
//! the cold one but is no tighter on any output is sound, since the cold
//! answer is. Both are correct but not clean: they count against
//! `ops_ok_frac`, not as failed operations. A divergent answer tighter than
//! a cold answer that had no certificate failure is wrong.

use itne_core::{certify_global, CertifyOptions};
use itne_nn::{Layer, Network};
use itne_serve::{CertEngine, QueryRequest, ServeStats};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::oneshot::THREADS;
use crate::pinned::{PinnedNet, SetupSamples, AUTO_MPG_W48, SETUP_BATCH};
use crate::replay::replay;
use crate::report::{median, ms, peak_rss_mb, percentile, ratio, Outcome, SplitMix};
use crate::trace::{push_per_layer, Frame, ServeBreakdown};

/// The net the client registers.
pub const NET: &PinnedNet = &AUTO_MPG_W48;
/// δ grid: 16 values.
pub const DELTAS: [f64; 16] = {
    let mut d = [0.0; 16];
    let mut i = 0;
    while i < 16 {
        d[i] = 2.5e-4 * (i + 1) as f64;
        i += 1;
    }
    d
};
/// Decomposition windows queried.
pub const WINDOWS: [usize; 3] = [2, 3, 4];
/// Queries per client session; `cert_s` is a session's wall.
pub const SWEEP_QUERIES: usize = 200;
/// Sessions per cycle. Session `i` of a cycle walks weight trajectory `i`,
/// so every cycle, in every run, covers the same trajectories.
pub const SESSIONS: u64 = 4;
/// A weight update precedes every query whose index is a multiple of this.
pub const UPDATE_EVERY: usize = 8;
/// Largest change of one weight or bias in an update.
pub const MAX_PERTURB: f64 = 1e-4;
/// Answers re-certified cold per session besides the post-update ones.
const VERIFY_SAMPLE: usize = 8;
/// Registry id of the client's net.
const NET_ID: &str = "auto_mpg_w48";

/// One answered query.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Index into [`Sweep::versions`] of the weights that answered.
    pub version: usize,
    /// The request.
    pub query: QueryRequest,
    /// `ε̄` bits per output.
    pub bits: Vec<u64>,
    /// `certify` wall.
    pub ms: f64,
    /// Register-to-answer wall when a weight update preceded this query.
    pub update_ms: Option<f64>,
    /// The `(net, window)` session had answered before.
    pub warm_session: bool,
    /// Certificate checks of this query that failed.
    pub cert_failures: u64,
}

/// One closed-loop client session on a fresh engine.
#[derive(Debug, Default)]
pub struct Sweep {
    /// The weight-update trajectory walked.
    pub trajectory: u64,
    /// Every weight version registered, in order.
    pub versions: Vec<Network>,
    /// Every answer, in order.
    pub answers: Vec<Answer>,
    /// Wall of the session's queries and updates.
    pub loop_s: f64,
    /// `certify` calls made.
    pub queries: u64,
    /// Failed `register`/`certify` calls.
    pub errors: u64,
    /// `register` calls made inside the loop.
    pub updates: u64,
    /// Per-call engine breakdown (traced runs only).
    pub breakdown: ServeBreakdown,
}

/// Adds the `ServeStats` delta of one `certify` call to `b`.
pub fn absorb_call(b: &mut ServeBreakdown, before: &ServeStats, after: &ServeStats, wall_ms: f64) {
    let d = |f: fn(&ServeStats) -> u64| f(after) - f(before);
    b.queries += 1;
    b.certify_ms += wall_ms;
    b.refactor_ms += d(|s| s.refactor_time_ns) as f64 / 1e6;
    b.ftran_btran_ms += d(|s| s.ftran_btran_time_ns) as f64 / 1e6;
    b.pivots += d(|s| s.pivots);
    b.solves += d(|s| s.solves);
    b.cross_query_warm_hits += d(|s| s.cross_query_warm_hits);
    b.encoding_hits += d(|s| s.encoding_cache_hits);
    b.encoding_misses += d(|s| s.encoding_cache_misses);
    b.delta_seeded_sessions += d(|s| s.delta_seeded_sessions);
    b.certs_checked += d(|s| s.certs_checked);
    b.cert_failures += d(|s| s.cert_failures);
}

/// `prev` with every weight and bias moved by at most [`MAX_PERTURB`], as
/// one fine-tuning step would.
fn perturbed(prev: &Network, rng: &mut SplitMix) -> Network {
    let mut net = prev.clone();
    for layer in net.layers_mut() {
        if let Layer::Dense(d) = layer {
            for w in d.weights.iter_mut().chain(d.bias.iter_mut()) {
                *w += MAX_PERTURB * (2.0 * rng.unit() - 1.0);
            }
        }
    }
    net
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Runs one client session: [`SWEEP_QUERIES`] queries against the net
/// `engine` has registered under [`NET_ID`] (initially `net`), with a weight
/// update before every [`UPDATE_EVERY`]-th. Windows cycle through
/// [`WINDOWS`], so every update is followed by a first query on each
/// window; δ walks `rng`'s permutations of [`DELTAS`], so each value is
/// queried equally often. The weight updates walk trajectory number
/// `trajectory`, not one drawn from the run's seed: how many updates flip a
/// ReLU phase decides how much a session re-encodes, and seeded
/// trajectories moved p95 latency by 70% from run to run. `traced` records
/// the engine breakdown of every call.
pub fn drive(
    engine: &CertEngine,
    net: &Network,
    trajectory: u64,
    rng: &mut SplitMix,
    traced: bool,
) -> Sweep {
    let mut walk = SplitMix::new(trajectory);
    let domain = NET.domain();
    let mut sw = Sweep {
        trajectory,
        versions: vec![net.clone()],
        ..Sweep::default()
    };
    let mut sessions: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut deltas = DELTAS;
    let mut register_ms = Vec::new();
    let mut hash = engine.net_hash(NET_ID).unwrap_or(0);
    let t_loop = Instant::now();
    for i in 0..SWEEP_QUERIES {
        let mut update_start = None;
        if i > 0 && i % UPDATE_EVERY == 0 {
            let next = perturbed(&sw.versions[sw.versions.len() - 1], &mut walk);
            sw.versions.push(next);
            sw.updates += 1;
            let t = Instant::now();
            match engine.register(NET_ID, &sw.versions[sw.versions.len() - 1], &domain) {
                Ok(h) => hash = h,
                Err(e) => {
                    sw.errors += 1;
                    eprintln!("register failed: {e}");
                }
            }
            register_ms.push(ms(t.elapsed()));
            update_start = Some(t);
        }
        if i % DELTAS.len() == 0 {
            shuffle(&mut deltas, rng);
        }
        let query = QueryRequest {
            delta: deltas[i % DELTAS.len()],
            window: WINDOWS[i % WINDOWS.len()],
            refine: 0,
            check_certs: true,
        };
        let before = traced.then(|| engine.stats());
        sw.queries += 1;
        let t = Instant::now();
        let resp = engine.certify(NET_ID, &query);
        let wall = ms(t.elapsed());
        let update_ms = update_start.map(|u| ms(u.elapsed()));
        if let Some(before) = before {
            absorb_call(&mut sw.breakdown, &before, &engine.stats(), wall);
        }
        match resp {
            Ok(r) => {
                let cert_failures = r.stats.query.cert_failures;
                if cert_failures > 0 {
                    eprintln!(
                        "trajectory {trajectory}, query {i}: {cert_failures} engine certificate failures"
                    );
                }
                sw.answers.push(Answer {
                    version: sw.versions.len() - 1,
                    query,
                    bits: r.epsilons.iter().map(|e| e.to_bits()).collect(),
                    ms: wall,
                    update_ms,
                    warm_session: !sessions.insert((hash, query.window)),
                    cert_failures,
                });
            }
            Err(e) => {
                sw.errors += 1;
                eprintln!("certify failed: {e}");
            }
        }
    }
    sw.loop_s = t_loop.elapsed().as_secs_f64();
    let b = &mut sw.breakdown;
    b.register_ms = median(&register_ms);
    let n = sw.answers.len() as f64;
    b.warm_session_share = ratio(
        sw.answers.iter().filter(|a| a.warm_session).count() as f64,
        n,
    );
    b.post_update_share = ratio(
        sw.answers.iter().filter(|a| a.update_ms.is_some()).count() as f64,
        n,
    );
    sw
}

/// Outcome of re-certifying answers cold.
#[derive(Default)]
struct Verified {
    checked: u64,
    /// Re-certifications that erred, or found the answer tighter than a
    /// cold answer that had no certificate failure.
    failed: u64,
    /// Other re-certifications that had a certificate failure or found
    /// other bits than the answer.
    unclean: u64,
    eps_over_ref: f64,
}

impl Verified {
    /// Re-certifies cold every post-update answer of `sw` and
    /// [`VERIFY_SAMPLE`] seeded others, comparing bits.
    fn session(&mut self, sw: &Sweep, rng: &mut SplitMix) {
        if sw.answers.is_empty() {
            return;
        }
        let domain = NET.domain();
        let mut pick: BTreeSet<usize> = (0..sw.answers.len())
            .filter(|&i| sw.answers[i].update_ms.is_some())
            .collect();
        for _ in 0..VERIFY_SAMPLE {
            pick.insert(rng.below(sw.answers.len()));
        }
        for i in pick {
            let a = &sw.answers[i];
            let opts = CertifyOptions {
                window: a.query.window,
                refine: a.query.refine,
                threads: THREADS,
                check_certificates: true,
                ..Default::default()
            };
            self.checked += 1;
            let r = match certify_global(&sw.versions[a.version], &domain, a.query.delta, &opts) {
                Ok(r) => r,
                Err(e) => {
                    self.failed += 1;
                    eprintln!("cold certify_global failed: {e}");
                    continue;
                }
            };
            let cert_failures = r.stats.query.cert_failures;
            if cert_failures > 0 {
                eprintln!(
                    "trajectory {}, answer {i}: {cert_failures} certificate failures in the \
                     cold re-certification",
                    sw.trajectory
                );
            }
            for (&got, want) in a.bits.iter().zip(&r.epsilons) {
                self.eps_over_ref = self.eps_over_ref.max(f64::from_bits(got) / want);
            }
            let bits: Vec<u64> = r.epsilons.iter().map(|e| e.to_bits()).collect();
            if bits == a.bits {
                self.unclean += u64::from(cert_failures > 0);
                continue;
            }
            let eps: Vec<f64> = a.bits.iter().map(|&b| f64::from_bits(b)).collect();
            eprintln!(
                "trajectory {}, answer {i} (weights v{}, window {}, δ {}, warm session {}, \
                 certificate failures {} engine / {cert_failures} cold) differs from cold \
                 certify_global: {eps:?} vs {:?}",
                sw.trajectory,
                a.version,
                a.query.window,
                a.query.delta,
                a.warm_session,
                a.cert_failures,
                r.epsilons,
            );
            let tighter = eps.len() != r.epsilons.len()
                || (cert_failures == 0 && eps.iter().zip(&r.epsilons).any(|(e, c)| e < c));
            if tighter {
                self.failed += 1;
                eprintln!("answer {i} is tighter than the cold answer, or has other outputs");
            } else {
                self.unclean += 1;
            }
        }
    }
}

/// [`SETUP_BATCH`] client set-ups (load, lowering + hash check, a fresh
/// engine, registration), their times appended to `times`; returns the last
/// net and engine.
fn setup_batch(threads: usize, times: &mut Vec<f64>) -> Result<(Network, CertEngine), String> {
    let mut last = None;
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        let net = NET.load()?;
        NET.lower(&net)?;
        let engine = CertEngine::new(threads, 1);
        engine
            .register(NET_ID, &net, &NET.domain())
            .map_err(|e| format!("register failed: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((net, engine));
    }
    Ok(last.expect("SETUP_BATCH is positive"))
}

/// Client sessions of one run, with every set-up time in seconds.
struct Sessions {
    sweeps: Vec<Sweep>,
    setup_s: Vec<f64>,
}

/// `count` client sessions walking trajectories `0..count`, each after a
/// batch of set-ups and on the last set-up's fresh engine.
fn cycle(
    threads: usize,
    count: u64,
    rng: &mut SplitMix,
    traced: bool,
    out: &mut Sessions,
) -> Result<(), String> {
    for trajectory in 0..count {
        let (net, engine) = setup_batch(threads, &mut out.setup_s)?;
        out.sweeps
            .push(drive(&engine, &net, trajectory, rng, traced));
    }
    Ok(())
}

/// Operations: registrations, queries and cold re-certifications; the
/// outcome counts those that erred or answered wrongly as failed. Also
/// returns how many others were not clean (see [`Verified`]); a query is
/// not clean when any of its certificate checks failed.
fn outcome(sweeps: &[Sweep], v: &Verified) -> (Outcome, u64) {
    let attempted = sweeps
        .iter()
        .map(|s| 1 + s.updates + s.queries)
        .sum::<u64>()
        + v.checked;
    let failed = sweeps.iter().map(|s| s.errors).sum::<u64>() + v.failed;
    let unclean = sweeps
        .iter()
        .map(|s| s.answers.iter().filter(|a| a.cert_failures > 0).count() as u64)
        .sum::<u64>()
        + v.unclean;
    let out = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    (out, unclean)
}

/// Share of `out`'s operations that failed or were not clean.
fn not_ok(out: &Outcome, unclean: u64) -> f64 {
    (out.failed + unclean) as f64 / out.attempted as f64
}

/// The timed run: cycles of [`SESSIONS`] client sessions of
/// [`SWEEP_QUERIES`] queries, each on a fresh engine with [`THREADS`]
/// certifier threads and one query in flight, while another whole cycle
/// still fits into `seconds` (at least one). Every cycle walks the same
/// trajectories, so the traffic a run measures does not depend on speed.
///
/// # Errors
///
/// A message when the pinned model cannot be loaded, fails its hash, or
/// cannot be registered.
pub fn timed(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut rng = SplitMix::new(seed);
    let budget = Duration::from_secs(seconds);
    let mut run = Sessions {
        sweeps: Vec::new(),
        setup_s: Vec::new(),
    };
    let t_run = Instant::now();
    loop {
        let t = Instant::now();
        cycle(THREADS, SESSIONS, &mut rng, false, &mut run)?;
        if t_run.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let sweeps = &run.sweeps;
    let mut v = Verified::default();
    for sw in sweeps {
        v.session(sw, &mut rng);
    }

    let (mut out, unclean) = outcome(sweeps, &v);
    let answers = || sweeps.iter().flat_map(|s| &s.answers);
    let lat: Vec<f64> = answers().map(|a| a.ms).collect();
    let upd: Vec<f64> = answers().filter_map(|a| a.update_ms).collect();
    let walls: Vec<f64> = sweeps.iter().map(|s| s.loop_s).collect();
    out.push("setup_s", median(&run.setup_s), "s");
    out.push("cert_s", median(&walls), "s");
    out.push("eps_over_ref", v.eps_over_ref, "ratio");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push("ops_ok_frac", 1.0 - not_ok(&out, unclean), "ratio");
    out.push("query_p50_ms", median(&lat), "ms");
    out.push("query_p95_ms", percentile(&lat, 95.0), "ms");
    out.push(
        "queries_per_s",
        lat.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.push("update_p50_ms", median(&upd), "ms");
    Ok(out)
}

/// The traced run: the same client loop, serial (one certifier thread) so
/// the per-call engine breakdown adds up, for one session on trajectory 0;
/// then, per window, the traced replay of the cold certification
/// a session miss performs, framed by untraced serial and parallel runs.
///
/// # Errors
///
/// See [`timed`].
pub fn traced(seed: u64) -> Result<Outcome, String> {
    let mut rng = SplitMix::new(seed);
    let mut run = Sessions {
        sweeps: Vec::new(),
        setup_s: Vec::new(),
    };
    cycle(1, 1, &mut rng, true, &mut run)?;
    let mut v = Verified::default();
    v.session(&run.sweeps[0], &mut rng);
    let (mut out, unclean) = outcome(&run.sweeps, &v);

    let mut setups = SetupSamples::default();
    let s = setups.batch(NET)?;
    let domain = NET.domain();
    let mut frame = Frame {
        lower_ms: setups.lower_ms(),
        ibp_ms: setups.ibp_ms(),
        threads: THREADS,
        ..Frame::default()
    };
    let delta = DELTAS[rng.below(DELTAS.len())];
    let mut replays = Vec::new();
    for &window in &WINDOWS {
        let opts = |threads| CertifyOptions {
            window,
            refine: 0,
            threads,
            check_certificates: true,
            ..Default::default()
        };
        let cold = |threads: usize| -> Option<(f64, Vec<u64>)> {
            let t = Instant::now();
            let r = certify_global(&s.net, &domain, delta, &opts(threads)).ok()?;
            Some((
                ms(t.elapsed()),
                r.epsilons.iter().map(|e| e.to_bits()).collect(),
            ))
        };
        let serial = cold(1);
        let rep = replay(&s.aff, &domain, delta, &opts(1));
        let parallel = cold(THREADS);
        out.attempted += 3;
        let rep_bits: Vec<u64> = rep.epsilons.iter().map(|e| e.to_bits()).collect();
        match (serial, parallel) {
            (Some((s_ms, s_bits)), Some((p_ms, p_bits)))
                if s_bits == rep_bits && p_bits == rep_bits =>
            {
                frame.untraced_serial_ms += s_ms;
                frame.parallel_ms += p_ms;
            }
            _ => {
                out.failed += 1;
                eprintln!("window {window}: replay bits differ from certify_global");
            }
        }
        replays.push(rep);
    }
    out.correct = out.failed == 0;
    frame.ops_failed_frac = not_ok(&out, unclean);
    push_per_layer(&mut out, &replays, &frame, &run.sweeps[0].breakdown);
    Ok(out)
}
