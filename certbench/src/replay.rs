//! A traced, serial replay of Algorithm 1 built only from the certifier's
//! public layer functions, so every call into a layer gets its own span.
//!
//! The replay walks the network exactly as `certify_global` does on its
//! one-shot path: IBP seeds every range, then layer by layer each neuron is
//! decomposed, encoded and swept by `LpRelaxY`; its `LpRelaxX` follow-up
//! either takes the provably-equal closed form or encodes and solves, and
//! the layer's results merge into the bound store only after the whole
//! layer is done. A run whose ε̄ bits differ from `certify_global`'s is a
//! failed replay, and the benchmark reports it as incorrect.
//!
//! Only ITNE + LP relaxation (the paper's Algorithm 1 configuration) is
//! replayed; the baselines are not workloads of this benchmark.

use itne_core::deadline::telemetry_clock;
use itne_core::encode::{
    encode_subnet, encode_subnet_with, EncodeOptions, EncodingKind, Relaxation, TargetKind,
    TargetOverride,
};
use itne_core::ibp::ibp_twin;
use itne_core::interval::{distance_relaxation_bounds, relu_distance_range, Interval};
use itne_core::query::{lp_relax_x, lp_relax_y, QueryStats};
use itne_core::refine::select_refined;
use itne_core::subnet::SubNetwork;
use itne_core::CertifyOptions;
use itne_milp::TelemetryClock;
use itne_nn::AffineNetwork;

/// The layer function a span timed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Call {
    /// `ibp_twin`: the IBP seed of every range.
    Ibp,
    /// `SubNetwork::decompose`.
    Decompose,
    /// `encode_subnet` (pre-activation target, `LpRelaxY`).
    EncodeY,
    /// `lp_relax_y`.
    LpRelaxY,
    /// `select_refined` plus the closed-form phase test for `LpRelaxX`.
    ClosedFormTest,
    /// `encode_subnet_with` (post-activation target, `LpRelaxX`).
    EncodeX,
    /// `lp_relax_x`.
    LpRelaxX,
}

/// One timed call. Spans of one neuron share `(layer, neuron)`, which names
/// the sub-problem that caused them; the IBP span has neither.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// Network layer, for per-neuron calls.
    pub layer: Option<usize>,
    /// Neuron index within the layer, for per-neuron calls.
    pub neuron: Option<usize>,
    /// Start, nanoseconds on the replay's telemetry clock.
    pub start_ns: u64,
    /// End, nanoseconds on the replay's telemetry clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-network-layer totals of a replay.
#[derive(Clone, Debug, Default)]
pub struct LayerTrace {
    /// Solver counters of this layer's `LpRelaxY`/`LpRelaxX` sweeps,
    /// including the telemetry-clock refactorization and FTRAN/BTRAN times.
    pub stats: QueryStats,
    /// Time in `encode_subnet`/`encode_subnet_with`.
    pub encode_ns: u64,
    /// Encodings built.
    pub encodings: u64,
    /// Binary indicators across those encodings.
    pub binaries: u64,
    /// Encodings with at least one binary (solved by branch-and-bound).
    pub encodings_with_binaries: u64,
    /// Time in `lp_relax_y`/`lp_relax_x`.
    pub lp_ns: u64,
    /// ReLU neurons, each needing `(x, Δx)` ranges.
    pub relu_neurons: u64,
    /// Of those, answered by the closed form instead of an LP sweep.
    pub closed_form: u64,
    /// Slowest neuron: first to last span of one neuron's calls.
    pub max_task_ns: u64,
    /// Sum over neurons of first to last span.
    pub task_ns: u64,
}

/// Everything one replay recorded.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Certified `ε̄` per output.
    pub epsilons: Vec<f64>,
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// Start of the replay on the telemetry clock.
    pub start_ns: u64,
    /// End of the replay on the telemetry clock.
    pub end_ns: u64,
    /// Per-layer totals.
    pub layers: Vec<LayerTrace>,
}

impl Replay {
    /// Traced wall time.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Sum of all span durations.
    pub fn span_ns(&self) -> u64 {
        self.spans.iter().map(Span::ns).sum()
    }

    /// Traced wall time no span covers.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns() - self.span_ns()
    }

    /// Sum of the spans of one kind of call.
    pub fn call_ns(&self, call: Call) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.call == call)
            .map(Span::ns)
            .sum()
    }

    /// Solver counters over all layers.
    pub fn stats(&self) -> QueryStats {
        let mut q = QueryStats::default();
        for l in &self.layers {
            q.absorb(l.stats);
        }
        q
    }
}

/// Records spans against one clock.
struct Tracer {
    clock: TelemetryClock,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(&mut self, call: Call, at: Option<(usize, usize)>, f: impl FnOnce() -> T) -> T {
        let start_ns = self.clock.now_ns();
        let out = f();
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            call,
            layer: at.map(|a| a.0),
            neuron: at.map(|a| a.1),
            start_ns,
            end_ns,
        });
        out
    }
}

/// Replays `certify_global(net, domain, delta, opts)` serially with a span
/// around every layer call and the telemetry clock installed on the solver
/// (clock reads never change a pivot or a bound).
///
/// # Panics
///
/// Panics unless `opts` is Algorithm 1's configuration: ITNE encoding, LP
/// relaxation, paper-faithful distance bounds, no deadline.
pub fn replay(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &CertifyOptions,
) -> Replay {
    assert!(
        opts.encoding == EncodingKind::Itne
            && opts.relaxation == Relaxation::Lpr
            && !opts.y_aware_distance
            && opts.deadline.is_none(),
        "the replay covers Algorithm 1 (ITNE + LPR) only"
    );
    let clock = telemetry_clock();
    let mut solver = opts.solver.clone();
    solver.telemetry = Some(clock.clone());
    let enc_opts = EncodeOptions {
        kind: opts.encoding,
        relax: opts.relaxation,
        refine: opts.refine,
        y_aware_distance: opts.y_aware_distance,
        delta,
    };
    let domain: Vec<Interval> = domain
        .iter()
        .map(|&(lo, hi)| Interval::new(lo, hi))
        .collect();
    let mut tr = Tracer {
        clock: clock.clone(),
        spans: Vec::new(),
    };
    let start_ns = clock.now_ns();
    let mut bounds = tr.time(Call::Ibp, None, || ibp_twin(aff, &domain, delta));
    let mut layers = Vec::with_capacity(aff.layers.len());

    for li in 0..aff.layers.len() {
        let relu = aff.layers[li].relu;
        let mut lt = LayerTrace::default();
        let mut results = Vec::with_capacity(aff.layers[li].width());
        for j in 0..aff.layers[li].width() {
            let at = Some((li, j));
            let first_span = tr.spans.len();
            let sub = tr.time(Call::Decompose, at, || {
                SubNetwork::decompose(aff, li, j, opts.window)
            });

            // --- LpRelaxY ---
            let mut enc = tr.time(Call::EncodeY, at, || {
                encode_subnet(&sub, &bounds, TargetKind::PreActivation, &enc_opts)
            });
            lt.count_encoding(enc.binaries);
            let (yr, dyr) = tr.time(Call::LpRelaxY, at, || {
                lp_relax_y(
                    &mut enc,
                    bounds.y[li][j],
                    bounds.dy[li][j],
                    &solver,
                    opts.check_certificates,
                    &mut lt.stats,
                )
            });

            // --- LpRelaxX (closed form or LP) ---
            let (x, dx) = if !relu {
                (yr, dyr)
            } else {
                lt.relu_neurons += 1;
                let closed = opts.closed_form_x
                    && tr.time(Call::ClosedFormTest, at, || {
                        closed_form_applies(&sub, &bounds, yr, dyr, &enc_opts)
                    });
                if closed {
                    lt.closed_form += 1;
                    closed_form_x(yr, dyr)
                } else {
                    let over = TargetOverride {
                        y: yr,
                        dy: dyr,
                        x: yr.relu(),
                        dx: relu_distance_range(yr, dyr),
                    };
                    let mut enc = tr.time(Call::EncodeX, at, || {
                        encode_subnet_with(
                            &sub,
                            &bounds,
                            TargetKind::PostActivation,
                            &enc_opts,
                            Some(over),
                        )
                    });
                    lt.count_encoding(enc.binaries);
                    tr.time(Call::LpRelaxX, at, || {
                        lp_relax_x(
                            &mut enc,
                            over.x,
                            over.dx,
                            &solver,
                            opts.check_certificates,
                            &mut lt.stats,
                        )
                    })
                }
            };
            let own = &tr.spans[first_span..];
            let task = own[own.len() - 1].end_ns - own[0].start_ns;
            lt.task_ns += task;
            lt.max_task_ns = lt.max_task_ns.max(task);
            for s in own {
                match s.call {
                    Call::EncodeY | Call::EncodeX => lt.encode_ns += s.ns(),
                    Call::LpRelaxY | Call::LpRelaxX => lt.lp_ns += s.ns(),
                    _ => {}
                }
            }
            results.push((yr, dyr, x, dx));
        }
        // Neurons of a layer read only earlier layers: merge after the layer.
        for (j, (y, dy, x, dx)) in results.into_iter().enumerate() {
            bounds.y[li][j] = y;
            bounds.dy[li][j] = dy;
            bounds.x[li][j] = x;
            bounds.dx[li][j] = dx;
        }
        layers.push(lt);
    }
    let end_ns = clock.now_ns();
    Replay {
        epsilons: bounds.epsilons(),
        spans: tr.spans,
        start_ns,
        end_ns,
        layers,
    }
}

impl LayerTrace {
    fn count_encoding(&mut self, binaries: usize) {
        self.encodings += 1;
        self.binaries += binaries as u64;
        if binaries > 0 {
            self.encodings_with_binaries += 1;
        }
    }
}

/// The certifier's closed-form rule for ITNE + LPR: the target is not
/// selectively refined, and its original and hat pre-activations are both
/// stable or both unstable (mixed phases admit exact linear couplings that
/// make the LP strictly tighter).
fn closed_form_applies(
    sub: &SubNetwork<'_>,
    bounds: &itne_core::TwinBounds,
    yr: Interval,
    dyr: Interval,
    enc_opts: &EncodeOptions,
) -> bool {
    if enc_opts.refine > 0 {
        let refined = select_refined(sub, bounds, TargetKind::PostActivation, enc_opts);
        if refined.contains(&(sub.cone.layer, sub.target())) {
            return false;
        }
    }
    let yhr = yr.add(dyr);
    let both_stable = (yr.stable_active() && yhr.stable_active())
        || (yr.stable_inactive() && yhr.stable_inactive());
    let both_unstable = !(yr.stable_active()
        || yr.stable_inactive()
        || yhr.stable_active()
        || yhr.stable_inactive());
    both_stable || both_unstable
}

/// The closed-form `LpRelaxX` optimum: `x = relu(y)` and the Eq. 6 corner
/// box for `Δx` (or `Δy` when both copies are provably active).
fn closed_form_x(yr: Interval, dyr: Interval) -> (Interval, Interval) {
    let xr = yr.relu();
    let yhr = yr.add(dyr);
    if yr.stable_active() && yhr.stable_active() {
        (xr, dyr)
    } else if yr.stable_inactive() && yhr.stable_inactive() {
        (Interval::point(0.0), Interval::point(0.0))
    } else {
        let (l, u) = distance_relaxation_bounds(dyr);
        (xr, Interval::new(l, u))
    }
}
