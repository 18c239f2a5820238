//! Self-tests of the benchmark: the traced replay is faithful to
//! `certify_global`, its spans account for the traced wall, and the pinned
//! data matches what the workloads record.
//!
//! ```text
//! cargo test --release --manifest-path certbench/Cargo.toml
//! ```

use certbench::pinned::{AUTO_MPG_W48, CONV_LP, FC_REFINE};
use certbench::replay::{replay, Call};
use certbench::report::Outcome;
use certbench::trace::{push_per_layer, Frame, ServeBreakdown};
use itne_core::example::fig1_network;
use itne_core::{certify_global, CertifyOptions};
use itne_nn::AffineNetwork;

const DOM: [(f64, f64); 2] = [(-1.0, 1.0), (-1.0, 1.0)];

fn fig1_opts(window: usize, refine: usize, threads: usize) -> CertifyOptions {
    CertifyOptions {
        window,
        refine,
        threads,
        check_certificates: true,
        ..Default::default()
    }
}

#[test]
fn replay_reproduces_certify_global_bits_on_fig1() {
    let net = fig1_network();
    let aff = AffineNetwork::from_network(&net).unwrap();
    for window in [1, 2] {
        for refine in [0, 2] {
            for delta in [0.05, 0.1, 0.3] {
                let rep = replay(&aff, &DOM, delta, &fig1_opts(window, refine, 1));
                for threads in [1, 2] {
                    let cold =
                        certify_global(&net, &DOM, delta, &fig1_opts(window, refine, threads))
                            .unwrap();
                    let want: Vec<u64> = cold.epsilons.iter().map(|e| e.to_bits()).collect();
                    let got: Vec<u64> = rep.epsilons.iter().map(|e| e.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "W={window} r={refine} δ={delta} threads={threads}"
                    );
                }
                let q = rep.stats();
                assert_eq!(q.cert_failures, 0);
                assert!(q.certs_checked > 0);
            }
        }
    }
}

#[test]
fn spans_and_unattributed_add_up_to_the_traced_wall() {
    let aff = AffineNetwork::from_network(&fig1_network()).unwrap();
    for (window, refine) in [(1, 0), (2, 2)] {
        let rep = replay(&aff, &DOM, 0.1, &fig1_opts(window, refine, 1));
        assert_eq!(rep.span_ns() + rep.unattributed_ns(), rep.wall_ns());
        // Spans are sequential, disjoint, and inside the traced interval.
        let mut at = rep.start_ns;
        for s in &rep.spans {
            assert!(s.start_ns >= at && s.end_ns >= s.start_ns, "{s:?}");
            at = s.end_ns;
        }
        assert!(at <= rep.end_ns);
        // One IBP span, then every neuron decomposes and sweeps LpRelaxY.
        assert_eq!(rep.spans[0].call, Call::Ibp);
        let neurons = aff.layers.iter().map(|l| l.width()).sum::<usize>();
        let count = |c| rep.spans.iter().filter(|s| s.call == c).count();
        assert_eq!(count(Call::Decompose), neurons);
        assert_eq!(count(Call::LpRelaxY), neurons);
        // Per-layer totals are sums of the spans.
        let encode: u64 = rep.layers.iter().map(|l| l.encode_ns).sum();
        assert_eq!(
            encode,
            rep.call_ns(Call::EncodeY) + rep.call_ns(Call::EncodeX)
        );
        let lp: u64 = rep.layers.iter().map(|l| l.lp_ns).sum();
        assert_eq!(
            lp,
            rep.call_ns(Call::LpRelaxY) + rep.call_ns(Call::LpRelaxX)
        );
    }
}

#[test]
fn per_layer_metric_names_are_unique() {
    let aff = AffineNetwork::from_network(&fig1_network()).unwrap();
    let rep = replay(&aff, &DOM, 0.1, &fig1_opts(2, 0, 1));
    let mut out = Outcome::default();
    push_per_layer(
        &mut out,
        &[rep],
        &Frame::default(),
        &ServeBreakdown::default(),
    );
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn pinned_models_load_with_their_recorded_hash() {
    for p in [FC_REFINE.net, CONV_LP.net, &AUTO_MPG_W48] {
        let net = p.load().unwrap();
        p.lower(&net).unwrap();
        assert_eq!(net.input_dim(), p.input_dim);
    }
}

#[test]
fn references_are_sandwiched() {
    for spec in [&FC_REFINE, &CONV_LP] {
        assert_eq!(spec.eps_bits.len(), spec.eps_under.len(), "{}", spec.name);
        for (&b, &u) in spec.eps_bits.iter().zip(spec.eps_under) {
            assert!(
                u > 0.0 && u <= f64::from_bits(b),
                "{}: ε̲ {u} > ε̄",
                spec.name
            );
        }
    }
}
