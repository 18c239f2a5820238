//! The per-layer metric set printed by `--trace 1`. Every workload prints
//! the same names; a layer a workload bypasses reads 0 there.

use crate::replay::{LayerTrace, Replay};
use crate::report::{ratio, Outcome};

/// Network layers reported as `L{i}.*` (all three workload nets lower to
/// three affine layers: two hidden, one output).
pub const REPORTED_LAYERS: usize = 3;

/// Resident-engine totals from the `ServeStats` deltas around each
/// `register`/`certify` call.
#[derive(Clone, Debug, Default)]
pub struct ServeBreakdown {
    /// `certify` calls.
    pub queries: u64,
    /// Wall time inside `certify`.
    pub certify_ms: f64,
    /// Refactorization time the engine reported.
    pub refactor_ms: f64,
    /// FTRAN/BTRAN time the engine reported.
    pub ftran_btran_ms: f64,
    /// Simplex pivots.
    pub pivots: u64,
    /// LP solves.
    pub solves: u64,
    /// Warm starts seeded by an earlier query's basis.
    pub cross_query_warm_hits: u64,
    /// Encodings re-parameterized in place.
    pub encoding_hits: u64,
    /// Encodings built fresh.
    pub encoding_misses: u64,
    /// Median wall of one `register` call.
    pub register_ms: f64,
    /// Sessions cloned from a predecessor net (delta re-certification).
    pub delta_seeded_sessions: u64,
    /// Bounds checked against their dual certificate.
    pub certs_checked: u64,
    /// Certificate checks that failed.
    pub cert_failures: u64,
    /// Share of queries whose `(net, window)` session had answered before.
    pub warm_session_share: f64,
    /// Share of queries sent right after a weight update.
    pub post_update_share: f64,
}

/// Timings that frame the replays.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    /// Median lowering time at set-up.
    pub lower_ms: f64,
    /// Median twin IBP time at set-up.
    pub ibp_ms: f64,
    /// Untraced serial `certify_global` wall over the replayed problems.
    pub untraced_serial_ms: f64,
    /// Untraced `certify_global` wall at `threads` over the same problems.
    pub parallel_ms: f64,
    /// Certifier threads of `parallel_ms`.
    pub threads: usize,
    /// Share of operations that failed or were not clean (a certificate
    /// failure, or an answer other than the cold one).
    pub ops_failed_frac: f64,
}

/// Appends every per-layer metric, aggregated over `replays`.
pub fn push_per_layer(
    out: &mut Outcome,
    replays: &[Replay],
    frame: &Frame,
    serve: &ServeBreakdown,
) {
    let ns = |v: u64| v as f64 / 1e6;
    let mut q = itne_core::query::QueryStats::default();
    for r in replays {
        q.absorb(r.stats());
    }
    let sum = |f: &dyn Fn(&Replay) -> u64| -> u64 { replays.iter().map(f).sum() };
    let layer_sum = |f: &dyn Fn(&LayerTrace) -> u64| -> u64 {
        replays.iter().flat_map(|r| &r.layers).map(f).sum()
    };

    let lp_ms = ns(layer_sum(&|l| l.lp_ns));
    let refactor_ms = ns(q.refactor_time_ns);
    let ftran_ms = ns(q.ftran_btran_time_ns);
    out.push("lp.bb_nodes", q.nodes as f64, "count");
    out.push("lp.pivots", q.pivots as f64, "count");
    out.push("lp.ftran_btran_ms", ftran_ms, "ms");
    out.push("lp.refactor_ms", refactor_ms, "ms");
    out.push("lp.refactorizations", q.refactorizations as f64, "count");
    out.push("lp.other_ms", lp_ms - refactor_ms - ftran_ms, "ms");
    out.push(
        "lp.warm_hit_ratio",
        ratio(q.warm_hits as f64, q.solves as f64),
        "ratio",
    );
    out.push("lp.fallbacks", q.fallbacks as f64, "count");

    for i in 0..REPORTED_LAYERS {
        let per = |f: &dyn Fn(&LayerTrace) -> u64| -> u64 {
            replays.iter().filter_map(|r| r.layers.get(i)).map(f).sum()
        };
        out.push(
            format!("L{i}.bb_nodes"),
            per(&|l| l.stats.nodes) as f64,
            "count",
        );
        out.push(format!("L{i}.encode_ms"), ns(per(&|l| l.encode_ns)), "ms");
        out.push(format!("L{i}.lp_ms"), ns(per(&|l| l.lp_ns)), "ms");
        out.push(
            format!("L{i}.pivots"),
            per(&|l| l.stats.pivots) as f64,
            "count",
        );
        out.push(
            format!("L{i}.refactor_ms"),
            ns(per(&|l| l.stats.refactor_time_ns)),
            "ms",
        );
        out.push(
            format!("L{i}.ftran_btran_ms"),
            ns(per(&|l| l.stats.ftran_btran_time_ns)),
            "ms",
        );
        out.push(
            format!("L{i}.max_task_ms"),
            ns(per(&|l| l.max_task_ns)),
            "ms",
        );
    }

    let relu_neurons = layer_sum(&|l| l.relu_neurons);
    let closed_form = layer_sum(&|l| l.closed_form);
    let encodings = layer_sum(&|l| l.encodings);
    out.push("closed_form.hits", closed_form as f64, "count");
    out.push("encode.ms", ns(layer_sum(&|l| l.encode_ns)), "ms");
    out.push("encode.calls", encodings as f64, "count");
    out.push(
        "encode.binaries",
        layer_sum(&|l| l.binaries) as f64,
        "count",
    );

    let task_ms = ns(layer_sum(&|l| l.task_ns));
    out.push(
        "sched.efficiency",
        ratio(task_ms, frame.threads as f64 * frame.parallel_ms),
        "ratio",
    );
    out.push(
        "sched.critical_path_ms",
        ns(layer_sum(&|l| l.max_task_ns)),
        "ms",
    );
    out.push("ibp.ms", frame.ibp_ms, "ms");
    out.push("nn.lower_ms", frame.lower_ms, "ms");
    let traced_ms = ns(sum(&|r| r.wall_ns()));
    out.push("unattributed_ms", ns(sum(&|r| r.unattributed_ns())), "ms");
    out.push(
        "trace.overhead_ms",
        traced_ms - frame.untraced_serial_ms,
        "ms",
    );

    out.push("certcheck.checked", serve.certs_checked as f64, "count");
    out.push("certcheck.failures", serve.cert_failures as f64, "count");
    out.push("serve.refactor_ms", serve.refactor_ms, "ms");
    out.push("serve.ftran_btran_ms", serve.ftran_btran_ms, "ms");
    out.push(
        "serve.other_ms",
        serve.certify_ms - serve.refactor_ms - serve.ftran_btran_ms,
        "ms",
    );
    out.push(
        "serve.pivots_per_query",
        ratio(serve.pivots as f64, serve.queries as f64),
        "count",
    );
    out.push(
        "serve.cross_query_warm_ratio",
        ratio(serve.cross_query_warm_hits as f64, serve.solves as f64),
        "ratio",
    );
    out.push(
        "serve.encoding_hit_ratio",
        ratio(
            serve.encoding_hits as f64,
            (serve.encoding_hits + serve.encoding_misses) as f64,
        ),
        "ratio",
    );
    out.push("serve.register_ms", serve.register_ms, "ms");
    out.push(
        "serve.delta_seeded_sessions",
        serve.delta_seeded_sessions as f64,
        "count",
    );

    out.push(
        "share.bb_subproblems",
        ratio(
            layer_sum(&|l| l.encodings_with_binaries) as f64,
            encodings as f64,
        ),
        "ratio",
    );
    out.push(
        "share.closed_form",
        ratio(closed_form as f64, relu_neurons as f64),
        "ratio",
    );
    out.push("share.warm_session", serve.warm_session_share, "ratio");
    out.push("share.post_update", serve.post_update_share, "ratio");
    out.push("ops_failed_frac", frame.ops_failed_frac, "ratio");
}
