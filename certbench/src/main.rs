//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path certbench/Cargo.toml -- \
//!     --workload <fc-refine|conv-lp|serve-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output. `--record
//! <workload>` instead prints the reference answers recorded in
//! `src/pinned.rs`, recomputed from the current code.

use certbench::pinned::{pgd_under, OneShotSpec, Setup, CONV_LP, FC_REFINE};
use certbench::{oneshot, sweep};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: certbench --workload <fc-refine|conv-lp|serve-sweep> --seed <n> \
         --seconds <s> --trace <0|1>\n       certbench --record <fc-refine|conv-lp>"
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn one_shot(name: &str) -> Option<&'static OneShotSpec> {
    match name {
        "fc-refine" => Some(&FC_REFINE),
        "conv-lp" => Some(&CONV_LP),
        _ => None,
    }
}

/// Prints the reference ε̄ bits and the seed-0 PGD lower bound.
fn record(spec: &OneShotSpec) -> Result<(), String> {
    let s = Setup::run(spec.net)?;
    let r = itne_core::certify_global(
        &s.net,
        &spec.net.domain(),
        spec.net.delta,
        &oneshot::options(spec, oneshot::THREADS),
    )
    .map_err(|e| e.to_string())?;
    let bits: Vec<String> = r
        .epsilons
        .iter()
        .map(|e| format!("{:#018x}", e.to_bits()))
        .collect();
    println!("{}: eps_bits: [{}]", spec.name, bits.join(", "));
    println!("{}: eps: {:?}", spec.name, r.epsilons);
    println!(
        "{}: eps_under: {:?}",
        spec.name,
        pgd_under(&s.net, spec.net, 0, oneshot::PGD_SAMPLES)
    );
    Ok(())
}

fn main() -> ExitCode {
    // The certifier's defaults read these; a stray value in the caller's
    // environment must not change what is measured.
    for var in ["ITNE_TEST_THREADS", "ITNE_CHECK_CERTS", "ITNE_TEST_ENGINE"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().collect();
    if let Some(name) = flag(&args, "--record") {
        let Some(spec) = one_shot(name) else {
            return usage();
        };
        return match record(spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag(&args, "--workload"),
        flag(&args, "--seed").and_then(|v| v.parse::<u64>().ok()),
        flag(&args, "--seconds").and_then(|v| v.parse::<u64>().ok()),
        flag(&args, "--trace").and_then(|v| v.parse::<u8>().ok()),
    ) else {
        return usage();
    };
    let traced = trace == 1;
    let result = match (workload, one_shot(workload)) {
        (_, Some(spec)) if traced => oneshot::traced(spec, seed),
        (_, Some(spec)) => oneshot::timed(spec, seed, seconds),
        ("serve-sweep", None) if traced => sweep::traced(seed),
        ("serve-sweep", None) => sweep::timed(seed, seconds),
        _ => return usage(),
    };
    match result {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
