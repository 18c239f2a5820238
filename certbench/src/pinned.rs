//! The pinned networks and the reference answers the workloads check
//! against.
//!
//! The three model files under `data/` are the Table I networks the
//! workloads certify, stored so that set-up only ever *loads*: a file whose
//! lowered weights hash differently from the recorded
//! [`AffineNetwork::weight_hash`] stops the run before anything is timed.

use itne_attack::{pgd_variation, PgdOptions};
use itne_core::ibp::ibp_twin;
use itne_core::{Interval, TwinBounds};
use itne_nn::{AffineNetwork, Network};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::{median, ms, SplitMix};

/// Set-ups per batch; a run takes a batch before each timed repetition and
/// reports the median of all of them as `setup_s`.
pub const SETUP_BATCH: usize = 8;

/// A network stored under `data/` with its recorded weight hash.
#[derive(Debug)]
pub struct PinnedNet {
    /// File name under `data/`.
    pub file: &'static str,
    /// [`AffineNetwork::weight_hash`] of the lowered network.
    pub weight_hash: u64,
    /// Input dimension; the domain is `[0, 1]` on every input.
    pub input_dim: usize,
    /// Table I perturbation bound δ.
    pub delta: f64,
}

/// Table I DNN-4: Auto-MPG, two ReLU layers of 16 (`auto_mpg_net(4, 16)`).
pub const AUTO_MPG_W16: PinnedNet = PinnedNet {
    file: "auto_mpg_w16.json",
    weight_hash: 0x7937_f550_1050_4f58,
    input_dim: 7,
    delta: 0.001,
};

/// The service net: Auto-MPG, two ReLU layers of 48 (`auto_mpg_net(5, 48)`).
pub const AUTO_MPG_W48: PinnedNet = PinnedNet {
    file: "auto_mpg_w48.json",
    weight_hash: 0xee42_73ab_1143_30e8,
    input_dim: 7,
    delta: 0.001,
};

/// Table I DNN-6: one 4-channel stride-2 conv, FC 32, 10 outputs over 14×14
/// digits (`digits_net(6, 1)`, 228 hidden neurons).
pub const DIGITS_C1: PinnedNet = PinnedNet {
    file: "digits_c1.json",
    weight_hash: 0xaa11_43c9_457f_1c71,
    input_dim: 196,
    delta: 2.0 / 255.0,
};

/// A one-shot certification workload and its recorded answers.
#[derive(Debug)]
pub struct OneShotSpec {
    /// Workload name.
    pub name: &'static str,
    /// The network certified.
    pub net: &'static PinnedNet,
    /// Decomposition window `W`.
    pub window: usize,
    /// Selectively-refined neurons per sub-problem.
    pub refine: usize,
    /// Reference `ε̄` per output, as f64 bit patterns.
    pub eps_bits: &'static [u64],
    /// Reference PGD lower bound per output (seed 0; see [`pgd_under`]):
    /// a sound `ε̲ ≤ ε ≤ ε̄` sandwich partner.
    pub eps_under: &'static [f64],
}

/// Branch-and-bound workload: DNN-4, `W = 2`, refine 6.
pub const FC_REFINE: OneShotSpec = OneShotSpec {
    name: "fc-refine",
    net: &AUTO_MPG_W16,
    window: 2,
    refine: 6,
    eps_bits: &[0x3f9c_5233_9000_0000],
    eps_under: &[0.002_076_144_494_685_072_7],
};

/// Large sparse LP workload: DNN-6, `W = 3`, refine 0.
pub const CONV_LP: OneShotSpec = OneShotSpec {
    name: "conv-lp",
    net: &DIGITS_C1,
    window: 3,
    refine: 0,
    eps_bits: &[
        0x4031_25f7_87f0_0000,
        0x402c_4dee_f130_0000,
        0x402b_8106_0be8_0000,
        0x402c_d51b_7e80_0000,
        0x402f_1547_4f70_0000,
        0x4029_a7a0_d730_0000,
        0x402a_5106_e068_0000,
        0x402c_795f_9398_0000,
        0x4025_98ec_d140_0000,
        0x4027_7f35_c4b8_0000,
    ],
    eps_under: &[
        2.740_964_350_803_153_6,
        2.714_601_385_717_415_4,
        2.076_404_538_466_646_5,
        2.066_558_854_219_812,
        2.404_290_050_730_829,
        1.718_738_725_975_264,
        2.528_031_447_431_686_7,
        2.655_132_531_367_108_6,
        1.965_817_142_897_083_9,
        1.827_504_786_329_944_3,
    ],
};

/// The `data/` directory of this package.
pub fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data")
}

impl PinnedNet {
    /// The input box `[0, 1]^input_dim`.
    pub fn domain(&self) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); self.input_dim]
    }

    /// Reads and parses the stored model.
    ///
    /// # Errors
    ///
    /// A message when the file is missing or malformed.
    pub fn load(&self) -> Result<Network, String> {
        let path = data_dir().join(self.file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Network::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", self.file))
    }

    /// Lowers `net` and checks its weight hash against the recorded one.
    ///
    /// # Errors
    ///
    /// A message when lowering fails or the hash differs.
    pub fn lower(&self, net: &Network) -> Result<AffineNetwork, String> {
        let aff = AffineNetwork::from_network(net).map_err(|e| format!("{}: {e}", self.file))?;
        let hash = aff.weight_hash();
        if hash != self.weight_hash {
            return Err(format!(
                "{}: weight hash {hash:#018x}, recorded {:#018x}; the benchmark only loads \
                 pinned models",
                self.file, self.weight_hash
            ));
        }
        Ok(aff)
    }
}

/// One set-up of a one-shot workload, with its phase times.
pub struct Setup {
    /// The parsed network.
    pub net: Network,
    /// Its lowering.
    pub aff: AffineNetwork,
    /// The IBP seed bounds at the workload's δ (kept, so the timed work has
    /// an observable result).
    pub ibp: TwinBounds,
    /// Read + parse time.
    pub load: Duration,
    /// Lowering + hash check time.
    pub lower: Duration,
    /// Twin interval propagation time.
    pub ibp_time: Duration,
}

impl Setup {
    /// Load → lower (hash-checked) → IBP, each phase timed.
    ///
    /// # Errors
    ///
    /// See [`PinnedNet::load`] and [`PinnedNet::lower`].
    pub fn run(p: &PinnedNet) -> Result<Setup, String> {
        let t = Instant::now();
        let net = p.load()?;
        let load = t.elapsed();
        let t = Instant::now();
        let aff = p.lower(&net)?;
        let lower = t.elapsed();
        let domain: Vec<Interval> = p
            .domain()
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi))
            .collect();
        let t = Instant::now();
        let ibp = ibp_twin(&aff, &domain, p.delta);
        let ibp_time = t.elapsed();
        Ok(Setup {
            net,
            aff,
            ibp,
            load,
            lower,
            ibp_time,
        })
    }

    /// Total set-up time.
    pub fn total(&self) -> Duration {
        self.load + self.lower + self.ibp_time
    }
}

/// Set-up times sampled in batches spread over a run: the machine's speed
/// drifts by tens of percent over seconds, and set-ups taken back to back
/// would all land in one phase of it.
#[derive(Clone, Debug, Default)]
pub struct SetupSamples {
    total_s: Vec<f64>,
    lower_ms: Vec<f64>,
    ibp_ms: Vec<f64>,
}

impl SetupSamples {
    /// Runs [`SETUP_BATCH`] set-ups of `p`, recording their times, and
    /// returns the last.
    ///
    /// # Errors
    ///
    /// See [`Setup::run`].
    pub fn batch(&mut self, p: &PinnedNet) -> Result<Setup, String> {
        let mut last = None;
        for _ in 0..SETUP_BATCH {
            let s = Setup::run(p)?;
            self.total_s.push(s.total().as_secs_f64());
            self.lower_ms.push(ms(s.lower));
            self.ibp_ms.push(ms(s.ibp_time));
            last = Some(s);
        }
        Ok(last.expect("SETUP_BATCH is positive"))
    }

    /// Median whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        median(&self.total_s)
    }

    /// Median lowering + hash check, milliseconds.
    pub fn lower_ms(&self) -> f64 {
        median(&self.lower_ms)
    }

    /// Median twin IBP, milliseconds.
    pub fn ibp_ms(&self) -> f64 {
        median(&self.ibp_ms)
    }
}

/// Sound lower bound `ε̲` per output: PGD (both polarities, 3 restarts)
/// around `samples` seeded points of the domain, keeping the worst output
/// variation found. Every value is witnessed by a real input pair, so a
/// certified `ε̄` below it is unsound.
pub fn pgd_under(net: &Network, p: &PinnedNet, seed: u64, samples: usize) -> Vec<f64> {
    let domain = p.domain();
    let mut rng = SplitMix::new(seed ^ 0x5eed_0f9d);
    let mut under = vec![0.0f64; net.output_dim()];
    for s in 0..samples {
        let x: Vec<f64> = domain
            .iter()
            .map(|&(lo, hi)| lo + (hi - lo) * rng.unit())
            .collect();
        let opts = PgdOptions {
            seed: seed.wrapping_add(s as u64),
            ..PgdOptions::default()
        };
        for (j, u) in under.iter_mut().enumerate() {
            let (v, _) = pgd_variation(net, &x, p.delta, j, Some(&domain), &opts);
            *u = u.max(v);
        }
    }
    under
}
