//! The four workloads: what each generates from `--seed`, at full and smoke
//! size, and the pinned digests that keep a generator change from silently
//! redefining the benchmark.

use rrs_model::to_text;
use rrs_workloads::{
    bursty_instance, general_instance, rate_limited_instance, zipf_popularity, BurstyConfig,
    GeneralConfig, RateLimitedConfig, ZipfConfig,
};

/// Locations handed to every online policy: the paper's `n = 8m` with
/// `m = 1`.
pub const N_LOCATIONS: usize = 8;

/// The seed the pins below were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Smoke sizing divides every workload's size by this.
pub const SMOKE_DIVISOR: u64 = 64;

/// stream_checkpoint emits a snapshot at every multiple of this round.
pub const CHECKPOINT_EVERY: u64 = 4096;

/// Instances the offline referee prices per rep (E3-shaped).
const OPT_INSTANCES: u64 = 400;

const BURSTY_BOUNDS: [u64; 16] = [2, 4, 8, 16, 2, 4, 8, 16, 32, 64, 3, 5, 7, 12, 24, 48];
const STREAM_BOUNDS: [u64; 8] = [1, 2, 3, 4, 5, 8, 12, 16];
const STREAM_COLORS: usize = 24;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf popularity over a 10⁵-color universe, full stack.
    ZipfWide,
    /// 16 on/off colors over 2¹⁹ rounds, full stack.
    BurstyNarrow,
    /// A 24-color text stream with a JSONL trace and periodic snapshots,
    /// then a resume from the midpoint snapshot.
    StreamCheckpoint,
    /// 400 E3-shaped instances priced by the exact OPT and by ΔLRU-EDF.
    OptReferee,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ZipfWide,
        Workload::BurstyNarrow,
        Workload::StreamCheckpoint,
        Workload::OptReferee,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfWide => "zipf_wide",
            Workload::BurstyNarrow => "bursty_narrow",
            Workload::StreamCheckpoint => "stream_checkpoint",
            Workload::OptReferee => "opt_referee",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload's generated input: the `.rrs` text the program is handed
/// (one text per instance), and the job count it encodes.
#[derive(Debug)]
pub struct Input {
    pub texts: Vec<String>,
    pub jobs: u64,
    /// Rounds of arrivals (the streamed run's checkpoint plan keys off it).
    pub rounds: u64,
}

impl Input {
    /// Total text bytes.
    pub fn bytes(&self) -> u64 {
        self.texts.iter().map(|t| t.len() as u64).sum()
    }

    /// FNV-1a (64-bit) over every text in order.
    pub fn digest(&self) -> u64 {
        self.texts
            .iter()
            .flat_map(|t| t.bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The identity the parent compares across processes and to [`PINS`].
    pub fn identity(&self) -> String {
        format!("{:016x} {} {}", self.digest(), self.bytes(), self.jobs)
    }
}

/// Generate `w`'s input for `seed`, at full size or at
/// 1/[`SMOKE_DIVISOR`] of it.
pub fn generate(w: Workload, seed: u64, smoke: bool) -> Input {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    match w {
        Workload::ZipfWide => {
            let cfg = ZipfConfig {
                num_colors: (100_000 / div) as usize,
                rounds: 4096 / div,
                draws_per_round: 32,
                exponent: 1.1,
                ..ZipfConfig::default()
            };
            let inst = zipf_popularity(&cfg, seed);
            Input { jobs: inst.total_jobs(), texts: vec![to_text(&inst)], rounds: cfg.rounds }
        }
        Workload::BurstyNarrow => {
            let cfg = BurstyConfig {
                bounds: BURSTY_BOUNDS.to_vec(),
                rounds: (1 << 19) / div,
                ..BurstyConfig::default()
            };
            let inst = bursty_instance(&cfg, seed);
            Input { jobs: inst.total_jobs(), texts: vec![to_text(&inst)], rounds: cfg.rounds }
        }
        Workload::StreamCheckpoint => {
            let cfg = GeneralConfig {
                delta: 4,
                bounds: STREAM_BOUNDS.iter().copied().cycle().take(STREAM_COLORS).collect(),
                rounds: (1 << 19) / div,
                arrival_prob: 0.05,
                max_burst: 3,
            };
            let inst = general_instance(&cfg, seed);
            Input { jobs: inst.total_jobs(), texts: vec![to_text(&inst)], rounds: cfg.rounds }
        }
        Workload::OptReferee => {
            // Instance i uses seed + i, E3's convention of seeds as
            // instance indices.
            let n = (OPT_INSTANCES / div).max(1);
            let insts: Vec<_> = (0..n)
                .map(|i| rate_limited_instance(&RateLimitedConfig::default(), seed.wrapping_add(i)))
                .collect();
            Input {
                jobs: insts.iter().map(|i| i.total_jobs()).sum(),
                texts: insts.iter().map(to_text).collect(),
                rounds: RateLimitedConfig::default().rounds,
            }
        }
    }
}

/// A workload's input at full size for [`DEFAULT_SEED`].
pub struct Pin {
    pub workload: Workload,
    pub digest: u64,
    pub bytes: u64,
    pub jobs: u64,
}

impl Pin {
    /// The pinned identity, in [`Input::identity`]'s form.
    pub fn identity(&self) -> String {
        format!("{:016x} {} {}", self.digest, self.bytes, self.jobs)
    }
}

/// Pinned full-size inputs for [`DEFAULT_SEED`]. A mismatch means a change
/// to `rrs_workloads` (or to the text encoding) redefined the benchmark;
/// re-pin only together with a fresh baseline.
pub const PINS: [Pin; 4] = [
    Pin {
        workload: Workload::ZipfWide,
        digest: 0x6646_a9f1_d3e0_8941,
        bytes: 3_274_874,
        jobs: 131_072,
    },
    Pin {
        workload: Workload::BurstyNarrow,
        digest: 0x5623_ceba_5d54_9a81,
        bytes: 8_700_549,
        jobs: 2_790_642,
    },
    Pin {
        workload: Workload::StreamCheckpoint,
        digest: 0xc9c6_8373_e776_bf3c,
        bytes: 11_539_389,
        jobs: 1_256_183,
    },
    Pin {
        workload: Workload::OptReferee,
        digest: 0xde7f_c328_9743_48ae,
        bytes: 273_601,
        jobs: 37_737,
    },
];

/// The pin for `w`.
pub fn pin(w: Workload) -> &'static Pin {
    PINS.iter().find(|p| p.workload == w).expect("every workload is pinned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_values() {
        let input = |t: &str| Input { texts: vec![t.to_string()], jobs: 0, rounds: 0 };
        assert_eq!(input("").digest(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(input("a").digest(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(input("foobar").digest(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = generate(w, 7, true);
            assert_eq!(a.identity(), generate(w, 7, true).identity(), "{}", w.name());
            assert_ne!(a.identity(), generate(w, 8, true).identity(), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
