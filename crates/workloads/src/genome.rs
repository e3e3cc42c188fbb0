//! Instance *genomes* for the automated adversary search (ROADMAP item 4a).
//!
//! A [`Genome`] is a compact, mutation-friendly description of a
//! rate-limited `[Δ|1|D_ℓ|D_ℓ]` instance: the reconfiguration cost Δ plus
//! one [`ColorGene`] per color (delay-bound exponent, batch size, burst
//! period/phase/count, all in units of the color's block). Decoding is
//! *total and deterministic*: every genome — including one produced by an
//! arbitrary mutation — decodes to a well-formed instance, because
//! [`Genome::normalized`] clamps each field into its legal range first.
//! The search loop in `rrs-search` therefore never has to reject or repair
//! offspring.
//!
//! The genome space deliberately contains the paper's two appendix
//! constructions: Appendix A is "`n/2` short genes with `period = 1`
//! churning Δ-sized batches, one long gene with a single `2^k`-job burst";
//! Appendix B is "one blinking short gene plus `n/2` single-burst long
//! genes". The evolutionary search rediscovers these families instead of
//! replaying them (see `tests/adversaries.rs`).
//!
//! The compact text encoding (`d<Δ>|e:b:p:f:u|…`, one segment per gene) is
//! the identity currency of the whole subsystem: it appears in search
//! journals, in committed corpus fixtures, and in `rrs-cli
//! adversary-search` output. [`parse_genome`] ∘ [`Genome::encode`] is the
//! identity on normalized genomes.

use std::num::TryFromIntError;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrs_model::{Instance, InstanceBuilder};

/// Maximum colors a genome may carry (keeps the OPT referee feasible).
pub const MAX_COLORS: usize = 6;
/// Maximum delay-bound exponent: bounds range over `2^0 ..= 2^MAX_BOUND_EXP`.
pub const MAX_BOUND_EXP: u8 = 6;
/// Maximum bursts per gene.
pub const MAX_BURSTS: u16 = 16;
/// Maximum burst period, in blocks.
pub const MAX_PERIOD: u16 = 8;
/// Maximum phase offset of the first burst, in blocks.
pub const MAX_PHASE: u16 = 8;
/// Maximum reconfiguration cost Δ.
pub const MAX_DELTA: u64 = 16;

/// One color's arrival pattern, in units of the color's own block
/// (`D_ℓ = 2^bound_exp` rounds): `bursts` batches of `batch` jobs, one at
/// the start of every `period`-th block beginning at block `phase`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ColorGene {
    /// Delay-bound exponent: the color's bound is `2^bound_exp`.
    pub bound_exp: u8,
    /// Jobs per burst (clamped to `1..=2^bound_exp`, keeping the instance
    /// rate-limited).
    pub batch: u64,
    /// Blocks between consecutive bursts (clamped to `1..=MAX_PERIOD`).
    pub period: u16,
    /// Blocks before the first burst (clamped to `0..=MAX_PHASE`).
    pub phase: u16,
    /// Number of bursts (clamped to `0..=MAX_BURSTS`).
    pub bursts: u16,
}

impl ColorGene {
    /// The gene with every field clamped into its legal range.
    pub fn normalized(self) -> Self {
        let bound_exp = self.bound_exp.min(MAX_BOUND_EXP);
        let bound = 1u64 << bound_exp;
        Self {
            bound_exp,
            batch: self.batch.clamp(1, bound),
            period: self.period.clamp(1, MAX_PERIOD),
            phase: self.phase.min(MAX_PHASE),
            bursts: self.bursts.min(MAX_BURSTS),
        }
    }

    /// The color's delay bound `2^bound_exp` (after clamping).
    pub fn bound(&self) -> u64 {
        1u64 << self.bound_exp.min(MAX_BOUND_EXP)
    }

    /// Total jobs this gene contributes (after clamping).
    pub fn jobs(&self) -> u64 {
        let g = self.normalized();
        g.batch * u64::from(g.bursts)
    }
}

/// A complete instance genome: Δ plus one gene per color.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Genome {
    /// Reconfiguration cost Δ (clamped to `1..=MAX_DELTA`).
    pub delta: u64,
    /// Per-color arrival patterns (truncated to `MAX_COLORS`).
    pub colors: Vec<ColorGene>,
}

impl Genome {
    /// The genome with Δ and every gene clamped into legal ranges — the
    /// canonical form used by [`Genome::encode`] and the decoder.
    pub fn normalized(&self) -> Self {
        Self {
            delta: self.delta.clamp(1, MAX_DELTA),
            colors: self.colors.iter().take(MAX_COLORS).map(|g| g.normalized()).collect(),
        }
    }

    /// Decode to a rate-limited instance. Total: every genome decodes, and
    /// the result always satisfies `check_rate_limited` (arrivals only at
    /// multiples of the color's bound, batches of at most the bound).
    pub fn decode(&self) -> Instance {
        let g = self.normalized();
        let mut b = InstanceBuilder::new(g.delta);
        for gene in &g.colors {
            let bound = gene.bound();
            let c = b.color(bound);
            for i in 0..u64::from(gene.bursts) {
                let block = u64::from(gene.phase) + i * u64::from(gene.period);
                b.arrive(block * bound, c, gene.batch);
            }
        }
        b.build()
    }

    /// Total jobs the decoded instance will carry.
    pub fn total_jobs(&self) -> u64 {
        self.normalized().colors.iter().map(ColorGene::jobs).sum()
    }

    /// A structural size measure for the shrinker: strictly decreasing
    /// under every accepted shrink step, so shrinking terminates.
    pub fn size(&self) -> u64 {
        let g = self.normalized();
        let fields: u64 = g
            .colors
            .iter()
            .map(|c| {
                u64::from(c.bound_exp)
                    + c.batch
                    + u64::from(c.period)
                    + u64::from(c.phase)
                    + u64::from(c.bursts)
            })
            .sum();
        g.delta + 100 * g.colors.len() as u64 + fields
    }

    /// The compact text encoding: `d<Δ>|e:b:p:f:u|…` with one
    /// `bound_exp:batch:period:phase:bursts` segment per gene, over the
    /// normalized form. Stable across releases — it is the corpus and
    /// journal wire format.
    pub fn encode(&self) -> String {
        let g = self.normalized();
        let mut s = format!("d{}", g.delta);
        for c in &g.colors {
            s.push_str(&format!(
                "|{}:{}:{}:{}:{}",
                c.bound_exp, c.batch, c.period, c.phase, c.bursts
            ));
        }
        s
    }
}

/// Parse the compact encoding produced by [`Genome::encode`].
pub fn parse_genome(text: &str) -> Result<Genome, String> {
    let mut parts = text.trim().split('|');
    let head = parts.next().ok_or("empty genome")?;
    let delta: u64 = head
        .strip_prefix('d')
        .ok_or_else(|| format!("genome must start with 'd<delta>', got '{head}'"))?
        .parse()
        .map_err(|e| format!("bad delta in '{head}': {e}"))?;
    let mut colors = Vec::new();
    for seg in parts {
        let fields: Vec<&str> = seg.split(':').collect();
        if fields.len() != 5 {
            return Err(format!("gene '{seg}' must have 5 ':'-separated fields"));
        }
        let num = |i: usize, what: &str| -> Result<u64, String> {
            fields[i].parse().map_err(|e| format!("bad {what} in gene '{seg}': {e}"))
        };
        let wide = |_: TryFromIntError| format!("gene '{seg}' has a field out of range");
        colors.push(ColorGene {
            bound_exp: u8::try_from(num(0, "bound_exp")?).map_err(wide)?,
            batch: num(1, "batch")?,
            period: u16::try_from(num(2, "period")?).map_err(wide)?,
            phase: u16::try_from(num(3, "phase")?).map_err(wide)?,
            bursts: u16::try_from(num(4, "bursts")?).map_err(wide)?,
        });
    }
    if colors.len() > MAX_COLORS {
        return Err(format!("genome has {} genes (max {MAX_COLORS})", colors.len()));
    }
    let g = Genome { delta, colors };
    let normalized = g.normalized();
    if normalized != g {
        return Err(format!(
            "genome '{text}' is not in canonical form (expected '{}')",
            normalized.encode()
        ));
    }
    Ok(g)
}

/// A uniformly random (normalized) gene.
fn random_gene(rng: &mut StdRng) -> ColorGene {
    let bound_exp = rng.random_range(0u8..=MAX_BOUND_EXP);
    ColorGene {
        bound_exp,
        batch: rng.random_range(1..=(1u64 << bound_exp)),
        period: rng.random_range(1..=MAX_PERIOD),
        phase: rng.random_range(0..=MAX_PHASE),
        bursts: rng.random_range(0..=MAX_BURSTS),
    }
    .normalized()
}

/// A random genome with `1..=MAX_COLORS` genes, seeded deterministically.
pub fn random_genome(seed: u64) -> Genome {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..=MAX_COLORS);
    let colors = (0..n).map(|_| random_gene(&mut rng)).collect();
    Genome { delta: rng.random_range(1..=MAX_DELTA), colors }.normalized()
}

/// Nudge `v` by up to ±`step`, clamped to `[lo, hi]`.
fn nudge_u64(rng: &mut StdRng, v: u64, step: u64, lo: u64, hi: u64) -> u64 {
    let delta = rng.random_range(1..=step);
    if rng.random_bool(0.5) {
        v.saturating_add(delta).min(hi)
    } else {
        v.saturating_sub(delta).max(lo)
    }
}

/// One seeded mutation: a structural edit (add/remove/duplicate a gene)
/// with small probability, otherwise a field nudge on one gene or Δ.
/// Always returns a normalized genome.
pub fn mutate(genome: &Genome, rng: &mut StdRng) -> Genome {
    let mut g = genome.normalized();
    let structural = rng.random_range(0u32..10);
    match structural {
        // Add a fresh random gene.
        0 if g.colors.len() < MAX_COLORS => g.colors.push(random_gene(rng)),
        // Remove a gene (never the last one).
        1 if g.colors.len() > 1 => {
            let i = rng.random_range(0..g.colors.len());
            g.colors.remove(i);
        }
        // Duplicate a gene — the cheap route to "n/2 short colors".
        2 if !g.colors.is_empty() && g.colors.len() < MAX_COLORS => {
            let i = rng.random_range(0..g.colors.len());
            let copy = g.colors[i];
            g.colors.push(copy);
        }
        // Nudge Δ.
        3 => g.delta = nudge_u64(rng, g.delta, 2, 1, MAX_DELTA),
        // Field nudge on one gene.
        _ => {
            if g.colors.is_empty() {
                g.colors.push(random_gene(rng));
            } else {
                let i = rng.random_range(0..g.colors.len());
                let c = &mut g.colors[i];
                match rng.random_range(0u32..5) {
                    0 => {
                        c.bound_exp =
                            nudge_u64(rng, u64::from(c.bound_exp), 1, 0, u64::from(MAX_BOUND_EXP))
                                as u8
                    }
                    1 => {
                        // Step proportional to the bound so large batches
                        // remain reachable from small ones.
                        let step = (c.bound() / 4).max(1);
                        c.batch = nudge_u64(rng, c.batch, step, 1, c.bound());
                    }
                    2 => {
                        c.period =
                            nudge_u64(rng, u64::from(c.period), 1, 1, u64::from(MAX_PERIOD)) as u16
                    }
                    3 => {
                        c.phase =
                            nudge_u64(rng, u64::from(c.phase), 2, 0, u64::from(MAX_PHASE)) as u16
                    }
                    _ => {
                        c.bursts =
                            nudge_u64(rng, u64::from(c.bursts), 4, 0, u64::from(MAX_BURSTS)) as u16
                    }
                }
            }
        }
    }
    g.normalized()
}

/// One-point crossover over the gene lists; Δ comes from either parent.
/// Always returns a normalized genome with at least one gene (when either
/// parent has one).
pub fn crossover(a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
    let (a, b) = (a.normalized(), b.normalized());
    let cut_a = if a.colors.is_empty() { 0 } else { rng.random_range(0..=a.colors.len()) };
    let cut_b = if b.colors.is_empty() { 0 } else { rng.random_range(0..=b.colors.len()) };
    let mut colors: Vec<ColorGene> = a.colors[..cut_a].to_vec();
    colors.extend_from_slice(&b.colors[cut_b..]);
    if colors.is_empty() {
        colors = if a.colors.is_empty() { b.colors.clone() } else { a.colors.clone() };
    }
    colors.truncate(MAX_COLORS);
    Genome { delta: if rng.random_bool(0.5) { a.delta } else { b.delta }, colors }.normalized()
}

/// All single-step simplifications of a genome, in a fixed deterministic
/// order, each strictly smaller under [`Genome::size`]. The shrinker in
/// `rrs-search` re-evaluates them in order and keeps the first that still
/// meets its ratio threshold.
pub fn shrink_candidates(genome: &Genome) -> Vec<Genome> {
    let g = genome.normalized();
    let mut out = Vec::new();
    let mut push = |cand: Genome| {
        let cand = cand.normalized();
        if cand.size() < g.size() {
            out.push(cand);
        }
    };
    // Drop a whole gene (most aggressive first).
    if g.colors.len() > 1 {
        for i in 0..g.colors.len() {
            let mut c = g.clone();
            c.colors.remove(i);
            push(c);
        }
    }
    // Halve, then decrement, each numeric field.
    for i in 0..g.colors.len() {
        let gene = g.colors[i];
        let mut variants: Vec<ColorGene> = Vec::new();
        if gene.bursts > 0 {
            variants.push(ColorGene { bursts: gene.bursts / 2, ..gene });
            variants.push(ColorGene { bursts: gene.bursts - 1, ..gene });
        }
        if gene.batch > 1 {
            variants.push(ColorGene { batch: gene.batch / 2, ..gene });
            variants.push(ColorGene { batch: gene.batch - 1, ..gene });
        }
        if gene.bound_exp > 0 {
            variants.push(ColorGene { bound_exp: gene.bound_exp - 1, ..gene });
        }
        if gene.period > 1 {
            variants.push(ColorGene { period: gene.period - 1, ..gene });
        }
        if gene.phase > 0 {
            variants.push(ColorGene { phase: gene.phase / 2, ..gene });
            variants.push(ColorGene { phase: gene.phase - 1, ..gene });
        }
        for v in variants {
            let mut c = g.clone();
            c.colors[i] = v;
            push(c);
        }
    }
    // Cheapen Δ.
    if g.delta > 1 {
        push(Genome { delta: g.delta / 2, colors: g.colors.clone() });
        push(Genome { delta: g.delta - 1, colors: g.colors.clone() });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rrs_model::classify::{check_power_of_two_bounds, check_rate_limited};

    fn arb_gene() -> impl Strategy<Value = ColorGene> {
        // Deliberately wider than the legal ranges: decode must clamp.
        (0u8..=20, 0u64..=1000, 0u16..=50, 0u16..=200, 0u16..=500).prop_map(
            |(bound_exp, batch, period, phase, bursts)| ColorGene {
                bound_exp,
                batch,
                period,
                phase,
                bursts,
            },
        )
    }

    fn arb_genome() -> impl Strategy<Value = Genome> {
        (0u64..=100, prop::collection::vec(arb_gene(), 0..=MAX_COLORS))
            .prop_map(|(delta, colors)| Genome { delta, colors })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_genome_decodes_to_a_well_formed_instance(g in arb_genome()) {
            let inst = g.decode();
            prop_assert!(inst.check_colors());
            prop_assert!(inst.delta >= 1 && inst.delta <= MAX_DELTA);
            prop_assert!(inst.colors.len() <= MAX_COLORS);
            prop_assert!(check_rate_limited(&inst).is_ok(), "not rate-limited: {:?}", g);
            prop_assert!(check_power_of_two_bounds(&inst).is_ok());
            prop_assert_eq!(inst.total_jobs(), g.total_jobs());
        }

        #[test]
        fn encode_parse_round_trips(g in arb_genome()) {
            let canonical = g.normalized();
            let parsed = parse_genome(&canonical.encode()).expect("canonical encoding parses");
            prop_assert_eq!(parsed, canonical);
        }

        #[test]
        fn mutation_and_crossover_stay_normalized(g in arb_genome(), h in arb_genome(), seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = mutate(&g, &mut rng);
            prop_assert_eq!(m.clone(), m.normalized());
            let x = crossover(&g, &h, &mut rng);
            prop_assert_eq!(x.clone(), x.normalized());
            prop_assert!(x.colors.len() <= MAX_COLORS);
        }

        #[test]
        fn shrink_candidates_strictly_decrease_size(g in arb_genome()) {
            let g = g.normalized();
            for cand in shrink_candidates(&g) {
                prop_assert!(cand.size() < g.size(), "{:?} vs {:?}", cand, g);
                prop_assert_eq!(cand.clone(), cand.normalized());
            }
        }
    }

    #[test]
    fn random_genomes_are_deterministic_per_seed() {
        assert_eq!(random_genome(42), random_genome(42));
        assert_ne!(random_genome(42), random_genome(43));
    }

    #[test]
    fn decode_is_deterministic() {
        let g = random_genome(7);
        assert_eq!(g.decode(), g.decode());
    }

    #[test]
    fn appendix_a_shape_is_expressible() {
        // Appendix A at n=4, Δ=2, j=4, k=6: two short churners + one long
        // backlog. The decoded instance matches the handcrafted generator's
        // arrivals exactly.
        let short = ColorGene { bound_exp: 4, batch: 2, period: 1, phase: 0, bursts: 4 };
        let long = ColorGene { bound_exp: 6, batch: 64, period: 1, phase: 0, bursts: 1 };
        let g = Genome { delta: 2, colors: vec![short, short, long] };
        let inst = g.decode();
        let adv = crate::adversary::lru_killer(crate::adversary::LruKillerParams {
            n: 4,
            delta: 2,
            j: 4,
            k: 6,
        });
        assert_eq!(inst, adv.instance);
    }

    #[test]
    fn parser_rejects_malformed_and_non_canonical() {
        assert!(parse_genome("").is_err());
        assert!(parse_genome("x2|1:1:1:0:1").is_err());
        assert!(parse_genome("d2|1:1:1").is_err());
        assert!(parse_genome("d2|1:nope:1:0:1").is_err());
        // Non-canonical: batch 9 exceeds bound 2^1 = 2.
        assert!(parse_genome("d2|1:9:1:0:1").is_err());
        // Fields too wide for their gene type, which would otherwise wrap
        // to the canonical `d3|3:1:1:0:1`.
        assert!(parse_genome("d3|259:1:1:0:1").is_err());
        assert!(parse_genome("d3|3:1:65537:0:1").is_err());
        // Too many genes.
        let seg = "|1:1:1:0:1".repeat(MAX_COLORS + 1);
        assert!(parse_genome(&format!("d2{seg}")).is_err());
    }

    #[test]
    fn empty_gene_list_decodes_to_empty_instance() {
        let g = Genome { delta: 3, colors: Vec::new() };
        let inst = g.decode();
        assert_eq!(inst.total_jobs(), 0);
        assert_eq!(inst.horizon(), 0);
        assert_eq!(parse_genome(&g.encode()).unwrap(), g.normalized());
    }
}
