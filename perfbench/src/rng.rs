//! The benchmark's own random source, independent of the simulation RNG.
//!
//! Keys and operation mixes are drawn here, so the program under test
//! receives only generated inputs and its internal RNG stream is never
//! consumed by the load generator.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is below 2^-40 for every n used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform fraction in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed for `stream` of trial `trial` from the
/// command's `--seed`, so the cluster and the generator of every trial
/// draw from unrelated streams that all follow from one argument.
pub fn derive_seed(seed: u64, trial: u64, stream: u64) -> u64 {
    Rng::new(
        seed.wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ trial.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ stream.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
    .next_u64()
}
