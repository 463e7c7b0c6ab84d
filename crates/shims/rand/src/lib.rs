//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! the subset of the `rand 0.8` API the repository actually uses:
//! [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! methods `gen`, `gen_range`, `gen_bool`, and `fill`. The generator is
//! xoshiro256++ seeded through SplitMix64 — the same construction real
//! `SmallRng` uses on 64-bit targets — so streams are deterministic,
//! well-mixed, and fast. It is **not** cryptographically secure, which
//! matches the upstream `SmallRng` contract.

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 bits of the stream.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types producible by [`Rng::gen`] (the shim's stand-in for the
/// `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample(rng: &mut dyn RngCore) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample(rng: &mut dyn RngCore) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut dyn RngCore) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single(self, rng: &mut dyn RngCore) -> T;
}

// Every span fits in 64 bits plus one (the full inclusive range of a
// 64-bit type), so the offset is a single `u64` modulo of the draw: a
// `u128` modulo would be a software division on every draw. The full
// range, whose span 2^64 overflows `u64`, takes the draw itself — what
// `draw % 2^64` is.
macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = rng.next_u64() % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let draw = rng.next_u64();
                let offset = match ((end as i128 - start as i128) as u64).checked_add(1) {
                    Some(span) => draw % span,
                    None => draw,
                };
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing generator methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws one value of an inferable type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws one value uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256++, the same
    /// algorithm `rand 0.8`'s `SmallRng` uses on 64-bit targets).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as real SmallRng does for u64 seeds.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl SmallRng {
        /// Exposes the raw xoshiro256++ state words — checkpoint
        /// persistence. Round-trips through [`SmallRng::from_state`]:
        /// the restored generator continues the stream exactly where
        /// this one stands.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from persisted state words (the inverse
        /// of [`SmallRng::state`]).
        pub fn from_state(s: [u64; 4]) -> Self {
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SampleRange, SeedableRng};

    #[test]
    fn streams_are_seed_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u8 = rng.gen_range(1..=35u8);
            assert!((1..=35).contains(&y));
        }
    }

    /// Samples `range` and checks every draw against the original
    /// 128-bit formula `start + draw % span`, on a twin generator.
    fn assert_matches_u128_modulo<T, R>(range: R, start: i128, span: u128)
    where
        T: Into<i128>,
        R: SampleRange<T> + Clone,
    {
        let mut rng = SmallRng::seed_from_u64(span as u64 ^ 0x5eed);
        let mut twin = rng.clone();
        for _ in 0..512 {
            let got: i128 = range.clone().sample_single(&mut rng).into();
            let want = start + (u128::from(twin.next_u64()) % span) as i128;
            assert_eq!(got, want, "span {span:#x} from {start}");
        }
        // One draw per sample: the streams are still in step.
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn gen_range_matches_the_u128_modulo_on_every_span_width() {
        const TWO_63: u64 = 1 << 63;
        assert_matches_u128_modulo(5u64..6, 5, 1);
        assert_matches_u128_modulo(0u64..2, 0, 2);
        assert_matches_u128_modulo(10u64..13, 10, 3);
        assert_matches_u128_modulo(0u64..1 << 32, 0, 1 << 32);
        assert_matches_u128_modulo(0u64..=TWO_63, 0, u128::from(TWO_63) + 1);
        assert_matches_u128_modulo(0u64..u64::MAX, 0, u128::from(u64::MAX));
        assert_matches_u128_modulo(0u64..=u64::MAX, 0, 1 << 64);
        assert_matches_u128_modulo(i64::MIN..=i64::MAX, i64::MIN.into(), 1 << 64);
        assert_matches_u128_modulo(-100i8..27, -100, 127);
        assert_matches_u128_modulo(i8::MIN..=-1, i8::MIN.into(), 128);
        assert_matches_u128_modulo(i64::MIN..-5, i64::MIN.into(), u128::from(TWO_63) - 5);
        assert_matches_u128_modulo(-3i64..=3, -3, 7);
    }

    #[test]
    fn fill_covers_unaligned_tails() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf[..]);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
