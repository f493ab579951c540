//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim
//! provides the exact API subset the workspace uses: [`RngCore`],
//! [`Rng`] (with `gen`, `gen_range`, `gen_bool`, `fill`),
//! [`SeedableRng`], [`rngs::StdRng`] and [`seq::SliceRandom`].
//!
//! `StdRng` is a xoshiro256++ generator seeded through SplitMix64. It
//! does **not** produce the same stream as the real `rand::rngs::StdRng`
//! (ChaCha12); nothing in this workspace depends on the concrete stream,
//! only on determinism given a seed, which this shim guarantees.

/// The core of a random number generator: raw output blocks.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Values samplable uniformly from their whole domain (`Rng::gen`).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty => $via:ident),+ $(,)?) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )+};
}

impl_standard_uint!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64, usize => next_u64);
impl_standard_uint!(i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64, isize => next_u64);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for i128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample_standard(rng) as i128
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable by `Rng::gen_range`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` using the widening-multiply reduction
/// (bias < 2^-64, irrelevant here; determinism is what matters).
#[inline]
fn reduce_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

#[inline]
fn reduce_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    if span <= u128::from(u64::MAX) {
        u128::from(reduce_u64(rng, span as u64))
    } else {
        // Rejection sampling over the full 128-bit domain.
        let zone = u128::MAX - (u128::MAX - span + 1) % span;
        loop {
            let v = u128::sample_standard(rng);
            if v <= zone {
                return v % span;
            }
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty as $wide:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u128;
                self.start.wrapping_add(reduce_u128(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128;
                if span == u128::MAX {
                    return <$t as Standard>::sample_standard(rng);
                }
                lo.wrapping_add(reduce_u128(rng, span + 1) as $t)
            }
        }
    )+};
}

impl_sample_range!(
    u8 as u8, u16 as u16, u32 as u32, u64 as u64, u128 as u128, usize as usize,
    i8 as u8, i16 as u16, i32 as u32, i64 as u64, i128 as u128, isize as usize,
);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// Buffers fillable by `Rng::fill`.
pub trait Fill {
    /// Fills `self` with random data.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw over `T`'s whole domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform draw from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }

    /// Fills `dest` with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` via SplitMix64 seed expansion.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not the real `rand` StdRng stream — see the crate docs.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&bytes[..n]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(b);
            }
            // An all-zero state would be a fixed point; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB, 1];
            }
            StdRng { s }
        }
    }
}

pub mod seq {
    //! Slice sampling helpers.

    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly chosen element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (*rng).gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (*rng).gen_range(0..self.len());
                Some(&self[i])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let u = rng.gen_range(0usize..=0);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_uniform_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn dyn_rngcore_supports_rng_methods() {
        let mut rng = StdRng::seed_from_u64(4);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v = dyn_rng.gen_range(0u64..=9);
        assert!(v < 10);
        let b: bool = dyn_rng.gen();
        let _ = b;
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "overwhelmingly unlikely to be identity");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
