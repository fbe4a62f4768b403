//! The workspace's one seeded generator, and the property-test runner
//! built on it.
//!
//! Every random draw that can reach a report — the permutation filter's
//! shuffles, the simulators, the forest's bootstrap — comes from an
//! [`Rng`] seeded by [`Rng::seed_from_u64`]. The generator is
//! xoshiro256++ (Blackman & Vigna) with its 256-bit state filled by four
//! SplitMix64 outputs; integer ranges are drawn by widening multiply,
//! float ranges from the top 53 bits. All of it is integer or exactly
//! specified IEEE arithmetic, so one seed yields the same stream on every
//! machine, build profile and toolchain.
//!
//! [`forall`] runs a property over many seeded cases and names the
//! failing case's seed; there is no shrinking.
//!
//! ```
//! use baywatch_stats::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let die = rng.random_range(1..=6u32);
//! assert!((1..=6).contains(&die));
//! let mut deck: Vec<u32> = (0..52).collect();
//! rng.shuffle(&mut deck);
//! assert_eq!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(7).next_u64());
//! ```

use std::io::Write as _;
use std::ops::{Range, RangeInclusive};

/// The SplitMix64 increment (the golden ratio in 64-bit fixed point).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective mix of one word.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the first four outputs of a SplitMix64
    /// stream started at `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(GAMMA);
            splitmix64(state)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `range`: `a..b` (non-empty) or `a..=b`, over
    /// any primitive integer type or `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<T: Uniform>(&mut self, range: impl SampleRange<T>) -> T {
        range.sample(self)
    }

    /// Shuffles `items` uniformly in place (Fisher–Yates, from the top).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.random_range(0..=i));
        }
    }

    /// A uniformly chosen element of `items`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            items.get(self.random_range(0..items.len()))
        }
    }

    /// Uniform in `[0, span)` by widening multiply (bias < 2⁻⁶⁴·span).
    fn below(&mut self, span: u128) -> u128 {
        debug_assert!(span > 0 && span <= 1 << 64);
        (u128::from(self.next_u64()) * span) >> 64
    }
}

/// A type [`Rng::random_range`] draws uniformly.
pub trait Uniform: Copy + PartialOrd {
    /// Uniform in `[low, high)`; `high > low`.
    fn half_open(low: Self, high: Self, rng: &mut Rng) -> Self;
    /// Uniform in `[low, high]`; `high >= low`.
    fn inclusive(low: Self, high: Self, rng: &mut Rng) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn half_open(low: Self, high: Self, rng: &mut Rng) -> Self {
                assert!(low < high, "cannot sample empty range");
                let span = (high as i128 - low as i128) as u128;
                (low as i128 + rng.below(span) as i128) as $t
            }
            fn inclusive(low: Self, high: Self, rng: &mut Rng) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                (low as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Uniform for f64 {
    fn half_open(low: Self, high: Self, rng: &mut Rng) -> Self {
        assert!(low < high, "cannot sample empty range");
        // 53 random mantissa bits → u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = low + u * (high - low);
        // Rounding may land exactly on `high`; step back inside.
        if v >= high {
            low
        } else {
            v
        }
    }

    fn inclusive(low: Self, high: Self, rng: &mut Rng) -> Self {
        assert!(low <= high, "cannot sample empty range");
        let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        low + u * (high - low)
    }
}

/// The range argument of [`Rng::random_range`]. One generic impl per range
/// kind, not one per element type, so integer-literal ranges infer.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        T::half_open(self.start, self.end, rng)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        T::inclusive(*self.start(), *self.end(), rng)
    }
}

/// Runs `property` on `cases` generators, case `i` seeded by the `i`-th
/// output of a SplitMix64 stream started at `seed`. If a case panics, its
/// seed is printed to stderr before the panic propagates, so
/// `property(&mut Rng::seed_from_u64(<seed>))` replays it alone. There is
/// no shrinking.
pub fn forall(cases: u32, seed: u64, mut property: impl FnMut(&mut Rng)) {
    let mut state = seed;
    for case in 0..cases {
        state = state.wrapping_add(GAMMA);
        let case_seed = splitmix64(state);
        let _report = FailingCase {
            case,
            seed: case_seed,
        };
        property(&mut Rng::seed_from_u64(case_seed));
    }
}

/// Drop guard of one [`forall`] case: names the case only when dropped
/// by an unwinding panic. It writes to stderr directly and ignores write
/// errors, since a panic inside `drop` while unwinding aborts.
struct FailingCase {
    case: u32,
    seed: u64,
}

impl Drop for FailingCase {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = writeln!(
                std::io::stderr(),
                "forall: case {} failed; replay with Rng::seed_from_u64({:#x})",
                self.case,
                self.seed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_are_pinned() {
        // xoshiro256++ behind SplitMix64 seeding — the stream every
        // committed golden and benchmark was measured on. Any change here
        // changes every seeded report.
        for (seed, want) in [
            (
                0,
                [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc],
            ),
            (
                1,
                [0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520],
            ),
            (
                u64::MAX,
                [0x56ccf8ce948e27b2, 0xe68588432e5a5b90, 0xe3e9b5a48119ca8b],
            ),
        ] {
            let mut rng = Rng::seed_from_u64(seed);
            assert_eq!([rng.next_u64(), rng.next_u64(), rng.next_u64()], want);
        }
    }

    #[test]
    fn range_and_shuffle_sequences_are_pinned() {
        let mut rng = Rng::seed_from_u64(42);
        let ints: Vec<u64> = (0..4).map(|_| rng.random_range(10..1_000)).collect();
        let inclusive: Vec<i32> = (0..4).map(|_| rng.random_range(-3..=3)).collect();
        let floats: Vec<u64> = (0..2)
            .map(|_| rng.random_range(0.5..2.5f64).to_bits())
            .collect();
        let mut deck: Vec<u8> = (0..8).collect();
        rng.shuffle(&mut deck);
        assert_eq!(ints, [816, 325, 984, 704]);
        assert_eq!(inclusive, [2, 1, -3, 1]);
        // 0.9154343432466432, 2.3666942352896614
        assert_eq!(floats, [0x3fed4b3cf6bc2572, 0x4002eefd63219b4a]);
        assert_eq!(deck, [2, 6, 3, 1, 0, 7, 5, 4]);
    }

    #[test]
    fn choose_draws_an_index_and_none_from_empty() {
        let mut rng = Rng::seed_from_u64(3);
        let mut again = rng.clone();
        let items = [10, 20, 30, 40, 50];
        let picked = rng.choose(&items).copied();
        assert_eq!(picked, Some(items[again.random_range(0..items.len())]));
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng, again, "an empty slice consumes no draw");
    }

    #[test]
    fn cases_get_distinct_seeds_and_replay() {
        let mut firsts = Vec::new();
        forall(64, 9, |rng| firsts.push(rng.next_u64()));
        let mut unique = firsts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 64);
        let mut again = Vec::new();
        forall(64, 9, |rng| again.push(rng.next_u64()));
        assert_eq!(firsts, again);
    }

    #[test]
    fn a_failing_property_prints_its_seed() {
        // Re-run this test in a child process where the property fails,
        // and read the seed off its stderr.
        const CHILD: &str = "BAYWATCH_FORALL_CHILD";
        if std::env::var_os(CHILD).is_some() {
            forall(100, 1, |rng| assert!(rng.random_range(0..10u32) != 7));
            return;
        }
        let exe = std::env::current_exe().unwrap();
        let out = std::process::Command::new(exe)
            .args(["--exact", "rng::tests::a_failing_property_prints_its_seed"])
            .args(["--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(!out.status.success(), "the child's property must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let at = stderr.find("Rng::seed_from_u64(0x").expect("seed printed");
        let hex: String = stderr[at + 21..]
            .chars()
            .take_while(char::is_ascii_hexdigit)
            .collect();
        let seed = u64::from_str_radix(&hex, 16).unwrap();
        let replay = std::panic::catch_unwind(|| {
            let mut rng = Rng::seed_from_u64(seed);
            assert!(rng.random_range(0..10u32) != 7);
        });
        assert!(replay.is_err(), "the printed seed replays the failure");
    }
}
