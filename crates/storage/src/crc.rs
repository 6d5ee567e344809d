//! CRC-32 (IEEE 802.3, the zlib polynomial, reflected, init/xorout `!0`):
//! the one checksum behind both integrity layers, the per-frame CRC of the
//! [`wal`](crate::wal) and the per-page seal of
//! [`checked`](crate::checked).
//!
//! A sealed page pays this function on every read and every write, so its
//! speed is the wall-clock price of verification. Three kernels sit behind
//! the one [`crc32`], chosen from what the machine and the input are,
//! never from a setting; they return the same 32 bits for every input.
//!
//! * **Carry-less multiply, 512-bit** (`x86_64` with `avx512f` and
//!   `vpclmulqdq` as well as the 128-bit kernel's two, inputs of at least
//!   256 bytes: every page). The 128-bit kernel's folding, four lanes to a
//!   register and four registers side by side: each of the sixteen lanes
//!   folds one 16-byte slice of every 256-byte round, its halves
//!   multiplied by `x^(2048±32) mod P`, so a round costs eight
//!   instructions of four multiplies each. The four registers then fold
//!   into one 64 bytes at a time, the remaining 64-byte blocks fold into
//!   that one, and its four lanes finish exactly as the 128-bit kernel's.
//! * **Carry-less multiply, 128-bit** (`x86_64` with `pclmulqdq` and
//!   `sse4.1`, inputs of at least 64 bytes: 64–255 bytes, and every page
//!   on a CPU without AVX-512). Four 128-bit lanes each fold one 16-byte
//!   slice of every 64-byte block: the lane's two halves are multiplied
//!   by `x^(512±32) mod P` and XORed into the slice 64 bytes on, so a
//!   block costs eight multiplies and no table load. The four lanes then
//!   fold into one, the remaining 16-byte slices fold into that one by
//!   one, and 128 bits reduce to 64 and, by Barrett reduction, to the
//!   32-bit register. The up to 15 bytes behind the last slice go through
//!   the byte loop. The folding constants of both carry-less kernels are
//!   not pasted: `fold_constants` derives them from the polynomial at
//!   compile time.
//! * **Braided tables** (every other target, older CPUs, inputs under 64
//!   bytes: every WAL frame, whose payload is at most 17 bytes and so
//!   runs on the byte loop alone). The shape zlib ≥ 1.2.12 uses, in safe
//!   portable code: the input is cut into 32-byte blocks of four
//!   little-endian 8-byte words, and word `i` of every block belongs to
//!   lane `i`. A lane folds its register into its next word and looks
//!   each of the eight bytes up in the table that carries it across the
//!   *other* three lanes' words as well (31 − k zero bytes behind byte
//!   `k`), so the four lanes never wait on each other and their table
//!   loads overlap. The last block recombines the lanes with plain
//!   slicing-by-8 (7 − k zero bytes behind byte `k`), one word after the
//!   other; whatever is left after it, and any input shorter than two
//!   blocks, goes through the byte loop.
//!
//! The call into the carry-less-multiply kernels is the workspace's one
//! `unsafe` block: a kernel is chosen as a fn pointer under the feature
//! check that makes running it sound, then called once, and every other
//! crate forbids the keyword. The kernels themselves load their lanes
//! with `from_le_bytes`, not through pointers.

/// The polynomial, reflected: bit `31 − d` is the coefficient of `x^d`
/// (the `x^32` term is implied).
const POLY: u32 = 0xEDB8_8320;

/// `c · x mod P` on a reflected register: one bit of CRC.
const fn times_x(c: u32) -> u32 {
    if c & 1 != 0 {
        POLY ^ (c >> 1)
    } else {
        c >> 1
    }
}

const LANES: usize = 4;
const WORD: usize = 8;
const BLOCK: usize = LANES * WORD;

/// `TABLES[n][b]` is the register after byte `b` and `n` zero bytes, from
/// a zero register. `TABLES[0]` is the classic 256-entry table; CRC is
/// linear over XOR, so every wider step is a XOR of these.
static TABLES: [[u32; 256]; BLOCK] = tables();

const fn tables() -> [[u32; 256]; BLOCK] {
    let mut t = [[0u32; 256]; BLOCK];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut k = 0;
        while k < 8 {
            c = times_x(c);
            k += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut n = 1;
    while n < BLOCK {
        let mut b = 0;
        while b < 256 {
            let c = t[n - 1][b];
            t[n][b] = (c >> 8) ^ t[0][(c & 0xFF) as usize];
            b += 1;
        }
        n += 1;
    }
    t
}

/// The register after the eight bytes of `w` (first byte lowest) and
/// `SPAN - WORD` further zero bytes, from a zero register.
#[inline(always)]
fn fold<const SPAN: usize>(w: u64) -> u32 {
    (0..WORD).fold(0, |c, k| {
        c ^ TABLES[SPAN - 1 - k][(w >> (8 * k)) as u8 as usize]
    })
}

#[inline(always)]
fn words(block: &[u8; BLOCK]) -> [u64; LANES] {
    let (words, _) = block.as_chunks::<WORD>();
    std::array::from_fn(|i| u64::from_le_bytes(words[i]))
}

/// The register after `data`, from register `c`, one byte at a time.
fn bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The register after `data`, from register `c`: the portable kernel.
fn braided(mut c: u32, data: &[u8]) -> u32 {
    let mut tail = data;
    if data.len() >= 2 * BLOCK {
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        let (last, braided) = blocks.split_last().expect("at least two blocks");
        tail = rest;
        let mut lanes = [0u32; LANES];
        lanes[0] = c;
        for block in braided {
            let w = words(block);
            lanes = std::array::from_fn(|i| fold::<BLOCK>(u64::from(lanes[i]) ^ w[i]));
        }
        let w = words(last);
        c = 0;
        for i in 0..LANES {
            c = fold::<WORD>(u64::from(c ^ lanes[i]) ^ w[i]);
        }
    }
    bytewise(c, tail)
}

/// What the carry-less-multiply kernels multiply by, each a 33-bit
/// reflected polynomial.
#[cfg(any(target_arch = "x86_64", test))]
struct FoldConstants {
    /// `x^(2048+32) mod P` and `x^(2048−32) mod P`: carry the low and the
    /// high half of a lane 256 bytes on.
    k2080: u64,
    k2016: u64,
    /// `x^(512+32) mod P` and `x^(512−32) mod P`: the same, 64 bytes on.
    k544: u64,
    k480: u64,
    /// `x^(128+32) mod P` and `x^(128−32) mod P`: the same, 16 bytes on.
    k160: u64,
    k96: u64,
    /// `x^64 mod P`: folds 96 bits to 64.
    k64: u64,
    /// `P` itself, all 33 coefficients.
    p: u64,
    /// `⌊x^64 / P⌋`, the Barrett quotient estimate.
    mu: u64,
}

#[cfg(any(target_arch = "x86_64", test))]
const FOLD: FoldConstants = fold_constants();

/// Derive [`FoldConstants`] from [`POLY`] by long division of `x^n` by
/// `P`, one [`times_x`] per power. A remainder `r` is stored as
/// `reflect32(r) << 1` and a 33-bit polynomial as `reflect33`, the forms
/// in which a 64×64-bit carry-less product of reflected operands lines up
/// with the reflected 128-bit lane.
#[cfg(any(target_arch = "x86_64", test))]
const fn fold_constants() -> FoldConstants {
    let mut k = [0u64; 2081];
    let mut mu = 0u64;
    // The polynomial 1: the coefficient of x^0 is bit 31.
    let mut r = 0x8000_0000u32;
    let mut n = 0;
    while n < k.len() {
        k[n] = (r as u64) << 1;
        // The quotient's bit for x^(63−n) is set when x·r reaches x^32;
        // after 64 steps the bit for x^0 has arrived at bit 32.
        if n < 64 {
            mu = (mu >> 1) | (((r & 1) as u64) << 32);
        }
        r = times_x(r);
        n += 1;
    }
    FoldConstants {
        k2080: k[2080],
        k2016: k[2016],
        k544: k[544],
        k480: k[480],
        k160: k[160],
        k96: k[96],
        k64: k[64],
        p: ((POLY as u64) << 1) | 1,
        mu,
    }
}

/// The hardware kernels: 4×128-bit folding with `PCLMULQDQ` ("Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Gopal et al., Intel 2009; the shape of zlib's `crc32_simd`), and the
/// same folding on four 512-bit registers with `VPCLMULQDQ`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{bytewise, FOLD};
    use std::arch::x86_64::*;

    /// Bytes in a 128-bit lane.
    const LANE: usize = 16;
    /// Lanes folded side by side, and lanes in a 512-bit register.
    const LANES: usize = 4;
    /// Bytes in a block: one lane each, or one 512-bit register.
    const BLOCK: usize = LANE * LANES;
    /// 512-bit registers folded side by side: 256 bytes a round.
    const REGS: usize = 4;

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn pair(hi: u64, lo: u64) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// A 16-byte slice as a lane, first byte lowest: one unaligned load.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8; LANE]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        pair((v >> 64) as u64, v as u64)
    }

    /// `x` carried forward onto `next`: its low half times the low half
    /// of `k`, its high half times the high half, both XORed into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// A 64-byte block as four lanes, first lane lowest.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lanes(block: &[u8; BLOCK]) -> [__m128i; LANES] {
        let (l, _) = block.as_chunks::<LANE>();
        [lane(&l[0]), lane(&l[1]), lane(&l[2]), lane(&l[3])]
    }

    /// A 64-byte block as one 512-bit register, first lane lowest: built
    /// from four [`lane`]s, and compiled to one unaligned 512-bit load.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn block512(block: &[u8; BLOCK]) -> __m512i {
        let [l0, l1, l2, l3] = lanes(block);
        _mm512_inserti64x4::<1>(
            _mm512_castsi256_si512(_mm256_set_m128i(l1, l0)),
            _mm256_set_m128i(l3, l2),
        )
    }

    /// [`fold`] on each of the four lanes of `x`, `k` holding one pair of
    /// constants per lane.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold512(x: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(x, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(x, k);
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// The register after `data`, from register `c`, on 4×128-bit lanes.
    /// Inputs shorter than one 64-byte block are legal and run on the
    /// byte loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn kernel(c: u32, data: &[u8]) -> u32 {
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        let Some((first, blocks)) = blocks.split_first() else {
            return bytewise(c, data);
        };
        let mut x = lanes(first);
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k = pair(FOLD.k480, FOLD.k544);
        for block in blocks {
            let next = lanes(block);
            for i in 0..LANES {
                x[i] = fold(x[i], k, next[i]);
            }
        }
        finish(x, rest)
    }

    /// The register after `data`, from register `c`, on 4×512-bit
    /// registers: each of their sixteen lanes folds one 16-byte slice of
    /// every 256-byte round. The four registers then fold into one 64
    /// bytes at a time, the remaining 64-byte blocks fold into that one,
    /// and its four lanes are where [`kernel`]'s would be. Inputs shorter
    /// than one round are legal and run on [`kernel`].
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    pub(super) fn wide(c: u32, data: &[u8]) -> u32 {
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        let (rounds, singles) = blocks.as_chunks::<REGS>();
        let Some((first, rounds)) = rounds.split_first() else {
            return kernel(c, data);
        };
        let mut x = [
            block512(&first[0]),
            block512(&first[1]),
            block512(&first[2]),
            block512(&first[3]),
        ];
        x[0] = _mm512_xor_si512(x[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(c as i32)));
        let k = _mm512_broadcast_i32x4(pair(FOLD.k2016, FOLD.k2080));
        for round in rounds {
            for i in 0..REGS {
                x[i] = fold512(x[i], k, block512(&round[i]));
            }
        }
        let k = _mm512_broadcast_i32x4(pair(FOLD.k480, FOLD.k544));
        let mut x1 = x[0];
        for &next in &x[1..] {
            x1 = fold512(x1, k, next);
        }
        for single in singles {
            x1 = fold512(x1, k, block512(single));
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(x1),
            _mm512_extracti32x4_epi32::<1>(x1),
            _mm512_extracti32x4_epi32::<2>(x1),
            _mm512_extracti32x4_epi32::<3>(x1),
        ];
        finish(lanes, rest)
    }

    /// The register after `lanes`, which hold the last 64-byte block
    /// folded so far, and the under 64 bytes of `rest` behind them: the
    /// lanes fold into one, `rest`'s 16-byte slices fold into that one by
    /// one, 128 bits reduce to 64 and, by Barrett reduction, to 32, and
    /// the up to 15 bytes behind the last slice go through the byte loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn finish(lanes: [__m128i; LANES], rest: &[u8]) -> u32 {
        let (singles, tail) = rest.as_chunks::<LANE>();
        let k = pair(FOLD.k96, FOLD.k160);
        let mut x1 = lanes[0];
        for &next in &lanes[1..] {
            x1 = fold(x1, k, next);
        }
        for single in singles {
            x1 = fold(x1, k, lane(single));
        }
        // 128 → 64 bits: the low half, carried 64 bits on, meets the high.
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        let carried = _mm_clmulepi64_si128::<0x10>(x1, k);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), carried);
        // 96 → 64 bits: the low 32, carried 32 bits on, meet the rest.
        let rest = _mm_srli_si128::<4>(x1);
        let k = pair(0, FOLD.k64);
        x1 = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k),
            rest,
        );
        // Barrett: 64 → 32 bits, as x1 − ⌊x1·μ / x^32⌋·P, all mod x^64.
        let p_mu = pair(FOLD.mu, FOLD.p);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), p_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x1, qp)) as u32;
        bytewise(c, tail)
    }
}

/// The carry-less-multiply kernels, by register width.
#[derive(Clone, Copy, Debug)]
enum Clmul {
    /// Four 128-bit lanes, 64 bytes a round (`pclmulqdq` + `sse4.1`).
    Bits128,
    /// Four 512-bit registers, 256 bytes a round (`avx512f` +
    /// `vpclmulqdq`, on top of the 128-bit kernel's two).
    Bits512,
}

/// The register after `data`, from register `c`, on carry-less-multiply
/// kernel `kernel`; `None` where this machine cannot run it.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn hardware(kernel: Clmul, c: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        let run: unsafe fn(u32, &[u8]) -> u32 = match kernel {
            Clmul::Bits128 => clmul::kernel,
            Clmul::Bits512
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("vpclmulqdq") =>
            {
                clmul::wide
            }
            Clmul::Bits512 => return None,
        };
        // SAFETY: `run` is a safe fn compiled for the features detected
        // on the path that chose it: `clmul::kernel` for `pclmulqdq` and
        // `sse4.1`, `clmul::wide` for those two plus `avx512f` and
        // `vpclmulqdq` (and the AVX levels every `avx512f` CPU has).
        // Running on a CPU that has them is its only requirement.
        #[allow(unsafe_code)]
        return Some(unsafe { run(c, data) });
    }
    None
}

/// Shortest input [`crc32`] hands to the 128-bit kernel: one 64-byte
/// block, the least its four lanes can start from.
const HARDWARE_MIN_LEN: usize = 64;

/// Shortest input [`crc32`] hands to the 512-bit kernel: one 256-byte
/// round, the least its four registers can start from.
const WIDE_MIN_LEN: usize = 256;

/// CRC-32 checksum (IEEE polynomial, reflected, init/xorout `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let c = match data.len() {
        WIDE_MIN_LEN.. => {
            hardware(Clmul::Bits512, !0, data).or_else(|| hardware(Clmul::Bits128, !0, data))
        }
        HARDWARE_MIN_LEN.. => hardware(Clmul::Bits128, !0, data),
        _ => None,
    };
    !c.unwrap_or_else(|| braided(!0, data))
}

/// The byte-at-a-time loop the kernels replaced, kept as their oracle
/// (and as the pen that writes "old" seals and frames in the tests of
/// [`checked`](crate::checked) and [`wal`](crate::wal)).
#[cfg(test)]
pub(crate) fn reference(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Known answers, computed with zlib.
    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0x00; 4096]), 0xC71C_0011);
        assert_eq!(crc32(&[0xFF; 4096]), 0xF154_670A);
        let ramp: Vec<u8> = (0..16).flat_map(|_| 0..=255u8).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
    }

    /// The nine constants again, in the unreflected domain and one bit
    /// at a time, against what [`fold_constants`] derived and against the
    /// values every published PCLMULQDQ CRC-32 kernel carries.
    #[test]
    fn folding_constants_are_powers_of_x_mod_p() {
        // All 33 coefficients, x^32 highest.
        const P: u64 = 0x1_04C1_1DB7;
        let reflect32 = |v: u64| u64::from((v as u32).reverse_bits());
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        let x_pow_mod_p = |n: u32| {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r >> 32 != 0 {
                    r ^ P
                } else {
                    r
                }
            })
        };
        let k = |n: u32| reflect32(x_pow_mod_p(n)) << 1;
        // ⌊x^64 / P⌋ by long division: bring down 64 zero bits behind a 1.
        let (quotient, _) = (0..64).fold((0u64, 1u64), |(q, r), _| {
            let r = r << 1;
            if r >> 32 != 0 {
                ((q << 1) | 1, r ^ P)
            } else {
                (q << 1, r)
            }
        });
        let want = [
            (FOLD.k2080, k(2080), 0x1_1542_778a),
            (FOLD.k2016, k(2016), 0x1_322d_1430),
            (FOLD.k544, k(544), 0x1_5444_2bd4),
            (FOLD.k480, k(480), 0x1_c6e4_1596),
            (FOLD.k160, k(160), 0x1_7519_97d0),
            (FOLD.k96, k(96), 0x0_ccaa_009e),
            (FOLD.k64, k(64), 0x1_63cd_6124),
            (FOLD.p, reflect33(P), 0x1_db71_0641),
            (FOLD.mu, reflect33(quotient), 0x1_f701_1641),
        ];
        for (derived, recomputed, published) in want {
            assert_eq!(derived, recomputed, "{derived:#x} vs {recomputed:#x}");
            assert_eq!(derived, published, "{derived:#x} vs {published:#x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every kernel, called by name rather than through the length
        /// dispatch, against the byte loop: every length across the
        /// 64-byte threshold with 0–4 fold-by-4 rounds, 0–3 fold-by-1
        /// rounds and 0–15 tail bytes (and every count of braided blocks
        /// up to ten); 1–3 256-byte rounds with 0–3 64-byte blocks, 0–3
        /// 16-byte slices and 0, 1 or 15 tail bytes behind them; and page
        /// sizes. Each from every start offset into the buffer (words,
        /// lanes and registers are read unaligned).
        #[test]
        fn kernel_equals_bytewise_reference(seed in any::<u64>()) {
            let mut state = seed;
            let buf: Vec<u8> = (0..16384 + 16)
                .map(|_| {
                    state = crate::fault::splitmix64(state);
                    state as u8
                })
                .collect();
            let rounds = (1..=3).flat_map(|r| {
                (0..4).flat_map(move |q| {
                    (0..4).flat_map(move |s| [0, 1, 15].map(|t| 256 * r + 64 * q + 16 * s + t))
                })
            });
            let mut skipped = [false; 2];
            for len in (0..=320).chain(rounds).chain([4095, 4096, 4097, 16384]) {
                for start in 0..16 {
                    let data = &buf[start..start + len];
                    let want = reference(data);
                    prop_assert_eq!(!braided(!0, data), want, "braided: len {} start {}", len, start);
                    for (i, kernel) in [Clmul::Bits128, Clmul::Bits512].into_iter().enumerate() {
                        match hardware(kernel, !0, data) {
                            Some(c) => prop_assert_eq!(!c, want, "{:?}: len {} start {}", kernel, len, start),
                            None => skipped[i] = true,
                        }
                    }
                }
            }
            // CI greps the test log for these notes: on a hosted x86_64
            // runner a skipped 128-bit leg is a failure, not a pass; a
            // skipped 512-bit leg is reported (not every runner has
            // AVX-512).
            if skipped[0] {
                eprintln!("crc: 128-bit kernel NOT exercised (no pclmulqdq + sse4.1)");
            }
            if skipped[1] {
                eprintln!("crc: wide kernel NOT exercised (no avx512f + vpclmulqdq)");
            }
        }
    }
}
