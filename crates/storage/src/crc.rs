//! CRC-32 (IEEE 802.3, the zlib polynomial, reflected, init/xorout `!0`):
//! the one checksum behind both integrity layers, the per-frame CRC of the
//! [`wal`](crate::wal) and the per-page seal of
//! [`checked`](crate::checked).
//!
//! A sealed page pays this function on every read and every write, so its
//! speed is the wall-clock price of verification. Two kernels sit behind
//! the one [`crc32`], chosen from what the machine and the input are,
//! never from a setting; they return the same 32 bits for every input.
//!
//! * **Carry-less multiply** (`x86_64` with `pclmulqdq` and `sse4.1`,
//!   inputs of at least 64 bytes: every page). Four 128-bit lanes each
//!   fold one 16-byte slice of every 64-byte block: the lane's two halves
//!   are multiplied by `x^(512±32) mod P` and XORed into the slice 64
//!   bytes on, so a block costs eight multiplies and no table load. The
//!   four lanes then fold into one, the remaining 16-byte slices fold
//!   into that one by one, and 128 bits reduce to 64 and, by Barrett
//!   reduction, to the 32-bit register. The up to 15 bytes behind the
//!   last slice go through the byte loop. The folding constants are not
//!   pasted: `fold_constants` derives them from the polynomial at compile
//!   time.
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
//! The call into the carry-less-multiply kernel is the workspace's one
//! `unsafe` block: it sits directly under the feature check that makes it
//! sound, and every other crate forbids the keyword.

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

/// What the carry-less-multiply kernel multiplies by, each a 33-bit
/// reflected polynomial.
#[cfg(any(target_arch = "x86_64", test))]
struct FoldConstants {
    /// `x^(512+32) mod P` and `x^(512−32) mod P`: carry the low and the
    /// high half of a lane 64 bytes on.
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
    let mut k = [0u64; 545];
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
        k544: k[544],
        k480: k[480],
        k160: k[160],
        k96: k[96],
        k64: k[64],
        p: ((POLY as u64) << 1) | 1,
        mu,
    }
}

/// The hardware kernel: 4×128-bit folding with `PCLMULQDQ` ("Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Gopal et al., Intel 2009; the shape of zlib's `crc32_simd`).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{bytewise, FOLD};
    use std::arch::x86_64::*;

    /// Bytes in a 128-bit lane.
    const LANE: usize = 16;
    /// Lanes folded side by side.
    const LANES: usize = 4;

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

    /// The register after `data`, from register `c`. Inputs shorter than
    /// one 64-byte block are legal and run on the byte loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn kernel(c: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<LANE>();
        let (blocks, singles) = lanes.as_chunks::<LANES>();
        let Some((first, blocks)) = blocks.split_first() else {
            return bytewise(c, data);
        };
        let mut x = [
            lane(&first[0]),
            lane(&first[1]),
            lane(&first[2]),
            lane(&first[3]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k = pair(FOLD.k480, FOLD.k544);
        for block in blocks {
            for i in 0..LANES {
                x[i] = fold(x[i], k, lane(&block[i]));
            }
        }
        let k = pair(FOLD.k96, FOLD.k160);
        let mut x1 = x[0];
        for &next in &x[1..] {
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

/// The register after `data`, from register `c`, on the hardware kernel;
/// `None` where this machine has none.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn hardware(c: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `clmul::kernel` is a safe fn compiled for `pclmulqdq`
        // and `sse4.1`; running on a CPU that has both is its only
        // requirement, and the line above has just detected both.
        #[allow(unsafe_code)]
        return Some(unsafe { clmul::kernel(c, data) });
    }
    None
}

/// Shortest input [`crc32`] hands to the hardware kernel: one 64-byte
/// block, the least its four lanes can start from.
const HARDWARE_MIN_LEN: usize = 64;

/// CRC-32 checksum (IEEE polynomial, reflected, init/xorout `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() >= HARDWARE_MIN_LEN {
        if let Some(c) = hardware(!0, data) {
            return !c;
        }
    }
    !braided(!0, data)
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

    /// The seven constants again, in the unreflected domain and one bit
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

        /// Both kernels, called directly rather than through the length
        /// dispatch, against the byte loop: every length across the
        /// 64-byte threshold with 0–4 fold-by-4 rounds, 0–3 fold-by-1
        /// rounds and 0–15 tail bytes (and every count of braided blocks
        /// up to ten), plus page sizes, each from every start offset into
        /// the buffer (words and lanes are read unaligned).
        #[test]
        fn kernel_equals_bytewise_reference(seed in any::<u64>()) {
            let mut state = seed;
            let buf: Vec<u8> = (0..16384 + 16)
                .map(|_| {
                    state = crate::fault::splitmix64(state);
                    state as u8
                })
                .collect();
            let mut skipped = false;
            for len in (0..=320).chain([4095, 4096, 4097, 16384]) {
                for start in 0..16 {
                    let data = &buf[start..start + len];
                    let want = reference(data);
                    prop_assert_eq!(!braided(!0, data), want, "braided: len {} start {}", len, start);
                    match hardware(!0, data) {
                        Some(c) => prop_assert_eq!(!c, want, "clmul: len {} start {}", len, start),
                        None => skipped = true,
                    }
                }
            }
            if skipped {
                // CI greps the test log for this note: on a hosted x86_64
                // runner a skipped leg is a failure, not a pass.
                eprintln!("crc: hardware kernel NOT exercised (no pclmulqdq + sse4.1)");
            }
        }
    }
}
