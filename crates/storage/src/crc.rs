//! CRC-32 (IEEE 802.3, the zlib polynomial, reflected, init/xorout `!0`):
//! the one checksum behind both integrity layers, the per-frame CRC of the
//! [`wal`](crate::wal) and the per-page seal of
//! [`checked`](crate::checked).
//!
//! A sealed page pays this function on every read and every write, so its
//! speed is the wall-clock price of verification. The kernel is the
//! "braided" shape zlib ≥ 1.2.12 uses, in safe portable code: the input is
//! cut into 32-byte blocks of four little-endian 8-byte words, and word
//! `i` of every block belongs to lane `i`. A lane folds its register into
//! its next word and looks each of the eight bytes up in the table that
//! carries it across the *other* three lanes' words as well (31 − k zero
//! bytes behind byte `k`), so the four lanes never wait on each other and
//! their table loads overlap. The last block recombines the lanes with
//! plain slicing-by-8 (7 − k zero bytes behind byte `k`), one word after
//! the other; whatever is left after it, and any input shorter than two
//! blocks (every WAL frame), goes through the byte loop.

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
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
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

/// CRC-32 checksum (IEEE polynomial, reflected, init/xorout `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
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
    for &b in tail {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the kernel replaced, kept as its oracle.
    fn reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every length around the byte-loop/braid switch and every count
        /// of braided blocks and tail bytes up to five blocks, plus page
        /// sizes, each from every start offset into the buffer (words are
        /// read unaligned).
        #[test]
        fn kernel_equals_bytewise_reference(seed in any::<u64>()) {
            let mut state = seed;
            let buf: Vec<u8> = (0..16384 + 16)
                .map(|_| {
                    state = crate::fault::splitmix64(state);
                    state as u8
                })
                .collect();
            for len in (0..=160).chain([4095, 4096, 4097, 16384]) {
                for start in 0..16 {
                    let data = &buf[start..start + len];
                    prop_assert_eq!(crc32(data), reference(data), "len {} start {}", len, start);
                }
            }
        }
    }
}
