//! CRC-32 (IEEE 802.3 polynomial, the one zlib/gzip/PNG use), computed by
//! slicing-by-8 (Kounavis & Berry, *A Systematic Approach to Building High
//! Performance Software-based CRC Generators*, ISCC 2005): eight input bytes
//! per step through eight tables, with the bytewise algorithm's values.
//!
//! Every durable byte in this crate — WAL record payloads and the snapshot
//! segment body — travels under one of these checksums, so recovery can
//! tell a torn or corrupted tail from valid data without trusting lengths.
//! [`Crc32`] is incremental, so a checksum over several fields needs no
//! copy of them. Std-only and dependency-free.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slice tables, built at compile time. `TABLES[0]` is the bytewise
/// table; `TABLES[k][b]` is the CRC register after byte `b` is followed by
/// `k` zero bytes, so one step can fold a byte `k` places ahead.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 * 8 {
        let (k, b) = (i / 256, i % 256);
        tables[k][b] = if k == 0 {
            let (mut crc, mut bit) = (b as u32, 0);
            while bit < 8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
                bit += 1;
            }
            crc
        } else {
            let prev = tables[k - 1][b];
            (prev >> 8) ^ tables[0][(prev & 0xFF) as usize]
        };
        i += 1;
    }
    tables
};

/// An incremental CRC-32: [`Crc32::update`] any number of times from
/// `Crc32::default()`, then [`Crc32::finish`]. It holds the complement of
/// the CRC register, so the empty state is zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Crc32(u32);

impl Crc32 {
    /// Feeds `bytes`, eight at a time through the slice tables and the
    /// remainder bytewise.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = !self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let x = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ u64::from(crc);
            crc = (0..8).fold(0, |acc, i| acc ^ t[7 - i][(x >> (8 * i)) as usize & 0xFF]);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = !crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        self.0
    }
}

/// The CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table walk the slicing kernel replaced, kept as the
    /// reference it must agree with.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_answer_vectors() {
        // The standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sliced kernel equals the bytewise walk on byte strings of
        /// every length up to 300, starting at each of eight alignments, and
        /// an input fed through the incremental state in two pieces, at any
        /// cut, gives the one-shot value.
        #[test]
        fn the_sliced_kernel_agrees_with_the_bytewise_walk(
            bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..301),
        ) {
            let whole = reference(&bytes);
            for offset in 0..8 {
                let mut shifted = vec![0xA5u8; offset];
                shifted.extend_from_slice(&bytes);
                prop_assert_eq!(crc32(&shifted[offset..]), whole, "offset {}", offset);
            }
            for cut in 0..=bytes.len() {
                let mut crc = Crc32::default();
                crc.update(&bytes[..cut]);
                crc.update(&bytes[cut..]);
                prop_assert_eq!(crc.finish(), whole, "cut at {}", cut);
            }
        }
    }
}
