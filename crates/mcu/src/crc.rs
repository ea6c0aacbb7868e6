//! CRC-32 (IEEE 802.3) integrity stamps for checkpoint banks.
//!
//! Every hardened runtime stamps the bank it commits with a CRC-32 over
//! the bank payload and validates the stamp before restoring at reboot.
//! The polynomial is the reflected IEEE one (`0xEDB8_8320`). Checkpoint
//! banks for the large-footprint programs run to tens of kilobytes and
//! are re-validated on every commit, so the CRC is on the host-side hot
//! path of every checkpointing runtime. The simulator therefore runs it
//! *slice-by-8*: eight 256-entry tables, built at compile time from the
//! bytewise table, fold eight input bytes per step with eight
//! independent lookups; the bytewise table finishes a tail shorter than
//! eight bytes. (The tables are a host-speed concern only — the stamp
//! value is identical to the bitwise form an MSP430 runtime would
//! compute.)

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time lookup table for [`POLY`], built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slice-by-8 tables: `SLICES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, so `SLICES[0] == TABLE`.
const SLICES: [[u32; 256]; 8] = {
    let mut slices = [TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// Advances the raw register `crc` over `data` one byte at a time.
fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32/ISO-HDLC (the zlib/PNG/Ethernet CRC) of `data`.
///
/// Init `0xFFFF_FFFF`, reflected polynomial `0xEDB8_8320`, final XOR
/// `0xFFFF_FFFF`. Check value: `crc32(b"123456789") == 0xCBF4_3926`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Streaming CRC-32 over multiple chunks, equivalent to [`crc32`] of
/// their concatenation. Lets callers stamp a header-plus-payload bank
/// without first copying the parts into one buffer.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh digest.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the digest: eight bytes per step, then the
    /// tail bytewise.
    pub fn update(&mut self, data: &[u8]) {
        let t = &SLICES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(c[4])]
                ^ t[2][usize::from(c[5])]
                ^ t[1][usize::from(c[6])]
                ^ t[0][usize::from(c[7])];
        }
        self.state = bytewise(crc, chunks.remainder());
    }

    /// Returns the CRC of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_yields_zero() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn single_bit_flip_changes_the_crc() {
        let a = [0u8; 64];
        let mut b = a;
        b[37] ^= 0x10;
        assert_ne!(crc32(&a), crc32(&b));
    }

    #[test]
    fn is_position_sensitive() {
        assert_ne!(crc32(&[1, 2, 3, 4]), crc32(&[4, 3, 2, 1]));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Crc32::new();
        h.update(&data[..13]);
        h.update(&data[13..700]);
        h.update(&data[700..]);
        assert_eq!(h.finish(), crc32(&data));
    }

    /// Deterministic non-repeating test bytes.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect()
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_table_at_every_length() {
        let data = bytes(256);
        for len in 0..=256 {
            let d = &data[..len];
            assert_eq!(crc32(d), !bytewise(0xFFFF_FFFF, d), "length {len}");
        }
    }

    #[test]
    fn streaming_split_at_every_point_matches_one_shot() {
        let data = bytes(97);
        let whole = crc32(&data);
        for at in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..at]);
            h.update(&data[at..]);
            assert_eq!(h.finish(), whole, "split at {at}");
        }
    }

    #[test]
    fn table_matches_the_bitwise_form() {
        // The bitwise reference the table was derived from.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &byte in data {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (POLY & mask);
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        assert_eq!(crc32(&data), bitwise(&data));
    }
}
