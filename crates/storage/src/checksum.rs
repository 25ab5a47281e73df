//! The one checksum every persisted byte is covered by: page record
//! trailers, [`BlobId`](crate::BlobId)s and the frame trailers of every
//! sidecar and dump structure.
//!
//! [`checksum`] is word-parallel: four independent xor-multiply-rotate
//! lanes consume 32-byte stripes (one little-endian `u64` per lane), the
//! lanes are summed, the length is mixed in, the remaining 0..=31 bytes are
//! folded in as little-endian words (the last one zero-padded), and a
//! bijective finaliser avalanches the result. The lanes carry no dependency
//! on each other, so the multiply latency that bounds a byte-serial fold
//! overlaps four ways and the loop runs near memory speed.
//!
//! **Detection guarantee.** Every step is a bijection both of the running
//! state (for a fixed input word) and of the input word (for a fixed
//! state): xor, multiplication by an odd constant, rotation and wrapping
//! addition are all invertible on `u64`. A corruption confined to one
//! 8-byte word at an offset that is a multiple of 8 from the start of the
//! buffer therefore changes the state after that word's step, and every
//! later step carries the difference through to the result — such a
//! corruption is detected *always*, not with probability 1 − 2⁻⁶⁴. Every
//! single-bit flip is of that shape. Wider corruption, truncation and
//! extension are detected with the usual 64-bit probability.
//!
//! **Data written by earlier builds** carries the byte-serial FNV-1a value
//! ([`fnv1a`]) in the same eight bytes. There is no format flag: the read
//! side ([`verify_checksum`]) compares against [`checksum`] first and
//! consults the legacy function only on mismatch, so new data pays one
//! fast pass and old pages, run files, blobs and frames still verify. The
//! price is a second 64-bit candidate on the failure path only (a corrupt
//! object is accepted if its bytes happen to FNV-hash to the stored value:
//! 2⁻⁶⁴ per corrupt read). No write path calls [`fnv1a`].

use crate::error::{Result, StorageError};

// Odd 64-bit constants (the xxHash64 primes).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// Bytes consumed per iteration of the lane loop.
const STRIPE: usize = 32;

/// Initial lane states (distinct, so equal words in different lanes do
/// not cancel).
const SEEDS: [u64; 4] = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];

/// One lane step: a bijection of `lane` for fixed `word` and of `word`
/// for fixed `lane`.
#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(P1).rotate_left(31)
}

/// Fold one tail word into the merged state (bijective in both).
#[inline(always)]
fn tail_step(h: u64, word: u64) -> u64 {
    (h ^ lane_step(0, word))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// 64-bit checksum of `bytes`. See the module docs for the construction
/// and its single-word detection guarantee.
pub fn checksum(bytes: &[u8]) -> u64 {
    let [mut a, mut b, mut c, mut d] = SEEDS;
    let mut stripes = bytes.chunks_exact(STRIPE);
    for s in &mut stripes {
        a = lane_step(a, le_word(&s[0..8]));
        b = lane_step(b, le_word(&s[8..16]));
        c = lane_step(c, le_word(&s[16..24]));
        d = lane_step(d, le_word(&s[24..32]));
    }
    let mut h = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18))
        .wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = tail_step(h, le_word(w));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = tail_step(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// FNV-1a-style 64-bit fold (with this repo's historical multiplier): the
/// checksum that builds before the word-parallel [`checksum`] wrote.
/// Retained only so their data still verifies (the fallback arm of
/// [`verify_checksum`]) and as a reference for tests that hand-build such
/// data; nothing writes it any more.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Verify `bytes` against the checksum `expected` recorded when they were
/// written, accepting the legacy function on mismatch (see the module
/// docs). A failure is a typed [`StorageError::ChecksumMismatch`] naming
/// `what` and carrying the stored value and this build's checksum of the
/// bytes actually read.
pub fn verify_checksum(what: impl std::fmt::Display, bytes: &[u8], expected: u64) -> Result<()> {
    let actual = checksum(bytes);
    if actual == expected || fnv1a(bytes) == expected {
        return Ok(());
    }
    Err(StorageError::checksum_mismatch(
        what.to_string(),
        expected,
        actual,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use proptest::prelude::*;

    /// The same function one byte at a time: a streaming state machine
    /// that assembles little-endian words from single bytes and never
    /// looks at a slice wider than one byte.
    fn reference(bytes: &[u8]) -> u64 {
        let striped = bytes.len() / STRIPE * STRIPE;
        let mut lanes = SEEDS;
        let (mut word, mut filled) = (0u64, 0usize);
        for (i, &b) in bytes[..striped].iter().enumerate() {
            word |= (b as u64) << (8 * filled);
            filled += 1;
            if filled == 8 {
                let lane = (i / 8) % 4;
                lanes[lane] = (lanes[lane] ^ word).wrapping_mul(P1).rotate_left(31);
                (word, filled) = (0, 0);
            }
        }
        let mut h = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18))
            .wrapping_add(bytes.len() as u64);
        let fold = |h: u64, w: u64| {
            (h ^ w.wrapping_mul(P1).rotate_left(31))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4)
        };
        for &b in &bytes[striped..] {
            word |= (b as u64) << (8 * filled);
            filled += 1;
            if filled == 8 {
                h = fold(h, word);
                (word, filled) = (0, 0);
            }
        }
        if filled > 0 {
            h = fold(h, word);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// Deterministic pseudo-random buffer (the proptest shim generates
    /// short vectors slowly; lengths up to a page come from a seed).
    fn buffer(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = crate::fault::splitmix64(s);
                s as u8
            })
            .collect()
    }

    /// The properties every buffer must satisfy: equals the reference;
    /// every proper prefix, every zero extension by up to a stripe and
    /// every single-bit flip changes the value. Short buffers are checked
    /// exhaustively, long ones on a spread of positions chosen by `pick`
    /// (plus the prefixes next to the end).
    fn assert_properties(buf: &[u8], pick: u64) {
        let len = buf.len();
        let sum = checksum(buf);
        assert_eq!(sum, reference(buf), "len {len}");

        let spread = |n: usize, count: u64| -> Vec<usize> {
            match n {
                0 => Vec::new(),
                _ if n as u64 <= 4 * count => (0..n).collect(),
                _ => (0..count)
                    .map(|i| (crate::fault::splitmix64(pick ^ i) % n as u64) as usize)
                    .collect(),
            }
        };
        let near_end = [1, 8, 32]
            .into_iter()
            .filter_map(|back| len.checked_sub(back));
        for cut in spread(len, 32).into_iter().chain(near_end) {
            assert_ne!(checksum(&buf[..cut]), sum, "len {len}: prefix {cut}");
        }
        let mut longer = buf.to_vec();
        for _ in 0..STRIPE {
            longer.push(0);
            assert_ne!(
                checksum(&longer),
                sum,
                "len {len}: extended to {}",
                longer.len()
            );
        }
        let mut bad = buf.to_vec();
        for bit in spread(len * 8, 256) {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&bad), sum, "len {len}: bit {bit}");
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_tail_length_and_the_empty_input_hold_the_properties() {
        for len in (0..=3 * STRIPE + 1).chain(PAGE_SIZE - 1..=PAGE_SIZE + 64) {
            assert_properties(&buffer(len, len as u64), 1);
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_page_is_detected() {
        let mut buf = buffer(PAGE_SIZE, 7);
        let clean = checksum(&buf);
        for bit in 0..PAGE_SIZE * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&buf), clean, "bit {bit}");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn any_corruption_confined_to_one_aligned_word_is_detected() {
        // The guarantee is structural (every step is a bijection), so it
        // holds for arbitrary replacement words, not only single bits.
        let buf = buffer(PAGE_SIZE + 13, 11);
        let clean = checksum(&buf);
        for word in 0..buf.len().div_ceil(8) {
            let (lo, hi) = (word * 8, (word * 8 + 8).min(buf.len()));
            for seed in 0..4u64 {
                let mut bad = buf.clone();
                let noise = buffer(hi - lo, seed ^ word as u64);
                if noise == buf[lo..hi] {
                    continue;
                }
                bad[lo..hi].copy_from_slice(&noise);
                assert_ne!(checksum(&bad), clean, "word {word}");
            }
        }
    }

    #[test]
    fn legacy_values_verify_and_foreign_values_do_not() {
        let buf = buffer(1000, 3);
        verify_checksum("new", &buf, checksum(&buf)).unwrap();
        verify_checksum("legacy", &buf, fnv1a(&buf)).unwrap();
        let err = verify_checksum("neither", &buf, checksum(&buf) ^ 1).unwrap_err();
        match err {
            StorageError::ChecksumMismatch {
                what,
                expected,
                actual,
            } => {
                assert_eq!(what, "neither");
                assert_eq!(expected, checksum(&buf) ^ 1);
                assert_eq!(actual, checksum(&buf));
            }
            other => panic!("expected ChecksumMismatch, got {other}"),
        }
        // The legacy arm must stay the function earlier builds wrote, down
        // to its multiplier (2^44 + 0x1b3, not the textbook 2^40 + 0x1b3):
        // these are the values f25e1d4 computes.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    proptest! {
        #[test]
        fn prop_checksum_properties(len in 0usize..=PAGE_SIZE + 64, seed: u64, pick: u64) {
            assert_properties(&buffer(len, seed), pick);
        }
    }
}
