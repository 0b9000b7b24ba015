//! FNV-1a 64-bit, the one hash behind every digest and fingerprint in
//! the workspace: boundary payloads, coverage and causal-prefix
//! fingerprints, column and bulk-table digests, and journal digests.
//!
//! [`Fnv::bytes`] folds one byte per round (textbook FNV-1a, [`fnv1a`]);
//! [`Fnv::words`] folds eight little-endian bytes per round, so a
//! million-row column costs one round per word. The two feeds hash the
//! same input differently: each digest keeps the one it was pinned with.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the offset basis.
    pub fn new() -> Fnv {
        Fnv(OFFSET_BASIS)
    }

    /// Folds one byte.
    pub fn byte(&mut self, b: u8) {
        self.word(u64::from(b));
    }

    /// Folds `bytes` one byte per round.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Folds one 64-bit word in a single round.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Folds `bytes` as little-endian 64-bit words, one round per word;
    /// a short tail is zero-padded to a full word.
    pub fn words(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(tail));
        }
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn words_fold_little_endian_with_a_zero_padded_tail() {
        let (mut by_words, mut by_hand) = (Fnv::new(), Fnv::new());
        by_words.words(b"0123456789");
        by_hand.word(u64::from_le_bytes(*b"01234567"));
        by_hand.word(u64::from(b'8') | u64::from(b'9') << 8);
        assert_eq!(by_words, by_hand);
    }
}
