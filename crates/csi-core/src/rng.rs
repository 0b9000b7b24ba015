//! The two seeded generators behind every deterministic draw in the
//! workspace. Campaign output is a pure function of its seeds, so the
//! fault catalogue, the corpus, the interleavings and the golden report
//! pin these sequences.

/// Marsaglia's xorshift64 with shifts (13, 7, 17): advances `state` and
/// returns it. A zero state stays zero, so seed it non-zero.
#[inline]
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// SplitMix64: advances `state` by the golden-ratio increment and returns
/// the mixed value. Any state, zero included, is a valid seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(&mut state), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn xorshift64_matches_the_reference_sequence() {
        let mut state = 1;
        assert_eq!(xorshift64(&mut state), 1_082_269_761);
        assert_eq!(state, 1_082_269_761);
    }
}
