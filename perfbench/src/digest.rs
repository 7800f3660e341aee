//! 64-bit FNV-1a, for bit-exact fingerprints of outputs and sources.

/// An FNV-1a hasher.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Mixes in the exact bits of a float slice.
    pub fn floats(&mut self, xs: &[f32]) {
        xs.iter().for_each(|x| self.bytes(&x.to_bits().to_le_bytes()));
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
