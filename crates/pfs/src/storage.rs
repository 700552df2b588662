//! Stripe-granular byte storage for one server, and the integer-keyed map
//! the servers keep per-file state in.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by file ids and stripe indices, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiplicative hasher for integer keys: one rotate, xor and multiply
/// per word, where SipHash costs tens of nanoseconds a request. It resists
/// no adversary, and needs not: a map's keys are the file ids and stripe
/// indices of stripes actually stored, so driving it into a long probe
/// chain takes storing that many stripes.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Whether payload bytes are retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// Keep every byte (correctness tests, small runs).
    Full,
    /// Account time only; writes are discarded and reads return zeros.
    /// Large benchmark configurations use this to bound memory.
    CostOnly,
    /// Keep only small requests — file headers, superblocks, object
    /// headers — and discard bulk data. Lets read benchmarks re-open files
    /// (the header parses) without holding gigabytes of array data.
    MetadataOnly,
}

/// Requests at or below this size are considered metadata under
/// [`StorageMode::MetadataOnly`].
pub const METADATA_REQUEST_LIMIT: u64 = 64 * 1024;

/// Byte store of one server: sparse stripes keyed by `(file id, stripe idx)`.
#[derive(Default)]
pub struct StripeStore {
    stripes: IdMap<(u64, u64), Box<[u8]>>,
    stripe_size: u64,
}

impl StripeStore {
    /// New store for stripes of `stripe_size` bytes.
    pub fn new(stripe_size: u64) -> StripeStore {
        StripeStore {
            stripes: IdMap::default(),
            stripe_size,
        }
    }

    /// Write `data` into stripe `stripe` of `file` at `offset_in_stripe`.
    pub fn write(&mut self, file: u64, stripe: u64, offset_in_stripe: u64, data: &[u8]) {
        debug_assert!(offset_in_stripe + data.len() as u64 <= self.stripe_size);
        let buf = self
            .stripes
            .entry((file, stripe))
            .or_insert_with(|| vec![0u8; self.stripe_size as usize].into_boxed_slice());
        let lo = offset_in_stripe as usize;
        buf[lo..lo + data.len()].copy_from_slice(data);
    }

    /// Read from stripe `stripe`; unwritten stripes read as zeros.
    pub fn read(&self, file: u64, stripe: u64, offset_in_stripe: u64, out: &mut [u8]) {
        debug_assert!(offset_in_stripe + out.len() as u64 <= self.stripe_size);
        match self.stripes.get(&(file, stripe)) {
            Some(buf) => {
                let lo = offset_in_stripe as usize;
                out.copy_from_slice(&buf[lo..lo + out.len()]);
            }
            None => out.fill(0),
        }
    }

    /// Drop every stripe of `file`.
    pub fn remove_file(&mut self, file: u64) {
        self.stripes.retain(|&(f, _), _| f != file);
    }

    /// Number of resident stripes (diagnostics).
    pub fn resident_stripes(&self) -> usize {
        self.stripes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut s = StripeStore::new(16);
        s.write(1, 0, 4, &[1, 2, 3]);
        let mut out = [9u8; 6];
        s.read(1, 0, 2, &mut out);
        assert_eq!(out, [0, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = StripeStore::new(8);
        let mut out = [7u8; 8];
        s.read(0, 5, 0, &mut out);
        assert_eq!(out, [0; 8]);
    }

    #[test]
    fn files_are_isolated() {
        let mut s = StripeStore::new(8);
        s.write(1, 0, 0, &[1; 8]);
        s.write(2, 0, 0, &[2; 8]);
        let mut out = [0u8; 8];
        s.read(1, 0, 0, &mut out);
        assert_eq!(out, [1; 8]);
        s.remove_file(1);
        s.read(1, 0, 0, &mut out);
        assert_eq!(out, [0; 8]);
        s.read(2, 0, 0, &mut out);
        assert_eq!(out, [2; 8]);
    }

    #[test]
    fn overwrite_within_stripe() {
        let mut s = StripeStore::new(8);
        s.write(0, 3, 0, &[1; 8]);
        s.write(0, 3, 2, &[9, 9]);
        let mut out = [0u8; 8];
        s.read(0, 3, 0, &mut out);
        assert_eq!(out, [1, 1, 9, 9, 1, 1, 1, 1]);
        assert_eq!(s.resident_stripes(), 1);
    }

    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// Random writes, reads and removals over 1–4 files and sparse
        /// stripe indices, up to the last stripe a `u64` offset can address,
        /// against a per-file byte oracle (absent bytes read as zero).
        #[test]
        fn store_matches_a_byte_oracle(
            nfiles in 1u64..5,
            ops in vec((0u8..8, any::<u64>(), 0u64..8, 0u64..16, 1u64..17, any::<u8>()), 1..64),
        ) {
            const S: u64 = 16;
            let mut store = StripeStore::new(S);
            let mut bytes: Vec<BTreeMap<u64, u8>> = vec![BTreeMap::new(); nfiles as usize];
            let mut stripes: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); nfiles as usize];
            for (kind, pick, near, off, len, val) in ops {
                let file = pick % nfiles;
                let stripe = if pick & 1 << 40 == 0 { near } else { u64::MAX / S - near };
                let len = len.min(S - off);
                // Byte addresses; the last stripe's end is 2^64 itself.
                let (f, i) = (file as usize, (off..off + len).map(|o| stripe * S + o));
                match kind {
                    0 => {
                        store.remove_file(file + 1);
                        bytes[f].clear();
                        stripes[f].clear();
                    }
                    1..=4 => {
                        let data: Vec<u8> = i.clone().map(|a| val ^ a as u8).collect();
                        store.write(file + 1, stripe, off, &data);
                        i.zip(data).for_each(|(a, b)| { bytes[f].insert(a, b); });
                        stripes[f].insert(stripe);
                    }
                    _ => {
                        let mut out = vec![0xAA; len as usize];
                        store.read(file + 1, stripe, off, &mut out);
                        let want: Vec<u8> = i.map(|a| bytes[f].get(&a).copied().unwrap_or(0)).collect();
                        prop_assert_eq!(out, want, "file {} stripe {} off {}", file, stripe, off);
                    }
                }
                let resident: usize = stripes.iter().map(BTreeSet::len).sum();
                prop_assert_eq!(store.resident_stripes(), resident);
            }
        }
    }
}
