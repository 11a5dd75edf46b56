//! Determinism observability: per-tick state-hash series for the parallel
//! tick engine.
//!
//! The parallel engine's contract is *byte identity*: a run at any worker
//! count must march through exactly the same engine states as the serial
//! run. [`HashSeries`] is the witness — one 64-bit FNV digest of the full
//! snapshot payload per tick — cheap enough to record on every differential
//! run and precise enough that the first diverging tick pinpoints where a
//! reduction-order bug bit.

use ddp_snapshot::fnv1a64;

/// A per-tick sequence of engine state hashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HashSeries {
    hashes: Vec<u64>,
}

impl HashSeries {
    /// An empty series.
    pub fn new() -> Self {
        HashSeries::default()
    }

    /// Append the state hash observed at the end of one tick.
    pub fn record(&mut self, hash: u64) {
        self.hashes.push(hash);
    }

    /// Number of ticks recorded.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The recorded hashes, one per tick in tick order.
    pub fn as_slice(&self) -> &[u64] {
        &self.hashes
    }

    /// Index of the first tick where the two series disagree (including one
    /// series simply being shorter), or `None` when they match exactly.
    pub fn first_divergence(&self, other: &HashSeries) -> Option<usize> {
        let n = self.hashes.len().min(other.hashes.len());
        for i in 0..n {
            if self.hashes[i] != other.hashes[i] {
                return Some(i);
            }
        }
        if self.hashes.len() != other.hashes.len() {
            return Some(n);
        }
        None
    }

    /// One digest over the whole series — a compact fixture value for golden
    /// pinning an entire run's trajectory.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.hashes.len() * 8);
        for h in &self.hashes {
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_divergence_finds_earliest_mismatch() {
        let mut a = HashSeries::new();
        let mut b = HashSeries::new();
        for h in [1u64, 2, 3, 4] {
            a.record(h);
            b.record(h);
        }
        assert_eq!(a.first_divergence(&b), None);
        b.record(99);
        assert_eq!(a.first_divergence(&b), Some(4), "length mismatch diverges at the tail");
        let mut c = a.clone();
        c = HashSeries {
            hashes: {
                let mut v = c.as_slice().to_vec();
                v[1] = 7;
                v
            },
        };
        assert_eq!(a.first_divergence(&c), Some(1));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = HashSeries::new();
        a.record(1);
        a.record(2);
        let mut b = HashSeries::new();
        b.record(2);
        b.record(1);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }
}
