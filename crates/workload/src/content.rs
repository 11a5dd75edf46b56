//! Shared-content catalog: which peer holds which objects.
//!
//! Substitute for the KaZaA file-sharing workload the paper draws its
//! settings from (Gummadi et al., SOSP'03): object popularity is Zipf, and a
//! peer's shared library is a Zipf sample of the catalog, so popular objects
//! end up replicated on many peers and unpopular ones on few — exactly the
//! property that makes flooding search succeed quickly for popular content
//! and makes success rate sensitive to message drops for the tail.

use crate::zipf::Zipf;
use ddp_topology::NodeId;
use rand::Rng;

/// Identifier of a shared object (rank in the catalog; 0 = most popular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

/// The catalog: every peer's sorted library in one flat array, plus the
/// query popularity law.
///
/// Libraries all have the same length (`objects_per_peer`), so they are
/// stored back to back with that fixed stride: peer `i` holds
/// `objects[i * stride..(i + 1) * stride]`, sorted strictly ascending. A
/// lookup is one offset computation and a binary search inside one short
/// contiguous run, with no per-peer heap header to chase.
#[derive(Debug, Clone)]
pub struct ContentCatalog {
    /// Every peer's library, back to back, `stride` objects each.
    objects: Vec<u32>,
    /// Library size: objects held per peer.
    stride: usize,
    /// Number of peers with libraries.
    peers: usize,
    /// Popularity law used to draw query targets.
    query_popularity: Zipf,
    num_objects: usize,
}

/// Configuration for catalog generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentConfig {
    /// Total distinct objects in the system.
    pub num_objects: usize,
    /// Objects held per peer (library size).
    pub objects_per_peer: usize,
    /// Zipf exponent for both replication and query popularity.
    pub alpha: f64,
}

impl Default for ContentConfig {
    fn default() -> Self {
        // 10k distinct objects, 50 per peer, alpha 0.8 (classic P2P fit).
        ContentConfig { num_objects: 10_000, objects_per_peer: 50, alpha: 0.8 }
    }
}

impl ContentConfig {
    /// Reject settings the catalog cannot be built from: an empty catalog or
    /// a non-positive exponent (no Zipf law exists), and libraries larger
    /// than the catalog (distinct objects cannot fill them).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_objects == 0 {
            return Err("content.num_objects 0: no object to hold or query".into());
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!("content.alpha {} must be finite and positive", self.alpha));
        }
        if self.objects_per_peer > self.num_objects {
            return Err(format!(
                "content.objects_per_peer {} exceeds content.num_objects {}",
                self.objects_per_peer, self.num_objects
            ));
        }
        Ok(())
    }
}

/// Why [`ContentCatalog::from_flat`] refused a set of libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraryError {
    /// The flat array is not `peers * objects_per_peer` long.
    Length,
    /// A library is not strictly ascending (unsorted or duplicated).
    Order,
}

/// Sample a library of `row.len()` distinct objects into `row`, sorted.
fn fill_library<R: Rng + ?Sized>(pop: &Zipf, row: &mut [u32], rng: &mut R) {
    // Rejection-sample distinct objects; libraries are tiny relative to the
    // catalog so rejection is rare.
    let mut len = 0;
    while len < row.len() {
        let o = pop.sample(rng) as u32;
        if !row[..len].contains(&o) {
            row[len] = o;
            len += 1;
        }
    }
    row.sort_unstable();
}

impl ContentCatalog {
    /// Generate libraries for `n` peers.
    ///
    /// # Panics
    /// Panics on a configuration [`ContentConfig::validate`] rejects.
    pub fn generate<R: Rng + ?Sized>(n: usize, cfg: &ContentConfig, rng: &mut R) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid content config: {e}");
        }
        let pop = Zipf::new(cfg.num_objects, cfg.alpha);
        let stride = cfg.objects_per_peer;
        let mut objects = vec![0; n * stride];
        for i in 0..n {
            fill_library(&pop, &mut objects[i * stride..(i + 1) * stride], rng);
        }
        ContentCatalog {
            objects,
            stride,
            peers: n,
            query_popularity: pop,
            num_objects: cfg.num_objects,
        }
    }

    /// Rebuild a catalog from `peers` libraries stored back to back — the
    /// snapshot-restore constructor. Each library must be
    /// `cfg.objects_per_peer` long and strictly ascending. The popularity
    /// law carries no mutable state (queries draw from the engine's RNG
    /// streams), so it is reconstructed from `cfg` exactly as
    /// [`ContentCatalog::generate`] builds it.
    pub fn from_flat(
        peers: usize,
        objects: Vec<u32>,
        cfg: &ContentConfig,
    ) -> Result<Self, LibraryError> {
        let stride = cfg.objects_per_peer;
        if Some(objects.len()) != peers.checked_mul(stride) {
            return Err(LibraryError::Length);
        }
        let ascending = |lib: &[u32]| lib.windows(2).all(|w| w[0] < w[1]);
        if stride > 1 && !objects.chunks_exact(stride).all(ascending) {
            return Err(LibraryError::Order);
        }
        Ok(ContentCatalog {
            objects,
            stride,
            peers,
            query_popularity: Zipf::new(cfg.num_objects, cfg.alpha),
            num_objects: cfg.num_objects,
        })
    }

    /// `node`'s library, sorted ascending (empty past the last peer).
    #[inline]
    pub fn library(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        if i >= self.peers {
            return &[];
        }
        &self.objects[i * self.stride..(i + 1) * self.stride]
    }

    /// Generate the library for one newly joined peer, replacing `node`'s.
    /// `node` one past the last peer (a newly grown slot) appends a library.
    ///
    /// # Panics
    /// Panics if `node` is further past the last peer than that.
    pub fn regenerate_library<R: Rng + ?Sized>(&mut self, node: NodeId, rng: &mut R) {
        let (i, k) = (node.index(), self.stride);
        assert!(i <= self.peers, "library slots grow one peer at a time");
        if i == self.peers {
            // Grow the store a sixteenth at a time rather than doubling it:
            // it is the largest per-peer array, and peers join one by one.
            if self.objects.capacity() < (i + 1) * k {
                self.objects.reserve_exact(k * (self.peers / 16).max(1));
            }
            self.objects.resize((i + 1) * k, 0);
            self.peers += 1;
        }
        fill_library(&self.query_popularity, &mut self.objects[i * k..(i + 1) * k], rng);
    }

    /// The signature bit of `object`: bit `object % 128`.
    #[inline]
    pub fn signature_bit(object: ObjectId) -> u128 {
        1u128 << (object.0 & 127)
    }

    /// A 128-bit summary of `node`'s library: the union of the
    /// [`signature_bit`](Self::signature_bit)s of its objects. A clear bit
    /// proves `node` does not hold the object, so a caller that caches the
    /// signature next to other per-node state can skip most
    /// [`holds`](Self::holds) lookups. The cache must be refreshed whenever
    /// [`regenerate_library`](Self::regenerate_library) replaces the library.
    pub fn signature(&self, node: NodeId) -> u128 {
        self.library(node).iter().fold(0, |sig, &o| sig | Self::signature_bit(ObjectId(o)))
    }

    /// Does `node` hold `object`? O(log library size).
    #[inline]
    pub fn holds(&self, node: NodeId, object: ObjectId) -> bool {
        self.library(node).binary_search(&object.0).is_ok()
    }

    /// Draw a query target according to the popularity law.
    pub fn sample_query_target<R: Rng + ?Sized>(&self, rng: &mut R) -> ObjectId {
        ObjectId(self.query_popularity.sample(rng) as u32)
    }

    /// Number of distinct objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of peers with libraries.
    pub fn num_peers(&self) -> usize {
        self.peers
    }

    /// How many peers hold `object` (O(total library size); diagnostics only).
    pub fn replication_count(&self, object: ObjectId) -> usize {
        (0..self.peers).filter(|&i| self.holds(NodeId::from_index(i), object)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog(n: usize) -> ContentCatalog {
        let mut rng = StdRng::seed_from_u64(42);
        ContentCatalog::generate(n, &ContentConfig::default(), &mut rng)
    }

    #[test]
    fn libraries_have_requested_size_and_are_sorted() {
        let c = catalog(20);
        for i in 0..20 {
            let node = NodeId::from_index(i);
            let mut count = 0;
            for o in 0..c.num_objects() {
                if c.holds(node, ObjectId(o as u32)) {
                    count += 1;
                }
            }
            assert_eq!(count, 50);
        }
    }

    #[test]
    fn popular_objects_are_replicated_more() {
        let c = catalog(500);
        let head: usize = (0..10).map(|o| c.replication_count(ObjectId(o))).sum();
        let tail: usize = (9000..9010).map(|o| c.replication_count(ObjectId(o))).sum();
        assert!(head > tail * 3, "head replication {head} should dominate tail {tail}");
    }

    #[test]
    fn query_targets_follow_popularity() {
        let c = catalog(10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0;
        let draws = 20_000;
        for _ in 0..draws {
            if c.sample_query_target(&mut rng).0 < 100 {
                head += 1;
            }
        }
        // With alpha=0.8 over 10k objects the top-100 should carry a sizable
        // fraction of queries (far more than the uniform 1%).
        assert!(head as f64 / draws as f64 > 0.10, "head share {head}/{draws}");
    }

    #[test]
    fn regenerate_library_replaces_content() {
        let mut c = catalog(5);
        let node = NodeId(2);
        let before: Vec<u32> = (0..c.num_objects())
            .filter(|&o| c.holds(node, ObjectId(o as u32)))
            .map(|o| o as u32)
            .collect();
        let mut rng = StdRng::seed_from_u64(999);
        c.regenerate_library(node, &mut rng);
        let after: Vec<u32> = (0..c.num_objects())
            .filter(|&o| c.holds(node, ObjectId(o as u32)))
            .map(|o| o as u32)
            .collect();
        assert_eq!(after.len(), 50);
        assert_ne!(before, after);
    }

    #[test]
    fn holds_out_of_range_node_is_false() {
        let c = catalog(3);
        assert!(!c.holds(NodeId(99), ObjectId(0)));
    }

    #[test]
    fn regenerate_library_grows_by_one_slot() {
        let mut c = catalog(3);
        let mut rng = StdRng::seed_from_u64(4);
        c.regenerate_library(NodeId(3), &mut rng);
        assert_eq!(c.num_peers(), 4);
        assert_eq!(c.library(NodeId(3)).len(), 50);
        assert!(c.library(NodeId(3)).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn signature_has_a_bit_for_every_held_object() {
        let c = catalog(20);
        for i in 0..20 {
            let node = NodeId::from_index(i);
            let sig = c.signature(node);
            for o in 0..c.num_objects() as u32 {
                let bit = ContentCatalog::signature_bit(ObjectId(o));
                if c.holds(node, ObjectId(o)) {
                    assert_ne!(sig & bit, 0, "node {i} holds {o} but its bit is clear");
                }
            }
            // One bit per object at most, so a 50-object library leaves most
            // of the 128 bits clear to reject lookups.
            assert!(sig.count_ones() <= 50);
        }
    }

    #[test]
    fn from_flat_round_trips_and_rejects_bad_libraries() {
        let cfg = ContentConfig { num_objects: 100, objects_per_peer: 3, alpha: 1.0 };
        let c = ContentCatalog::from_flat(2, vec![1, 5, 9, 0, 2, 4], &cfg).unwrap();
        assert_eq!(c.library(NodeId(1)), &[0, 2, 4]);
        assert!(c.holds(NodeId(0), ObjectId(5)));
        assert_eq!(
            ContentCatalog::from_flat(2, vec![1, 5, 9, 0, 2], &cfg).unwrap_err(),
            LibraryError::Length
        );
        assert_eq!(
            ContentCatalog::from_flat(2, vec![1, 5, 9, 2, 2, 4], &cfg).unwrap_err(),
            LibraryError::Order
        );
        assert_eq!(
            ContentCatalog::from_flat(2, vec![1, 5, 9, 4, 2, 0], &cfg).unwrap_err(),
            LibraryError::Order
        );
    }
}
