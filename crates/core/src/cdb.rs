//! The Classification Database (CDB): flow IDs → nature labels, with
//! the purging policies of §4.5.
//!
//! Each record is 194 bits in the paper's accounting: a 160-bit SHA-1
//! flow hash, 32 bits for the last inter-arrival time `λ′`, and 2 bits
//! for the class label. Records are removed when
//!
//! 1. a FIN or RST packet closes the flow (≈ 46% of UMASS flows), or
//! 2. the flow is *obsolete*: `t_now − t_last > n·λ′`, where `λ′` is
//!    the inter-arrival of the flow's last two packets (default
//!    `λ = 0.5 s` when only one packet was seen) and `n` is a tunable
//!    coefficient (the paper finds `n = 4` optimal), or
//! 3. optionally, after a fixed age — the periodic-reclassification
//!    defense of §4.6.
//!
//! Obsolescence purges are triggered every `purge_trigger` insertions
//! (the paper uses 5,000), which keeps the CDB near the number of
//! genuinely concurrent flows (≈ 29,713 in Figure 8).

use std::collections::HashMap;
use std::fmt;

use iustitia_corpus::FileClass;
use iustitia_netsim::FiveTuple;

use crate::sha1::{sha1, Digest};

/// A 160-bit flow identifier: SHA-1 of the canonical 5-tuple bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct FlowId(pub Digest);

impl FlowId {
    /// Hashes a 5-tuple into its flow ID.
    pub fn of_tuple(tuple: &FiveTuple) -> FlowId {
        FlowId(sha1(&tuple.as_bytes()))
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// log2 of the [`FlowIdCache`] slot count.
const FLOW_ID_CACHE_BITS: u32 = 12;

/// Number of [`FlowIdCache`] slots.
const FLOW_ID_CACHE_SLOTS: usize = 1 << FLOW_ID_CACHE_BITS;

/// A fixed-size, direct-mapped memo of `FiveTuple → FlowId`, so a
/// packet of an already-hashed flow skips SHA-1.
///
/// Each of the 4096 slots holds a tuple's canonical 13 bytes and its
/// flow ID. [`resolve`](Self::resolve) picks a slot with a
/// multiply-shift hash of those bytes and returns the stored ID only
/// when the stored bytes equal the tuple's in full; otherwise it
/// computes [`FlowId::of_tuple`] and overwrites the slot. Every result
/// is therefore bit-identical to SHA-1, memory is fixed at set-up, and
/// a stream of unique or colliding tuples costs one SHA-1 plus one
/// slot probe per packet. An unused slot holds all-zero bytes, which
/// no tuple encodes to: the protocol byte of a real tuple is 6 or 17.
///
/// This is a deployment extension: the paper hashes every packet
/// (§4.5), and the offline [`Iustitia`](crate::pipeline::Iustitia)
/// pipeline still does.
///
/// # Examples
///
/// ```
/// use iustitia::cdb::{FlowId, FlowIdCache};
/// use iustitia_netsim::FiveTuple;
/// use std::net::Ipv4Addr;
///
/// let mut cache = FlowIdCache::new();
/// let tuple = FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 1), 53, Ipv4Addr::new(10, 0, 0, 2), 9000);
/// assert_eq!(cache.resolve(&tuple), FlowId::of_tuple(&tuple)); // miss: SHA-1
/// assert_eq!(cache.resolve(&tuple), FlowId::of_tuple(&tuple)); // hit: memo
/// ```
pub struct FlowIdCache {
    slots: Box<[([u8; 13], FlowId)]>,
}

impl FlowIdCache {
    /// Allocates the 4096 slots (about 130 KiB), all unused.
    pub fn new() -> Self {
        FlowIdCache { slots: vec![([0u8; 13], FlowId([0u8; 20])); FLOW_ID_CACHE_SLOTS].into() }
    }

    /// The flow ID of `tuple`: from its slot when the slot holds this
    /// exact tuple, else SHA-1, which then replaces the slot's entry.
    pub fn resolve(&mut self, tuple: &FiveTuple) -> FlowId {
        let key = tuple.as_bytes();
        let Some(slot) = self.slots.get_mut(slot_of(&key)) else {
            return FlowId::of_tuple(tuple);
        };
        if slot.0 != key {
            *slot = (key, FlowId::of_tuple(tuple));
        }
        slot.1
    }
}

impl Default for FlowIdCache {
    fn default() -> Self {
        FlowIdCache::new()
    }
}

impl fmt::Debug for FlowIdCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowIdCache").field("slots", &self.slots.len()).finish()
    }
}

/// Multiply-shift slot index of a tuple's 13 bytes: the first eight
/// and last five bytes (addresses, ports, protocol) are folded through
/// two odd 64-bit multipliers, and the product's top bits pick the
/// slot.
fn slot_of(key: &[u8; 13]) -> usize {
    let [a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4] = *key;
    let addrs = u64::from_le_bytes([a0, a1, a2, a3, a4, a5, a6, a7]);
    let rest = u64::from_le_bytes([b0, b1, b2, b3, b4, 0, 0, 0]);
    let mixed = addrs.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rest;
    (mixed.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> (64 - FLOW_ID_CACHE_BITS)) as usize
}

/// One CDB record (194 bits in the paper's layout).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CdbRecord {
    /// The flow's classified nature.
    pub label: FileClass,
    /// Timestamp of the flow's last packet.
    pub last_seen: f64,
    /// Inter-arrival time of the flow's last two packets (`λ′`), or
    /// `None` if only one packet has been seen since classification.
    pub last_iat: Option<f64>,
    /// When the flow was classified (drives the reclassification TTL).
    pub classified_at: f64,
}

/// CDB policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CdbConfig {
    /// Obsolescence coefficient `n` (paper optimum: 4). `None` disables
    /// inactivity purging entirely (the "w/o purging" curve of Fig. 8
    /// still removes FIN/RST flows).
    pub n: Option<f64>,
    /// Default `λ` when a flow's `λ′` is unknown (paper: 0.5 s).
    pub default_lambda: f64,
    /// Run an obsolescence sweep after this many insertions
    /// (paper: 5,000).
    pub purge_trigger: usize,
    /// Forget classifications older than this, forcing reclassification
    /// (the §4.6 defense). `None` disables.
    pub reclassify_after: Option<f64>,
}

impl Default for CdbConfig {
    /// The paper's deployment: `n = 4`, `λ = 0.5 s`, sweep every 5,000
    /// flows, no reclassification TTL.
    fn default() -> Self {
        CdbConfig { n: Some(4.0), default_lambda: 0.5, purge_trigger: 5000, reclassify_after: None }
    }
}

/// Counters describing CDB churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CdbStats {
    /// Records inserted.
    pub inserted: u64,
    /// Records removed by FIN/RST.
    pub removed_by_close: u64,
    /// Records removed by the `n·λ′` inactivity rule.
    pub removed_by_timeout: u64,
    /// Records expired by the reclassification TTL.
    pub removed_by_ttl: u64,
    /// Largest size ever reached.
    pub peak_size: usize,
}

/// The Classification Database of Figure 1.
///
/// # Examples
///
/// ```
/// use iustitia::cdb::{CdbConfig, ClassificationDatabase, FlowId};
/// use iustitia_corpus::FileClass;
///
/// let mut cdb = ClassificationDatabase::new(CdbConfig::default());
/// let id = FlowId([7u8; 20]);
/// cdb.insert(id, FileClass::Encrypted, 0.0);
/// assert_eq!(cdb.lookup(&id, 0.1), Some(FileClass::Encrypted));
/// cdb.remove_on_close(&id);
/// assert_eq!(cdb.lookup(&id, 0.2), None);
/// ```
#[derive(Debug, Clone)]
pub struct ClassificationDatabase {
    config: CdbConfig,
    records: HashMap<FlowId, CdbRecord>,
    inserts_since_sweep: usize,
    stats: CdbStats,
}

impl ClassificationDatabase {
    /// Creates an empty CDB.
    pub fn new(config: CdbConfig) -> Self {
        ClassificationDatabase {
            config,
            records: HashMap::new(),
            inserts_since_sweep: 0,
            stats: CdbStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CdbConfig {
        &self.config
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the CDB is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Size in bits under the paper's 194-bit record layout.
    pub fn size_bits(&self) -> u64 {
        self.records.len() as u64 * 194
    }

    /// Churn counters.
    pub fn stats(&self) -> &CdbStats {
        &self.stats
    }

    /// Looks up a flow's label and refreshes its timing (`λ′`,
    /// `last_seen`). Returns `None` for unknown flows and for records
    /// expired by the reclassification TTL (which are removed).
    pub fn lookup(&mut self, id: &FlowId, now: f64) -> Option<FileClass> {
        if let Some(ttl) = self.config.reclassify_after {
            if let Some(rec) = self.records.get(id) {
                if now - rec.classified_at > ttl {
                    // lint: allow(L008) — HashMap::remove never panics (the KB is conservative for Vec::remove)
                    self.records.remove(id);
                    self.stats.removed_by_ttl += 1;
                    return None;
                }
            }
        }
        let rec = self.records.get_mut(id)?;
        let iat = (now - rec.last_seen).max(0.0);
        rec.last_iat = Some(iat);
        rec.last_seen = now;
        Some(rec.label)
    }

    /// Mutable access to a live record without the TTL bookkeeping of
    /// [`lookup`](Self::lookup) — the batch hit-run fast path, which
    /// refreshes one record across consecutive same-flow packets after
    /// an initial `lookup` resolved it. Callers must re-check
    /// `reclassify_after` themselves per packet and fall back to
    /// `lookup` (which removes and counts the expiry) when it trips.
    pub(crate) fn record_mut(&mut self, id: &FlowId) -> Option<&mut CdbRecord> {
        self.records.get_mut(id)
    }

    /// Inserts a freshly classified flow and runs the periodic
    /// obsolescence sweep when due. Returns how many records the sweep
    /// removed (0 when no sweep ran).
    pub fn insert(&mut self, id: FlowId, label: FileClass, now: f64) -> usize {
        self.records
            .insert(id, CdbRecord { label, last_seen: now, last_iat: None, classified_at: now });
        self.stats.inserted += 1;
        self.stats.peak_size = self.stats.peak_size.max(self.records.len());
        self.inserts_since_sweep += 1;
        if self.inserts_since_sweep >= self.config.purge_trigger {
            self.inserts_since_sweep = 0;
            self.purge_obsolete(now)
        } else {
            0
        }
    }

    /// Removes the record for a flow that sent FIN or RST. Returns
    /// whether a record existed.
    pub fn remove_on_close(&mut self, id: &FlowId) -> bool {
        // lint: allow(L008) — HashMap::remove never panics (the KB is conservative for Vec::remove)
        let existed = self.records.remove(id).is_some();
        if existed {
            self.stats.removed_by_close += 1;
        }
        existed
    }

    /// Removes every obsolete flow: `now − last_seen > n·λ′` (with the
    /// default `λ` for single-packet flows). Returns the number removed.
    /// No-op when `config.n` is `None`.
    pub fn purge_obsolete(&mut self, now: f64) -> usize {
        let Some(n) = self.config.n else {
            return 0;
        };
        let default_lambda = self.config.default_lambda;
        let before = self.records.len();
        self.records.retain(|_, rec| {
            let lambda = rec.last_iat.unwrap_or(default_lambda);
            now - rec.last_seen <= n * lambda.max(1e-6)
        });
        let removed = before - self.records.len();
        self.stats.removed_by_timeout += removed as u64;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(byte: u8) -> FlowId {
        FlowId([byte; 20])
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 1.0);
        assert_eq!(cdb.lookup(&id(1), 1.5), Some(FileClass::Text));
        assert_eq!(cdb.lookup(&id(2), 1.5), None);
        assert_eq!(cdb.len(), 1);
        assert_eq!(cdb.size_bits(), 194);
    }

    #[test]
    fn lookup_updates_lambda_prime() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Binary, 0.0);
        cdb.lookup(&id(1), 0.25);
        cdb.lookup(&id(1), 0.35);
        // λ′ = 0.1 now; obsolete when idle > n·λ′ = 0.4
        assert_eq!(cdb.purge_obsolete(0.70), 0);
        assert_eq!(cdb.purge_obsolete(0.80), 1);
        assert!(cdb.is_empty());
        assert_eq!(cdb.stats().removed_by_timeout, 1);
    }

    #[test]
    fn single_packet_flows_use_default_lambda() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 0.0);
        // default λ = 0.5, n = 4 → obsolete after 2 s idle
        assert_eq!(cdb.purge_obsolete(1.9), 0);
        assert_eq!(cdb.purge_obsolete(2.1), 1);
    }

    #[test]
    fn close_removal_counts() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 0.0);
        assert!(cdb.remove_on_close(&id(1)));
        assert!(!cdb.remove_on_close(&id(1)));
        assert_eq!(cdb.stats().removed_by_close, 1);
    }

    #[test]
    fn purge_disabled_keeps_records() {
        let mut cdb = ClassificationDatabase::new(CdbConfig { n: None, ..CdbConfig::default() });
        cdb.insert(id(1), FileClass::Text, 0.0);
        assert_eq!(cdb.purge_obsolete(1e9), 0);
        assert_eq!(cdb.len(), 1);
    }

    #[test]
    fn sweep_triggers_every_n_inserts() {
        let config = CdbConfig { purge_trigger: 10, ..CdbConfig::default() };
        let mut cdb = ClassificationDatabase::new(config);
        // Insert 9 stale flows at t=0; the 10th insert at t=100 sweeps.
        for b in 0..9u8 {
            cdb.insert(id(b), FileClass::Text, 0.0);
        }
        assert_eq!(cdb.len(), 9);
        let removed = cdb.insert(id(9), FileClass::Text, 100.0);
        assert_eq!(removed, 9);
        assert_eq!(cdb.len(), 1);
    }

    #[test]
    fn reclassification_ttl_expires_records() {
        let config = CdbConfig { reclassify_after: Some(5.0), ..CdbConfig::default() };
        let mut cdb = ClassificationDatabase::new(config);
        cdb.insert(id(1), FileClass::Encrypted, 0.0);
        assert_eq!(cdb.lookup(&id(1), 4.0), Some(FileClass::Encrypted));
        assert_eq!(cdb.lookup(&id(1), 6.0), None, "TTL expired → reclassify");
        assert_eq!(cdb.stats().removed_by_ttl, 1);
    }

    #[test]
    fn flow_id_of_tuple_is_stable_and_distinct() {
        use std::net::Ipv4Addr;
        let a = FiveTuple::tcp(Ipv4Addr::new(1, 2, 3, 4), 10, Ipv4Addr::new(5, 6, 7, 8), 80);
        let b = FiveTuple::tcp(Ipv4Addr::new(1, 2, 3, 4), 11, Ipv4Addr::new(5, 6, 7, 8), 80);
        assert_eq!(FlowId::of_tuple(&a), FlowId::of_tuple(&a));
        assert_ne!(FlowId::of_tuple(&a), FlowId::of_tuple(&b));
        assert_eq!(FlowId::of_tuple(&a).to_string().len(), 40);
    }

    #[test]
    fn flow_id_cache_resolves_colliding_tuples_exactly() {
        use std::net::Ipv4Addr;
        // Candidate n varies the source port and the source address's
        // last octet, so each kind of twin below finds a colliding pair.
        let src = |n: u32| Ipv4Addr::new(10, 0, 0, (n >> 16) as u8);
        let dst = Ipv4Addr::new(10, 0, 1, 1);
        let tcp = |n: u32| FiveTuple::tcp(src(n), n as u16, dst, 443);
        let twin = |make: &dyn Fn(u32) -> (FiveTuple, FiveTuple)| {
            (0..1 << 24)
                .map(make)
                .find(|(x, y)| x != y && slot_of(&x.as_bytes()) == slot_of(&y.as_bytes()))
                .expect("a colliding pair")
        };
        let pairs = [
            twin(&|n| (tcp(0), tcp(n))),
            twin(&|n| (tcp(n), FiveTuple::tcp(dst, 443, src(n), n as u16))),
        ];
        // Two distinct tuples sharing a slot (another flow, or the same
        // flow seen from the other endpoint) must each keep resolving to
        // their own SHA-1 as they evict each other.
        for (x, y) in pairs {
            let mut cache = FlowIdCache::new();
            for t in [x, x, y, x, y, y] {
                assert_eq!(cache.resolve(&t), FlowId::of_tuple(&t), "{t}");
            }
        }
    }

    #[test]
    fn flow_id_cache_slots_spread_over_the_table() {
        use std::net::Ipv4Addr;
        // Sequential client ports, the common case for one host's
        // flows, must not pile into a few slots.
        let used: std::collections::HashSet<usize> = (0..4096u16)
            .map(|port| {
                let t = FiveTuple::tcp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    40_000 + port,
                    Ipv4Addr::new(10, 0, 0, 2),
                    443,
                );
                slot_of(&t.as_bytes())
            })
            .collect();
        assert!(used.len() > 2048, "4096 tuples used only {} slots", used.len());
    }

    fn id64(n: u64) -> FlowId {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&n.to_be_bytes());
        FlowId(bytes)
    }

    #[test]
    fn sweep_fires_at_exactly_the_default_trigger() {
        // Default trigger is the paper's 5,000 insertions: 4,999 stale
        // inserts must not sweep, the 5,000th must.
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        assert_eq!(cdb.config().purge_trigger, 5000);
        for n in 0..4999u64 {
            assert_eq!(cdb.insert(id64(n), FileClass::Binary, 0.0), 0, "insert #{n} swept early");
        }
        assert_eq!(cdb.len(), 4999, "nothing purged below the trigger");
        // t=100: every earlier record is long obsolete (default 2 s
        // idle allowance); the trigger insert itself survives.
        let removed = cdb.insert(id64(4999), FileClass::Binary, 100.0);
        assert_eq!(removed, 4999);
        assert_eq!(cdb.len(), 1);
        assert_eq!(cdb.stats().removed_by_timeout, 4999);
        // The counter reset: the next 4,999 inserts don't sweep either.
        for n in 5000..9999u64 {
            assert_eq!(cdb.insert(id64(n), FileClass::Binary, 100.0), 0);
        }
        assert!(cdb.insert(id64(9999), FileClass::Binary, 300.0) > 0, "second sweep fires");
    }

    #[test]
    fn remove_on_close_of_unknown_flow_is_a_noop() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Text, 0.0);
        assert!(!cdb.remove_on_close(&id(2)), "never-seen flow");
        assert_eq!(cdb.stats().removed_by_close, 0, "no-op must not count");
        assert_eq!(cdb.len(), 1, "unrelated records untouched");
        assert_eq!(cdb.lookup(&id(1), 0.1), Some(FileClass::Text));
    }

    #[test]
    fn lookup_after_purge_misses_the_evicted_record() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        cdb.insert(id(1), FileClass::Encrypted, 0.0);
        cdb.insert(id(2), FileClass::Text, 9.0);
        // Single-packet flows: obsolete after n·λ = 2 s idle. At t=10
        // flow 1 (idle 10 s) is evicted, flow 2 (idle 1 s) survives.
        assert_eq!(cdb.purge_obsolete(10.0), 1);
        assert_eq!(cdb.lookup(&id(1), 10.0), None, "evicted record must miss");
        assert_eq!(cdb.lookup(&id(2), 10.0), Some(FileClass::Text));
        // The miss neither resurrects the record nor perturbs counters.
        assert_eq!(cdb.len(), 1);
        assert_eq!(cdb.stats().removed_by_timeout, 1);
        assert_eq!(cdb.stats().removed_by_ttl, 0);
    }

    #[test]
    fn peak_size_tracked() {
        let mut cdb = ClassificationDatabase::new(CdbConfig::default());
        for b in 0..5u8 {
            cdb.insert(id(b), FileClass::Binary, 0.0);
        }
        cdb.remove_on_close(&id(0));
        assert_eq!(cdb.stats().peak_size, 5);
        assert_eq!(cdb.len(), 4);
    }
}
